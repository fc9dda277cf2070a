"""Fold plans, splits, metrics, and the paired statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from covert_decode.evaluation import (
    accuracy_from_confusion,
    bonferroni,
    confusion_matrix,
    holdout_split,
    paired_t_test,
    stratified_kfold,
    stratified_split,
)
from covert_decode.rng import substream


def t_sf_oracle(t, df):
    """High-precision Student-t survival function via mpmath's incomplete beta."""
    import mpmath

    mpmath.mp.dps = 40
    t = mpmath.mpf(t)
    df = mpmath.mpf(df)
    x = df / (df + t * t)
    half = mpmath.betainc(df / 2, mpmath.mpf(1) / 2, 0, x, regularized=True) / 2
    return float(half) if t > 0 else 1.0 - float(half)


class TestStratifiedKfold:
    def test_balanced_400_trials(self):
        labels = np.repeat(np.arange(5), 80)
        plan = stratified_kfold(labels, 5, seed=0)
        for fold in range(5):
            test = plan.test_indices(fold)
            assert test.size == 80
            counts = np.bincount(labels[test], minlength=5)
            np.testing.assert_array_equal(counts, 16)

    def test_k_one_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.repeat([0, 1], 10), 1, seed=0)

    def test_unbalanced_split_counts(self):
        labels = np.array([0] * 6 + [1] * 4)
        plan = stratified_kfold(labels, 2, seed=3)
        sizes = [plan.test_indices(f).size for f in range(2)]
        assert sorted(sizes) == [5, 5]
        for fold in range(2):
            counts = np.bincount(labels[plan.test_indices(fold)], minlength=2)
            assert counts[0] == 3 and counts[1] == 2

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, 101)
        # ensure each class has at least k members
        labels[:20] = np.arange(4).repeat(5)
        plan = stratified_kfold(labels, 5, seed=1)
        seen = np.concatenate([plan.test_indices(f) for f in range(5)])
        assert sorted(seen) == list(range(101))

    def test_class_counts_within_one(self):
        labels = np.array([0] * 13 + [1] * 7 + [2] * 9)
        plan = stratified_kfold(labels, 3, seed=2)
        for cls in range(3):
            per_fold = [
                np.count_nonzero(labels[plan.test_indices(f)] == cls) for f in range(3)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_too_few_members_rejected(self):
        labels = np.array([0, 0, 0, 1])
        with pytest.raises(ValueError, match="class 1"):
            stratified_kfold(labels, 2, seed=0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(3), 10)
        a = stratified_kfold(labels, 5, seed=9)
        b = stratified_kfold(labels, 5, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestHoldoutSplit:
    def test_400_trials_80_20(self):
        labels = np.repeat(np.arange(5), 80)
        train, test = holdout_split(labels, 0.2, seed=0)
        assert train.size == 320 and test.size == 80
        np.testing.assert_array_equal(np.bincount(labels[test], minlength=5), 16)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            holdout_split(np.repeat([0, 1], 10), 0.0, seed=0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(4), 25)
        a = holdout_split(labels, 0.2, seed=7)
        b = holdout_split(labels, 0.2, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_disjoint_and_complete(self):
        labels = np.repeat(np.arange(3), 11)
        train, test = holdout_split(labels, 0.25, seed=3)
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == labels.size


class TestStratifiedSplit:
    LABELS = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40)
    SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(LABELS, st.floats(min_value=0.0, max_value=0.99), SEEDS)
    def test_partition_counts_and_determinism(self, labels, fraction, seed):
        labels = np.asarray(labels)
        kept, held_out = stratified_split(labels, fraction, substream(seed, "split"))
        assert_array_equal(np.sort(np.concatenate([kept, held_out])), np.arange(labels.size))
        assert np.all(np.diff(kept) > 0) and np.all(np.diff(held_out) > 0)
        for cls in np.unique(labels):
            n = int(np.count_nonzero(labels == cls))
            expected = min(int(round(fraction * n)), n - 1)
            assert np.count_nonzero(labels[held_out] == cls) == expected
        again = stratified_split(labels, fraction, substream(seed, "split"))
        assert_array_equal(again[0], kept)
        assert_array_equal(again[1], held_out)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(LABELS, st.floats(min_value=0.01, max_value=0.99), SEEDS)
    def test_holdout_split_uses_the_holdout_substream(self, labels, fraction, seed):
        kept, held_out = stratified_split(labels, fraction, substream(seed, "holdout"))
        if not held_out.size:
            with pytest.raises(ValueError, match="empty test set"):
                holdout_split(labels, fraction, seed)
            return
        train, test = holdout_split(labels, fraction, seed)
        assert_array_equal(train, kept)
        assert_array_equal(test, held_out)


class TestConfusion:
    def test_counts_and_accuracy(self):
        y_true = np.array([0, 0, 1, 1, 2])
        y_pred = np.array([0, 1, 1, 1, 0])
        cm = confusion_matrix(y_true, y_pred, 3)
        np.testing.assert_array_equal(cm, [[1, 1, 0], [0, 2, 0], [1, 0, 0]])
        assert accuracy_from_confusion(cm) == pytest.approx(3 / 5, abs=1e-12)

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 4, 200)
        y_pred = rng.integers(0, 4, 200)
        cm = confusion_matrix(y_true, y_pred, 4)
        np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(y_true, minlength=4))


class TestPairedTTest:
    def test_zero_mean_difference(self):
        t, p = paired_t_test([1.0, -1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_known_case(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        t, p = paired_t_test(a, np.zeros(5))
        assert t == pytest.approx(3 * np.sqrt(5) / np.sqrt(2.5), abs=1e-12)
        assert p == pytest.approx(0.0132, abs=2e-4)

    def test_matches_high_precision_oracle(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        for df in range(2, 31):
            n = df + 1
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            t, p = paired_t_test(a, b)
            expected = 2.0 * t_sf_oracle(abs(t), df)
            assert p == pytest.approx(min(expected, 1.0), abs=1e-8)

    def test_p_equals_scipy_stats_bit_for_bit(self):
        from scipy import stats

        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(2, 60))
            a = rng.standard_normal(n)
            b = a + rng.normal(rng.uniform(-2, 2), rng.uniform(0.01, 3), n)
            t, p = paired_t_test(a, b)
            assert p == min(2.0 * float(stats.t.sf(abs(t), df=n - 1)), 1.0)

    def test_zero_variance_nonzero_mean(self):
        t, p = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert np.isinf(t) and t > 0
        assert p == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [0.0])


class TestBonferroni:
    def test_spec_example(self):
        assert bonferroni([0.3, 0.01], 6) == [1.0, 0.06]

    def test_caps_at_one(self):
        assert bonferroni([0.9], 5) == [1.0]

    def test_identity_for_family_of_one(self):
        assert bonferroni([0.2, 0.05], 1) == [pytest.approx(0.2), pytest.approx(0.05)]

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            bonferroni([0.5], 0)
