"""Cross-validation plans, stratified splits, accuracy/confusion metrics, and
the paired t-test with Bonferroni correction.

The t-test imports ``scipy.special`` inside the function: it needs one
Student-t tail, and loading ``scipy.stats`` costs more than the package.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .rng import substream


@dataclass
class FoldPlan:
    """Partition of trials into k stratified folds (assignments[i] = fold id)."""

    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold: per-class counts differ by at most one
    across folds."""
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ConfigError(f"cross-validation needs k >= 2, got k={k}")
    rng = substream(seed, "kfold")
    assignments = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise DataError(
                f"class {cls} has only {members.size} trials; needs at least k={k}"
            )
        members = members[rng.permutation(members.size)]
        assignments[members] = np.arange(members.size) % k
    return FoldPlan(assignments)


def stratified_split(labels, fraction: float, rng):
    """Per class, permute the trials with ``rng`` and hold out the first
    round(fraction * n), at most n - 1. Returns (kept, held_out), both sorted."""
    labels = np.asarray(labels, dtype=np.int64)
    kept, held_out = [], []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(members.size)]
        n_out = min(int(round(fraction * members.size)), members.size - 1)
        held_out.extend(members[:n_out])
        kept.extend(members[n_out:])
    return (
        np.sort(np.asarray(kept, dtype=np.int64)),
        np.sort(np.asarray(held_out, dtype=np.int64)),
    )


def holdout_split(labels, test_fraction: float, seed: int):
    """Stratified train/test split; |test| = round(test_fraction * N) up to
    per-class rounding. Returns (train_indices, test_indices), both sorted."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    train_idx, test_idx = stratified_split(labels, test_fraction, substream(seed, "holdout"))
    if not test_idx.size:
        raise DataError(f"test_fraction {test_fraction} produced an empty test set")
    return train_idx, test_idx


def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """Counts with true classes as rows, predictions as columns."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("prediction/label length mismatch")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy_from_confusion(cm: np.ndarray) -> float:
    total = cm.sum()
    return float(np.trace(cm) / total) if total else 0.0


def paired_t_test(a, b):
    """Two-sided paired t-test.

    Returns (t, p) with t = mean(d) / (sd(d) / sqrt(n)), d = a - b, df = n-1.
    A zero-variance difference yields t = 0, p = 1 when the mean difference is
    zero, otherwise t = +/-inf, p = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired t-test needs two equal-length 1-D samples")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    d = a - b
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return float(np.sign(mean) * np.inf), 0.0
    from scipy.special import stdtr

    t = mean / (sd / np.sqrt(n))
    # the survival function of Student's t, as scipy.stats.t.sf computes it
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return float(t), min(p, 1.0)


def bonferroni(p_values, m: int):
    """Family-wise correction: p' = min(1, m * p) for each raw p."""
    if m < 1:
        raise ValueError(f"family size must be >= 1, got {m}")
    return [min(1.0, m * float(p)) for p in p_values]
