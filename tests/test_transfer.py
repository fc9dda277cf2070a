"""Freeze contract, budget nesting, fine-tuning, and the sweep bookkeeping."""

import json

import numpy as np
import pytest

from covert_decode.containers import Condition, FeatureTensor
from covert_decode.network import build_model, classifier_specs
from covert_decode.rng import substream
from covert_decode.evaluation import bonferroni, paired_t_test
from covert_decode.training import TrainConfig, evaluate_accuracy, train_model
from covert_decode.transfer import (
    TransferPlan,
    fine_tune,
    freeze_recurrent,
    head_input_features,
    nested_budget_indices,
    transfer_sweep,
)


def toy_tensor(n_per_class=20, t_len=16, n_channels=3, n_classes=5, seed=0, scale=2.0):
    """Class-coded feature tensor: each class boosts one envelope column."""
    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    data = 0.3 * rng.standard_normal((n, t_len, 2 * n_channels)).astype(np.float32)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    for i, cls in enumerate(labels):
        data[i, :, cls % n_channels] += scale
        data[i, :, n_channels + (cls % n_channels)] += 0.5 * scale * (1 if cls % 2 else -1)
    return FeatureTensor(
        data=data,
        labels=labels,
        condition=Condition.COVERT,
        class_names=[f"c{i}" for i in range(n_classes)],
    )


def reference_scratch_payload(plan, covert, source, config):
    """The sweep payload with scratch baselines trained one at a time, each by
    train_model, as transfer_sweep did before lockstep training. Frozen as the
    oracle for the lockstep sweep; the transfer side comes from a sweep
    without baselines."""
    payload = transfer_sweep(plan, covert, source_model=source, train_config=config,
                             include_scratch_baseline=False)
    runs = iter(payload["runs"])
    for seed in plan.seeds:
        test_idx, budget_sets = nested_budget_indices(covert.labels, plan.budgets,
                                                      plan.test_fraction, seed)
        for budget in plan.budgets:
            scratch_seed = seed * 10000 + int(round(budget * 100))
            scratch = build_model(source.specs, seed=scratch_seed)
            train_model(scratch, covert.data[budget_sets[budget]],
                        covert.labels[budget_sets[budget]], config, seed=scratch_seed)
            next(runs)["scratch_accuracy"] = evaluate_accuracy(
                scratch, covert.data[test_idx], covert.labels[test_idx], config.batch_size)
    versus = []
    for entry in payload["summary"]:
        budget = entry["budget"]
        a = [r["transfer_accuracy"] for r in payload["runs"] if r["budget"] == budget]
        b = [r["scratch_accuracy"] for r in payload["runs"] if r["budget"] == budget]
        entry["scratch_mean"] = float(np.mean(b))
        entry["scratch_stdev"] = float(np.std(b, ddof=1)) if len(b) > 1 else 0.0
        t, p = paired_t_test(a, b)
        versus.append({"budget": budget, "t": t, "p_raw": p})
    for v, p_corr in zip(versus, bonferroni([v["p_raw"] for v in versus], len(versus))):
        v["p_corrected"] = p_corr
    payload["transfer_vs_scratch_t_tests"] = versus
    return payload


def small_model(n_features=6, seed=0):
    specs = classifier_specs(
        "bilstm", n_features, hidden=(6, 4), dropout=(0.2, 0.1), n_classes=5
    )
    return build_model(specs, seed=seed)


class TestFreeze:
    def test_flags_set_and_idempotent(self):
        model = small_model()
        freeze_recurrent(model)
        flags = model.freeze_flags()
        assert flags[0] and flags[1]
        assert not flags[2]  # dense stays trainable
        freeze_recurrent(model)
        assert model.freeze_flags() == flags

    def test_adam_state_covers_head_only(self):
        from covert_decode.optim import init_adam

        model = freeze_recurrent(small_model())
        state = init_adam(model.trainable_params())
        assert set(state.m) == {"layer2.b", "layer2.w"}

    def test_recurrent_unchanged_after_fine_tune_steps(self):
        model = small_model()
        tensor = toy_tensor()
        result = fine_tune(
            model, tensor, budget=0.3, test_fraction=0.2,
            config=TrainConfig(learning_rate=3e-3, max_epochs=10), seed=0,
        )
        assert result.recurrent_hash_before == result.recurrent_hash_after

    def test_dense_changes_under_fine_tune(self):
        model = small_model()
        before = model.layers[2].params["w"].copy()
        tensor = toy_tensor()
        result = fine_tune(
            model, tensor, budget=0.3, test_fraction=0.2,
            config=TrainConfig(learning_rate=3e-3, max_epochs=5), seed=0,
        )
        after = result.model.layers[2].params["w"]
        assert not np.array_equal(before, after)
        # the source model itself is untouched
        np.testing.assert_array_equal(model.layers[2].params["w"], before)


class TestBudgetNesting:
    def test_nested_and_disjoint(self):
        labels = np.repeat(np.arange(5), 80)
        budgets = (0.15, 0.20, 0.25, 0.30)
        test_idx, sets = nested_budget_indices(labels, budgets, 0.2, seed=0)
        assert test_idx.size == 80
        for b1, b2 in zip(budgets, budgets[1:]):
            assert set(sets[b1]) <= set(sets[b2])
        for b in budgets:
            assert np.intersect1d(sets[b], test_idx).size == 0

    def test_sizes_match_spec_counts(self):
        labels = np.repeat(np.arange(5), 80)
        test_idx, sets = nested_budget_indices(labels, (0.25,), 0.2, seed=1)
        assert sets[0.25].size == 100  # 20 per class
        np.testing.assert_array_equal(np.bincount(labels[sets[0.25]]), 20)
        assert test_idx.size == 80

    def test_budget_cannot_starve_class(self):
        labels = np.repeat(np.arange(5), 4)
        with pytest.raises(ValueError, match="class"):
            nested_budget_indices(labels, (0.05,), 0.2, seed=0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(3), 30)
        a = nested_budget_indices(labels, (0.2, 0.3), 0.2, seed=5)
        b = nested_budget_indices(labels, (0.2, 0.3), 0.2, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        for key in a[1]:
            np.testing.assert_array_equal(a[1][key], b[1][key])


class TestFineTune:
    def test_cached_head_features_match_full_forward(self):
        model = freeze_recurrent(small_model())
        tensor = toy_tensor(n_per_class=4)
        cached = head_input_features(model, tensor.data, batch_size=8)
        dense = model.layers[2]
        from covert_decode.network import softmax

        probs_cached = softmax(cached @ dense.params["w"] + dense.params["b"])
        probs_full = model.forward(tensor.data, training=False)
        np.testing.assert_allclose(probs_cached, probs_full, atol=1e-6)

    def test_transfer_beats_scratch_on_shared_structure(self):
        # source trained on one condition; covert copy shares the code
        source_tensor = toy_tensor(seed=1)
        model = small_model()
        train_model(
            model,
            source_tensor.data,
            source_tensor.labels,
            TrainConfig(learning_rate=3e-3, max_epochs=30, validation_fraction=0.0),
            seed=1,
        )
        covert = toy_tensor(seed=2, scale=1.4)
        result = fine_tune(
            model, covert, budget=0.3, test_fraction=0.2,
            config=TrainConfig(learning_rate=3e-3, max_epochs=15), seed=3,
        )
        assert result.accuracy >= 0.8
        assert result.n_finetune == 30
        assert result.n_test == 20

    def test_reinit_head_differs_from_warm_start(self):
        model = small_model()
        tensor = toy_tensor()
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=2)
        warm = fine_tune(model, tensor, 0.3, 0.2, cfg, seed=4, reinit_head=False)
        cold = fine_tune(model, tensor, 0.3, 0.2, cfg, seed=4, reinit_head=True)
        assert not np.array_equal(
            warm.model.layers[2].params["w"], cold.model.layers[2].params["w"]
        )


class TestTransferPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransferPlan(budgets=(0.3, 0.2))
        with pytest.raises(ValueError):
            TransferPlan(budgets=(0.9,), test_fraction=0.2)
        with pytest.raises(ValueError):
            TransferPlan(budgets=())
        plan = TransferPlan()
        assert plan.budgets == (0.15, 0.20, 0.25, 0.30)


class TestTransferSweep:
    def test_bookkeeping_counts(self):
        tensor = toy_tensor(n_per_class=20)
        model = small_model(seed=9)
        plan = TransferPlan(budgets=(0.15, 0.25), seeds=(0, 1, 2), fine_tune_max_epochs=3)
        payload = transfer_sweep(
            plan,
            tensor,
            source_model=model,
            train_config=TrainConfig(max_epochs=3),
            include_scratch_baseline=False,
        )
        assert len(payload["runs"]) == 2 * 3
        assert len(payload["summary"]) == 2
        assert payload["budget_t_tests"]["family_size"] == 1
        for run in payload["runs"]:
            assert run["recurrent_hash_before"] == run["recurrent_hash_after"]

    def test_single_cell_plan(self):
        tensor = toy_tensor(n_per_class=20)
        model = small_model(seed=10)
        plan = TransferPlan(budgets=(0.15,), seeds=(0,), fine_tune_max_epochs=2)
        payload = transfer_sweep(
            plan,
            tensor,
            source_model=model,
            train_config=TrainConfig(max_epochs=2),
            include_scratch_baseline=False,
        )
        assert len(payload["runs"]) == 1
        assert "budget_t_tests" not in payload

    def test_scratch_baselines_present_when_requested(self):
        tensor = toy_tensor(n_per_class=12, t_len=8)
        model = small_model(seed=11)
        plan = TransferPlan(budgets=(0.3,), seeds=(0, 1), fine_tune_max_epochs=2)
        payload = transfer_sweep(
            plan,
            tensor,
            source_model=model,
            train_config=TrainConfig(max_epochs=2, validation_fraction=0.0),
            include_scratch_baseline=True,
        )
        for run in payload["runs"]:
            assert "scratch_accuracy" in run
        assert "transfer_vs_scratch_t_tests" in payload
        assert "scratch_mean" in payload["summary"][0]

    def test_scratch_baselines_match_sequential_reference(self):
        # 3 seeds x 3 budgets of 25 trials: fine-tune sets of 5, 10 and 15
        # trials give unequal batch schedules; validation and early stopping on
        tensor = toy_tensor(n_per_class=5, t_len=6)
        model = small_model(seed=13)
        plan = TransferPlan(budgets=(0.2, 0.4, 0.6), seeds=(0, 1, 2), fine_tune_max_epochs=2)
        config = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=6, patience=2,
                             validation_fraction=0.2)
        payload = transfer_sweep(plan, tensor, source_model=model, train_config=config)
        expected = reference_scratch_payload(plan, tensor, model, config)
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_pairwise_family_size_six_for_four_budgets(self):
        tensor = toy_tensor(n_per_class=20, t_len=6)
        model = small_model(seed=12)
        plan = TransferPlan(seeds=(0, 1), fine_tune_max_epochs=1)
        payload = transfer_sweep(
            plan,
            tensor,
            source_model=model,
            train_config=TrainConfig(max_epochs=1),
            include_scratch_baseline=False,
        )
        assert payload["budget_t_tests"]["family_size"] == 6
        for test in payload["budget_t_tests"]["tests"]:
            assert test["p_corrected"] >= test["p_raw"]
            assert test["p_corrected"] <= 1.0
