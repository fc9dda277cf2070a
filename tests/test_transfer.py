"""Freeze contract, budget nesting, fine-tuning, and the sweep bookkeeping."""

import copy
import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from covert_decode import transfer
from covert_decode.containers import Condition, FeatureTensor
from covert_decode.errors import DataError
from covert_decode.network import (
    RECURRENT_KINDS,
    RecurrentModel,
    _dropout_mask,
    build_model,
    classifier_specs,
    cross_entropy_mean,
    softmax,
)
from covert_decode.optim import adam_step, init_adam
from covert_decode.rng import substream
from covert_decode.evaluation import bonferroni, paired_t_test
from covert_decode.training import TrainConfig, evaluate_accuracy, train_model
from covert_decode.transfer import (
    TransferPlan,
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


def frozen_copy(model):
    """A deep copy of ``model`` with every recurrent layer frozen."""
    model = copy.deepcopy(model)
    for i, spec in enumerate(model.specs):
        if spec.kind in RECURRENT_KINDS:
            model.set_frozen(i, True)
    return model


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


def reference_fine_tune(frozen, covert, finetune_idx, test_idx, config, seed, reinit_head,
                        cached):
    """One transfer cell as it was computed before heads became fits of
    train_models: a copy of the frozen source whose dense head trains on
    the cached features in a minibatch loop of its own. Frozen as the oracle
    for the heads. Returns (model, test accuracy)."""
    model = frozen_copy(frozen)
    i = [spec.kind for spec in model.specs].index("dense")
    head_dropout = model.specs[i - 1].dropout_rate if i > 0 else 0.0
    w, b = model.layers[i].params["w"], model.layers[i].params["b"]
    if reinit_head:
        rng = substream(seed, "head_reinit")
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
        b[...] = 0.0
    params = {"w": w, "b": b}
    state = init_adam(params, learning_rate=config.learning_rate, beta1=config.beta1,
                      beta2=config.beta2, epsilon=config.epsilon)
    shuffle_rng, dropout_rng = substream(seed, "shuffle"), substream(seed, "dropout")
    x, y = cached[finetune_idx], covert.labels[finetune_idx]
    for _ in range(config.max_epochs):
        order = shuffle_rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = x[idx]
            if head_dropout > 0.0:
                xb = xb * _dropout_mask(xb.shape, head_dropout, dropout_rng, xb.dtype)
            probs = softmax(xb @ w + b)
            assert np.isfinite(cross_entropy_mean(probs, y[idx]))
            d = probs.astype(w.dtype, copy=True)
            d[np.arange(len(idx)), y[idx]] -= 1.0
            d /= len(idx)
            adam_step(params, {"w": xb.T @ d, "b": d.sum(axis=0)}, state)
    probs = softmax(cached[test_idx] @ w + b)
    return model, float((probs.argmax(axis=1) == covert.labels[test_idx]).mean())


def reference_transfer_payload(plan, covert, source, config):
    """The sweep payload without scratch baselines, one reference_fine_tune
    per (seed, budget) cell."""
    frozen = frozen_copy(source)
    cached = head_input_features(frozen, covert.data, config.batch_size)
    ft_config = replace(config, max_epochs=plan.fine_tune_max_epochs, patience=0,
                        validation_fraction=0.0)
    runs = []
    for seed in plan.seeds:
        test_idx, budget_sets = nested_budget_indices(covert.labels, plan.budgets,
                                                      plan.test_fraction, seed)
        for budget in plan.budgets:
            model, accuracy = reference_fine_tune(frozen, covert, budget_sets[budget], test_idx,
                                                  ft_config, seed, plan.reinit_head, cached)
            runs.append({"budget": budget, "seed": seed, "transfer_accuracy": accuracy,
                         "n_finetune": int(budget_sets[budget].size),
                         "n_test": int(test_idx.size),
                         "recurrent_hash_before": frozen.recurrent_param_hash(),
                         "recurrent_hash_after": model.recurrent_param_hash()})
    summary = []
    for budget in plan.budgets:
        accs = [r["transfer_accuracy"] for r in runs if r["budget"] == budget]
        summary.append({"budget": budget, "transfer_mean": float(np.mean(accs)),
                        "transfer_stdev": float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0})
    payload = {"budgets": list(plan.budgets), "seeds": list(plan.seeds), "runs": runs,
               "summary": summary}
    if len(plan.seeds) >= 2 and len(plan.budgets) >= 2:
        tests = []
        for b1, b2 in combinations(plan.budgets, 2):
            t, p = paired_t_test([r["transfer_accuracy"] for r in runs if r["budget"] == b1],
                                 [r["transfer_accuracy"] for r in runs if r["budget"] == b2])
            tests.append({"budget_a": b1, "budget_b": b2, "t": t, "p_raw": p})
        for test, p_corr in zip(tests, bonferroni([t["p_raw"] for t in tests], len(tests))):
            test["p_corrected"] = p_corr
        payload["budget_t_tests"] = {"family_size": len(tests), "tests": tests}
    return payload


@pytest.fixture
def trained_heads(monkeypatch):
    """The models given to each transfer.train_models call, one list per
    call; the real train_models then trains them."""
    calls = []
    real = transfer.train_models

    def recording(models, *args, **kwargs):
        calls.append(list(models))
        return real(models, *args, **kwargs)

    monkeypatch.setattr(transfer, "train_models", recording)
    return calls


def one_cell_sweep(source, covert, config, seed, reinit_head=False):
    """A sweep of one budget (0.3) and one seed without scratch baselines,
    its heads fine-tuned for ``config.max_epochs``."""
    plan = TransferPlan(budgets=(0.3,), test_fraction=0.2, seeds=(seed,),
                        reinit_head=reinit_head, fine_tune_max_epochs=config.max_epochs)
    return transfer_sweep(plan, covert, source_model=source, train_config=config,
                          include_scratch_baseline=False)


def small_model(n_features=6, seed=0):
    specs = classifier_specs(
        "bilstm", n_features, hidden=(6, 4), dropout=(0.2, 0.1), n_classes=5
    )
    return build_model(specs, seed=seed)


class TestFreeze:
    def test_adam_state_covers_head_only(self):
        model = small_model()
        model.set_frozen(0, True)
        model.set_frozen(1, True)
        state = init_adam(model.trainable_params())
        assert set(state.m) == {"layer2.b", "layer2.w"}

    def test_recurrent_unchanged_after_fine_tune_steps(self):
        model = small_model()
        plan = TransferPlan(budgets=(0.15, 0.3), seeds=(0, 1), fine_tune_max_epochs=10)
        payload = transfer_sweep(plan, toy_tensor(), source_model=model,
                                 train_config=TrainConfig(learning_rate=3e-3),
                                 include_scratch_baseline=False)
        for run in payload["runs"]:
            assert run["recurrent_hash_before"] == model.recurrent_param_hash()
            assert run["recurrent_hash_after"] == model.recurrent_param_hash()

    def test_dense_changes_under_fine_tune(self, trained_heads, monkeypatch):
        model = small_model()
        before = [(k, v.copy()) for k, v in model.param_blocks()]
        flags = model.freeze_flags()

        def deepcopy(self, memo):
            raise AssertionError("the sweep copied a model")

        # the sweep hashes the source itself; a copy at paper width is 20 MiB
        monkeypatch.setattr(RecurrentModel, "__deepcopy__", deepcopy, raising=False)
        one_cell_sweep(model, toy_tensor(), TrainConfig(learning_rate=3e-3, max_epochs=5),
                       seed=0)
        ((head,),) = trained_heads
        assert not np.array_equal(head.layers[1].params["w"], model.layers[2].params["w"])
        # the caller's source is untouched: every parameter and freeze flag
        assert model.freeze_flags() == flags
        assert [k for k, _ in model.param_blocks()] == [k for k, _ in before]
        for (_, got), (_, want) in zip(model.param_blocks(), before):
            np.testing.assert_array_equal(got, want)


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
        model = small_model()
        tensor = toy_tensor(n_per_class=4)
        cached = head_input_features(model, tensor.data, batch_size=8)
        dense = model.layers[2]
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
        payload = one_cell_sweep(model, covert, TrainConfig(learning_rate=3e-3, max_epochs=15),
                                 seed=3)
        (run,) = payload["runs"]
        assert run["transfer_accuracy"] >= 0.8
        assert run["n_finetune"] == 30
        assert run["n_test"] == 20

    def test_reinit_head_differs_from_warm_start(self, trained_heads):
        model = small_model()
        tensor = toy_tensor()
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=2)
        one_cell_sweep(model, tensor, cfg, seed=4, reinit_head=False)
        one_cell_sweep(model, tensor, cfg, seed=4, reinit_head=True)
        (warm,), (cold,) = trained_heads
        assert not np.array_equal(warm.layers[1].params["w"], cold.layers[1].params["w"])


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

    def test_set_too_small_for_a_budget_fails_before_the_body_pass(self, monkeypatch):
        # 2 trials per class: one goes to the test set, budget 0.8 needs both
        tensor = toy_tensor(n_per_class=2, t_len=4)

        def body_pass(*args, **kwargs):
            raise AssertionError("the body ran before the grid was drawn")

        monkeypatch.setattr(transfer, "head_input_features", body_pass)
        plan = TransferPlan(budgets=(0.5, 0.8), seeds=(0, 1), fine_tune_max_epochs=1)
        with pytest.raises(DataError, match="budget 0.8 needs 2 trials of class 0"):
            transfer_sweep(plan, tensor, source_model=small_model(seed=14),
                           train_config=TrainConfig(), include_scratch_baseline=False)

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


class TestHeadsMatchReference:
    """Heads trained as lockstep fits of train_models are bit-identical to
    the frozen per-cell head loop (reference_fine_tune)."""

    @staticmethod
    def source(kind, head_dropout):
        # seed 21 is no sweep seed, so a mask drawn from the head's rng_seed
        # instead of the sweep seed would show
        specs = classifier_specs(kind, 6, hidden=(5, 4), dropout=(0.2, head_dropout),
                                 n_classes=5)
        return build_model(specs, seed=21)

    @pytest.mark.parametrize("kind", ["bilstm", "gru"])
    @pytest.mark.parametrize("head_dropout", [0.0, 0.2])
    @pytest.mark.parametrize("reinit_head", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_sweep_payload(self, kind, head_dropout, reinit_head, batch_size):
        # fine-tune sets of 8 and 20 trials: unequal budgets in one call
        covert = toy_tensor(n_per_class=8, t_len=5)
        source = self.source(kind, head_dropout)
        plan = TransferPlan(budgets=(0.2, 0.5), seeds=(3, 4), reinit_head=reinit_head,
                            fine_tune_max_epochs=3)
        config = TrainConfig(learning_rate=1e-2, batch_size=batch_size, max_epochs=9)
        payload = transfer_sweep(plan, covert, source_model=source, train_config=config,
                                 include_scratch_baseline=False)
        expected = reference_transfer_payload(plan, covert, source, config)
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_one_trial_budget(self):
        # one class of 10 trials: budget 0.1 fine-tunes on a single trial
        covert = toy_tensor(n_per_class=10, t_len=5, n_classes=1)
        source = self.source("bilstm", 0.2)
        plan = TransferPlan(budgets=(0.1, 0.3), seeds=(0, 1), fine_tune_max_epochs=4)
        config = TrainConfig(learning_rate=1e-2, batch_size=4)
        payload = transfer_sweep(plan, covert, source_model=source, train_config=config,
                                 include_scratch_baseline=False)
        assert [run["n_finetune"] for run in payload["runs"]] == [1, 3, 1, 3]
        expected = reference_transfer_payload(plan, covert, source, config)
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("kind", ["bilstm", "gru"])
    @pytest.mark.parametrize("reinit_head", [False, True])
    def test_fine_tune_weights(self, kind, reinit_head, trained_heads):
        covert = toy_tensor(n_per_class=8, t_len=5)
        source = self.source(kind, 0.2)
        plan = TransferPlan(budgets=(0.3, 0.5), seeds=(5, 6), reinit_head=reinit_head,
                            fine_tune_max_epochs=3)
        config = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=9)
        payload = transfer_sweep(plan, covert, source_model=source, train_config=config,
                                 include_scratch_baseline=False)
        (heads,) = trained_heads
        frozen = frozen_copy(source)
        cached = head_input_features(frozen, covert.data, config.batch_size)
        ft_config = replace(config, max_epochs=3, patience=0, validation_fraction=0.0)
        cells = [(seed, budget) for seed in plan.seeds for budget in plan.budgets]
        assert len(heads) == len(payload["runs"]) == len(cells)
        for head, run, (seed, budget) in zip(heads, payload["runs"], cells):
            test_idx, budget_sets = nested_budget_indices(covert.labels, plan.budgets, 0.2, seed)
            model, accuracy = reference_fine_tune(frozen, covert, budget_sets[budget], test_idx,
                                                  ft_config, seed, reinit_head, cached)
            assert run["transfer_accuracy"] == accuracy
            for key in ("w", "b"):
                np.testing.assert_array_equal(head.layers[1].params[key],
                                              model.layers[2].params[key])
            assert run["recurrent_hash_after"] == model.recurrent_param_hash()
            assert run["recurrent_hash_after"] == source.recurrent_param_hash()
