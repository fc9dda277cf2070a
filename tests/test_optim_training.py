"""Adam updates and the training loop."""

import tracemalloc

import numpy as np
import pytest

from covert_decode.errors import NumericError
from covert_decode.evaluation import stratified_split
from covert_decode.network import build_model, classifier_specs, cross_entropy_mean
from covert_decode.optim import adam_step, init_adam
from covert_decode.rng import substream
from covert_decode import training
from covert_decode.training import (
    TrainConfig,
    evaluate_accuracy,
    predict,
    predict_models,
    train_model,
    train_models,
)


def adam_scalar_oracle(grads, lr=1e-4, b1=0.9, b2=0.999, eps=1e-8, theta0=0.0):
    """Independent scalar Adam recurrence for frozen-value comparison."""
    m = v = 0.0
    theta = theta0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"w": np.zeros(4)}
        state = init_adam(params, learning_rate=1e-4)
        adam_step(params, {"w": np.ones(4)}, state)
        expected = -1e-4 / (1.0 + 1e-8)
        np.testing.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_zero_gradient_identity(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = init_adam(params)
        before = params["w"].copy()
        adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["w"], before)
        assert state.t == 1

    def test_three_steps_match_scalar_oracle(self):
        grads = [1.0, -1.0, 1.0]
        params = {"w": np.zeros(1)}
        state = init_adam(params, learning_rate=1e-4)
        for g in grads:
            adam_step(params, {"w": np.array([g])}, state)
        expected = adam_scalar_oracle(grads)
        np.testing.assert_allclose(params["w"][0], expected, atol=1e-12)
        assert state.t == 3

    def test_unknown_parameter_rejected(self):
        params = {"w": np.zeros(2)}
        state = init_adam(params)
        with pytest.raises(KeyError):
            adam_step(params, {"nope": np.zeros(2)}, state)

    def test_step_counter_always_advances(self):
        params = {"w": np.zeros(2)}
        state = init_adam(params)
        adam_step(params, {}, state)
        assert state.t == 1

    @staticmethod
    def formula_step(params, grads, state):
        """The update as whole-array expressions, one set of temporaries per key."""
        state.t += 1
        b1, b2 = state.beta1, state.beta2
        bias1, bias2 = 1.0 - b1**state.t, 1.0 - b2**state.t
        for key, grad in grads.items():
            m, v = state.m[key], state.v[key]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            params[key] -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)

    @staticmethod
    def float32_problem(seed):
        rng = np.random.default_rng(seed)
        shapes = {"a": (64, 48), "b": (48,), "c": (3, 5, 7), "d": (200,)}
        params = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        grads = [{k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)).astype(np.float32)
                  for k, s in shapes.items() if k != "c" or step != 1} for step in range(3)]
        return params, grads

    def test_in_place_update_matches_the_formula_bit_for_bit(self):
        params, grads = self.float32_problem(0)
        formula = {k: v.copy() for k, v in params.items()}
        state, formula_state = init_adam(params), init_adam(formula)
        for step_grads in grads:  # "c" has no gradient in the second step
            adam_step(params, step_grads, state)
            self.formula_step(formula, step_grads, formula_state)
        for key in params:
            np.testing.assert_array_equal(params[key], formula[key], err_msg=key)
            np.testing.assert_array_equal(state.m[key], formula_state.m[key], err_msg=key)
            np.testing.assert_array_equal(state.v[key], formula_state.v[key], err_msg=key)

    def test_update_allocates_no_array_per_key(self):
        # eight keys of 256 KiB and one of 512 KiB: the update holds two
        # scratch buffers the size of the largest parameter, whatever the
        # number of keys; one set of temporaries per key held at least four
        # arrays of the key's size at once
        rng = np.random.default_rng(1)
        shapes = {f"k{i}": (256, 256) for i in range(8)} | {"big": (512, 256)}
        params = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        grads = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        state = init_adam(params)
        tracemalloc.start()
        try:
            adam_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = params["big"].nbytes
        assert 2 * largest <= peak < 2 * largest + 2**16


def toy_features(n_per_class=12, t_len=20, n_classes=3, seed=0):
    """Linearly separable sequences: class-coded constant offsets plus noise."""
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls in range(n_classes):
        base = np.zeros((n_per_class, t_len, 4), dtype=np.float32)
        base[:, :, cls % 4] = 2.0
        base += 0.1 * rng.standard_normal(base.shape).astype(np.float32)
        xs.append(base)
        ys.append(np.full(n_per_class, cls))
    return np.concatenate(xs), np.concatenate(ys)


class TestTrainModel:
    def test_learns_separable_toy(self):
        x, y = toy_features()
        specs = classifier_specs("gru", 4, hidden=(8,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=1)
        config = TrainConfig(
            learning_rate=3e-3, batch_size=8, max_epochs=40, validation_fraction=0.0
        )
        result = train_model(model, x, y, config, seed=1)
        assert evaluate_accuracy(model, x, y) >= 0.95
        assert result.epochs_run <= 40

    def test_deterministic_given_seed(self):
        x, y = toy_features()
        specs = classifier_specs("lstm", 4, hidden=(6,), dropout=(0.2,), n_classes=3)
        runs = []
        for _ in range(2):
            model = build_model(specs, seed=2)
            config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=3)
            train_model(model, x, y, config, seed=5)
            runs.append({k: v.copy() for k, v in model.trainable_params().items()})
        for key in runs[0]:
            np.testing.assert_array_equal(runs[0][key], runs[1][key])

    def test_early_stopping_on_plateau(self):
        x, y = toy_features()
        specs = classifier_specs("gru", 4, hidden=(8,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=3)
        config = TrainConfig(
            learning_rate=3e-3,
            batch_size=8,
            max_epochs=60,
            patience=3,
            validation_fraction=0.2,
        )
        result = train_model(model, x, y, config, seed=3)
        # separable toy saturates quickly; the plateau rule must fire
        assert result.epochs_run < 60
        assert result.best_epoch <= result.epochs_run

    def test_non_finite_loss_raises_numeric_error(self):
        x, y = toy_features(n_per_class=4, t_len=6)
        specs = classifier_specs("gru", 4, hidden=(4,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=4)
        model.layers[1].params["w"][...] = np.nan
        config = TrainConfig(max_epochs=1, validation_fraction=0.0)
        with pytest.raises(NumericError):
            train_model(model, x, y, config, seed=0)

    def test_final_partial_batch_kept(self):
        x, y = toy_features(n_per_class=5)  # 15 trials, batch 4 -> last batch of 3
        specs = classifier_specs("gru", 4, hidden=(4,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=6)
        config = TrainConfig(
            learning_rate=1e-3, batch_size=4, max_epochs=1, validation_fraction=0.0
        )
        result = train_model(model, x, y, config, seed=0)
        # running accuracy counted every trial, so the denominator is all 15
        assert result.history[0]["train_accuracy"] * 15 == int(
            result.history[0]["train_accuracy"] * 15
        )

    def test_frozen_layers_unchanged_by_training(self):
        x, y = toy_features(n_per_class=6, t_len=8)
        specs = classifier_specs("lstm", 4, hidden=(5,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=7)
        model.set_frozen(0, True)
        before = model.recurrent_param_hash()
        config = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=3,
                             validation_fraction=0.0)
        train_model(model, x, y, config, seed=1)
        assert model.recurrent_param_hash() == before


# ---------------------------------------------------------------------------
# lockstep training: train_models against sequential train_model calls

KINDS = ("lstm", "gru", "bilstm", "bigru")


def lockstep_specs(kind):
    return classifier_specs(kind, 4, hidden=(5, 3), dropout=(0.2, 0.1), n_classes=3)


def lockstep_data(sizes, t_len=7, seed=0):
    """Class-coded trials plus one overlapping subset per fit, of the given sizes."""
    x, y = toy_features(n_per_class=max(sizes), t_len=t_len, seed=seed)
    order = np.random.default_rng(seed).permutation(len(y))
    return x, y, [order[i : i + n] for i, n in enumerate(sizes)]


def sequential_and_lockstep(kind, x, y, subsets, config, seeds, frozen=()):
    """Train fresh models both ways; returns (sequential, lockstep) pairs."""
    runs = []
    for lockstep in (False, True):
        models = [build_model(lockstep_specs(kind), seed=100 + s) for s in seeds]
        for i in frozen:
            models[i].set_frozen(0, True)
        if lockstep:
            results = train_models(models, x, y, subsets, config, seeds)
        else:
            results = [train_model(m, x[rows], y[rows], config, s)
                       for m, rows, s in zip(models, subsets, seeds)]
        runs.append((models, results))
    return runs


def reference_train_model(model, x, y, config, seed):
    """The one-model training loop as it was before lockstep training, frozen
    as the oracle for train_model: one model.forward/backward per batch, one
    evaluate_accuracy per epoch."""
    x, y = np.asarray(x), np.asarray(y, dtype=np.int64)
    train_idx, val_idx = np.arange(x.shape[0]), np.arange(0)
    if config.validation_fraction > 0.0 and config.patience > 0:
        split = stratified_split(
            y, config.validation_fraction, substream(seed, "val_split"))
        if split[1].size:
            train_idx, val_idx = split
    x_train, y_train = x[train_idx], y[train_idx]
    state = init_adam(model.trainable_params(), learning_rate=config.learning_rate,
                      beta1=config.beta1, beta2=config.beta2, epsilon=config.epsilon)
    shuffle_rng, dropout_rng = substream(seed, "shuffle"), substream(seed, "dropout")
    history, best_val, best_epoch, best_params = [], -1.0, 0, None
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(x_train.shape[0])
        losses, correct = [], 0
        for start in range(0, order.size, config.batch_size):
            rows = order[start : start + config.batch_size]
            probs = model.forward(x_train[rows], training=True, rng=dropout_rng)
            losses.append(cross_entropy_mean(probs, y_train[rows]))
            correct += int((probs.argmax(axis=1) == y_train[rows]).sum())
            dlogits = probs.astype(model.dtype, copy=True)
            dlogits[np.arange(rows.size), y_train[rows]] -= 1.0
            dlogits /= rows.size
            model.backward(dlogits)
            adam_step(model.trainable_params(), model.collect_grads(), state)
            model.zero_grads()
        entry = {"epoch": epoch, "train_loss": float(np.mean(losses)),
                 "train_accuracy": correct / x_train.shape[0]}
        history.append(entry)
        if not val_idx.size:
            best_epoch = epoch
            continue
        entry["val_accuracy"] = evaluate_accuracy(model, x[val_idx], y[val_idx],
                                                  max(config.batch_size, 128))
        if entry["val_accuracy"] > best_val:
            best_val, best_epoch = entry["val_accuracy"], epoch
            best_params = {k: v.copy() for k, v in model.trainable_params().items()}
        elif epoch - best_epoch >= config.patience:
            break
    if best_params is not None:
        for key, value in model.trainable_params().items():
            value[...] = best_params[key]
    return training.TrainResult(epoch, best_epoch, history)


def assert_same_fits(sequential, lockstep):
    for (ma, ra), (mb, rb) in zip(zip(*sequential), zip(*lockstep)):
        blocks_a, blocks_b = ma.param_blocks(), mb.param_blocks()
        assert [k for k, _ in blocks_a] == [k for k, _ in blocks_b]
        for (key, a), (_, b) in zip(blocks_a, blocks_b):
            assert np.array_equal(a, b), key
        assert ra.epochs_run == rb.epochs_run
        assert ra.best_epoch == rb.best_epoch
        assert ra.history == rb.history


class TestTrainModelsMatchesSequential:
    @pytest.mark.parametrize("kind", KINDS)
    def test_train_model_matches_frozen_loop(self, kind):
        # one fit through train_models, against the loop it replaced:
        # validation split, a partial last batch and early stopping
        x, y, (rows,) = lockstep_data((29,), seed=2)
        config = TrainConfig(learning_rate=2e-2, batch_size=8, max_epochs=10, patience=2,
                             validation_fraction=0.25)
        fits = []
        for fit in (train_model, reference_train_model):
            model = build_model(lockstep_specs(kind), seed=9)
            fits.append(([model], [fit(model, x[rows], y[rows], config, 4)]))
        assert_same_fits(*fits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unequal_sizes_and_one_trial_batches(self, kind):
        # batch 4: 9 -> 4,4,1; 13 -> 4,4,4,1 (twice, so two 1-trial batches
        # share a step); 12 -> 4,4,4; 6 -> 4,2; 2 -> 2
        sizes = (9, 13, 12, 6, 13, 2)
        x, y, subsets = lockstep_data(sizes)
        config = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=3,
                             validation_fraction=0.0)
        sequential, lockstep = sequential_and_lockstep(kind, x, y, subsets, config,
                                                       range(len(sizes)))
        assert_same_fits(sequential, lockstep)

    @pytest.mark.parametrize("kind", KINDS)
    def test_early_stopping_at_different_epochs(self, kind):
        # the first fit has one trial per class, so no validation split and
        # all max_epochs; the others stop on their own validation plateaus
        x, y, subsets = lockstep_data((3, 24, 30, 24), seed=1)
        subsets[0] = np.array([np.flatnonzero(y == cls)[0] for cls in range(3)])
        config = TrainConfig(learning_rate=2e-2, batch_size=8, max_epochs=12, patience=2,
                             validation_fraction=0.25)
        sequential, lockstep = sequential_and_lockstep(kind, x, y, subsets, config,
                                                       (5, 6, 7, 8))
        assert_same_fits(sequential, lockstep)
        epochs = [r.epochs_run for r in sequential[1]]
        assert epochs[0] == 12 and len(set(epochs)) > 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_frozen_layer(self, kind):
        x, y, subsets = lockstep_data((10, 10, 11), seed=3)
        config = TrainConfig(learning_rate=1e-2, batch_size=5, max_epochs=2,
                             validation_fraction=0.0)
        sequential, lockstep = sequential_and_lockstep(kind, x, y, subsets, config, (1, 2, 3),
                                                       frozen=(0, 2))
        assert_same_fits(sequential, lockstep)
        fresh = build_model(lockstep_specs(kind), seed=100 + 1).layers[0].params
        for key, value in lockstep[0][0].layers[0].params.items():
            assert np.array_equal(value, fresh[key])

    def test_stack_budget_caps_groups(self, monkeypatch):
        # a one-byte budget trains every fit in a wave of its own
        x, y, subsets = lockstep_data((8, 8, 8), seed=4)
        config = TrainConfig(learning_rate=1e-2, batch_size=4, max_epochs=2,
                             validation_fraction=0.0)
        stacked = sequential_and_lockstep("bilstm", x, y, subsets, config, (1, 2, 3))[1]
        monkeypatch.setattr(training, "STACK_BUDGET_BYTES", 1)
        alone = sequential_and_lockstep("bilstm", x, y, subsets, config, (1, 2, 3))[1]
        assert_same_fits(alone, stacked)

    def test_mixed_architectures_rejected(self):
        x, y, subsets = lockstep_data((6, 6))
        models = [build_model(lockstep_specs("gru"), seed=0),
                  build_model(lockstep_specs("lstm"), seed=0)]
        with pytest.raises(ValueError):
            train_models(models, x, y, subsets, TrainConfig(max_epochs=1), (0, 1))

    def test_predict_models_matches_predict(self):
        x, y, subsets = lockstep_data((40, 37, 5, 40), seed=5)
        models = [build_model(lockstep_specs("bigru"), seed=s) for s in range(4)]
        for labels, model, rows in zip(predict_models(models, x, subsets, 16), models, subsets):
            assert np.array_equal(labels, predict(model, x[rows], 16))


class TestEvalMergeCap:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("hidden", [(5, 3), (64, 16), (24,)])
    @pytest.mark.parametrize("batch_size", [1, 2, 7, 32])
    def test_merged_pass_within_one_training_step(self, kind, hidden, batch_size):
        specs = classifier_specs(kind, 6, hidden=hidden, dropout=(0.0,) * len(hidden))
        model = build_model(specs, seed=0)
        n_time = 50
        k = training._merge_cap(model, batch_size, n_time)
        step = model.scan_bytes(batch_size, n_time, training=True)
        assert k >= 1
        assert model.scan_bytes(k * batch_size, n_time, training=False) <= step
        if batch_size == 1:
            assert k == 1  # one-trial chunks keep their own pass
        else:
            assert k == (7 if kind.endswith("lstm") else 6)
            merged = model.scan_bytes((k + 1) * batch_size, n_time, training=False)
            assert merged > step


class TestZeroTrials:
    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_returns_empty_arrays(self, kind):
        model = build_model(lockstep_specs(kind), seed=0)
        x = np.zeros((0, 7, 4), dtype=np.float32)
        probs = training.predict_proba(model, x)
        labels = predict(model, x)
        assert probs.shape == (0, 3) and probs.dtype == model.dtype
        assert labels.shape == (0,) and labels.dtype.kind == "i"

    def test_empty_subset_among_models(self):
        x, y, subsets = lockstep_data((9, 1), seed=6)
        models = [build_model(lockstep_specs("gru"), seed=s) for s in range(3)]
        labels = predict_models(models, x, subsets + [subsets[0][:0]], 4)
        assert [lab.shape for lab in labels] == [(9,), (1,), (0,)]
        assert np.array_equal(labels[0], predict(models[0], x[subsets[0]], 4))
