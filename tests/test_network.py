"""Cells, layers, model construction, and BPTT gradient correctness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_decode import network, threads
from covert_decode.network import (
    DenseLayer,
    LayerSpec,
    RecurrentLayer,
    RecurrentModel,
    _dropout_mask,
    backward_models,
    build_model,
    classifier_specs,
    cross_entropy_mean,
    forward_models,
    init_params,
    param_shapes,
    sigmoid,
    softmax,
    validate_chain,
)
from covert_decode.rng import substream

# ---------------------------------------------------------------------------
# one-step cells, the head and dropout written out directly: tolerance
# references for the layers and the training pass


def lstm_step(x_t, h_prev, c_prev, params):
    """One LSTM step. ``params`` maps wx (D,4H), wh (H,4H), b (4H,)."""
    x_t, h_prev, c_prev = np.asarray(x_t), np.asarray(h_prev), np.asarray(c_prev)
    z = x_t @ params["wx"] + h_prev @ params["wh"] + params["b"]
    h_size = z.shape[-1] // 4
    i = sigmoid(z[..., :h_size])
    f = sigmoid(z[..., h_size : 2 * h_size])
    o = sigmoid(z[..., 2 * h_size : 3 * h_size])
    g = np.tanh(z[..., 3 * h_size :])
    c = f * c_prev + i * g
    return o * np.tanh(c), c


def gru_step(x_t, h_prev, params):
    """One GRU step: update/reset gates, then the candidate blended by update.

    h_t = (1 - z) * h_prev + z * tanh(x wx_n + (r * h_prev) wh_n + b_n)
    """
    x_t, h_prev = np.asarray(x_t), np.asarray(h_prev)
    h_size = h_prev.shape[-1]
    zx = x_t @ params["wx"] + params["b"]
    z_zr = zx[..., : 2 * h_size] + h_prev @ params["wh"][:, : 2 * h_size]
    z = sigmoid(z_zr[..., :h_size])
    r = sigmoid(z_zr[..., h_size:])
    n = np.tanh(zx[..., 2 * h_size :] + (r * h_prev) @ params["wh"][:, 2 * h_size :])
    return (1.0 - z) * h_prev + z * n


def dense_softmax_forward(h, w, b) -> np.ndarray:
    """Dense projection followed by softmax; rows sum to 1."""
    return softmax(np.asarray(h) @ w + b)


def cross_entropy(probs, label) -> float:
    """Negative log probability of the true label (probabilities clamped at 1e-12)."""
    p = np.asarray(probs, dtype=np.float64)
    return float(-np.log(max(float(p[int(label)]), 1e-12)))


def dropout_apply(x, rate: float, mode: str = "train", rng=None):
    """Inverted dropout: zero with probability ``rate``, scale survivors.

    Eval mode (and rate 0) is the identity; expected value is preserved in
    train mode, so no rescaling happens at inference.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must lie in [0, 1), got {rate}")
    x = np.asarray(x)
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    return x * _dropout_mask(x.shape, rate, rng, x.dtype)


def lstm_reference(x, h, c, wx, wh, b):
    """Scalar-formula oracle for one LSTM step (gate order i, f, o, g)."""
    z = x @ wx + h @ wh + b
    hs = h.shape[-1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(z[..., :hs])
    f = sig(z[..., hs : 2 * hs])
    o = sig(z[..., 2 * hs : 3 * hs])
    g = np.tanh(z[..., 3 * hs :])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def gru_reference(x, h, wx, wh, b):
    """Scalar-formula oracle for one GRU step (gate order z, r, candidate)."""
    hs = h.shape[-1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    zx = x @ wx + b
    z = sig(zx[..., :hs] + h @ wh[:, :hs])
    r = sig(zx[..., hs : 2 * hs] + h @ wh[:, hs : 2 * hs])
    n = np.tanh(zx[..., 2 * hs :] + (r * h) @ wh[:, 2 * hs :])
    return (1.0 - z) * h + z * n


def random_lstm_params(rng, d, h):
    return {
        "wx": rng.standard_normal((d, 4 * h)),
        "wh": rng.standard_normal((h, 4 * h)),
        "b": rng.standard_normal(4 * h),
    }


def random_gru_params(rng, d, h):
    return {
        "wx": rng.standard_normal((d, 3 * h)),
        "wh": rng.standard_normal((h, 3 * h)),
        "b": rng.standard_normal(3 * h),
    }


class TestSigmoid:
    def test_matches_the_clipped_formula_bit_for_bit(self):
        # the scan oracles call this sigmoid too, so its bits are pinned here
        edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, 30.0, -30.0, 30.000002, -30.000002,
                 88.0, 95.0, -95.0, 1e30, -1e30]
        for dtype in (np.float32, np.float64):
            x = np.concatenate([edges, 40 * np.random.default_rng(0).standard_normal(10000)])
            x = x.astype(dtype)
            want = 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
            np.testing.assert_array_equal(sigmoid(x), want)
            out = x.copy()
            assert sigmoid(out, out=out) is out
            np.testing.assert_array_equal(out, want)


class TestLstmStep:
    def test_zero_parameters_zero_output(self):
        params = {"wx": np.zeros((3, 8)), "wh": np.zeros((2, 8)), "b": np.zeros(8)}
        h, c = lstm_step(np.ones(3), np.ones(2), np.zeros(2), params)
        np.testing.assert_allclose(h, 0.0, atol=1e-15)  # o=0.5, tanh(c)=0
        np.testing.assert_allclose(c, 0.0, atol=1e-15)
        # nonzero cell state halves: f = 0.5, candidate contributes nothing
        _, c2 = lstm_step(np.ones(3), np.ones(2), np.ones(2), params)
        np.testing.assert_allclose(c2, 0.5, atol=1e-15)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(0)
        params = random_lstm_params(rng, 2, 2)
        x, h, c = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
        h_new, c_new = lstm_step(x, h, c, params)
        h_ref, c_ref = lstm_reference(x, h, c, params["wx"], params["wh"], params["b"])
        np.testing.assert_allclose(h_new, h_ref, atol=1e-12)
        np.testing.assert_allclose(c_new, c_ref, atol=1e-12)

    def test_large_forget_bias_preserves_cell(self):
        params = {"wx": np.zeros((2, 8)), "wh": np.zeros((2, 8)), "b": np.zeros(8)}
        params["b"][2:4] = 10.0  # forget gate block
        c_prev = np.array([0.7, -1.2])
        _, c = lstm_step(np.ones(2), np.zeros(2), c_prev, params)
        np.testing.assert_allclose(c, c_prev, atol=1e-4)

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(1)
        params = random_lstm_params(rng, 3, 4)
        xb = rng.standard_normal((5, 3))
        hb = rng.standard_normal((5, 4))
        cb = rng.standard_normal((5, 4))
        h_all, c_all = lstm_step(xb, hb, cb, params)
        for i in range(5):
            h_i, c_i = lstm_step(xb[i], hb[i], cb[i], params)
            np.testing.assert_allclose(h_all[i], h_i, atol=1e-12)
            np.testing.assert_allclose(c_all[i], c_i, atol=1e-12)


class TestGruStep:
    def test_zero_parameters_halve_state(self):
        params = {"wx": np.zeros((3, 6)), "wh": np.zeros((2, 6)), "b": np.zeros(6)}
        h_prev = np.array([0.8, -0.4])
        h = gru_step(np.ones(3), h_prev, params)
        np.testing.assert_allclose(h, 0.5 * h_prev, atol=1e-15)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(2)
        params = random_gru_params(rng, 2, 2)
        x, h = rng.standard_normal(2), rng.standard_normal(2)
        np.testing.assert_allclose(
            gru_step(x, h, params),
            gru_reference(x, h, params["wx"], params["wh"], params["b"]),
            atol=1e-12,
        )

    def test_update_gate_off_keeps_state(self):
        params = {"wx": np.zeros((2, 6)), "wh": np.zeros((2, 6)), "b": np.zeros(6)}
        params["b"][:2] = -10.0  # update gate z ~ 0
        h_prev = np.array([1.3, -0.2])
        np.testing.assert_allclose(gru_step(np.ones(2), h_prev, params), h_prev, atol=1e-4)


class TestSoftmaxHead:
    def test_uniform_for_zero_logits(self):
        probs = dense_softmax_forward(np.zeros(4), np.zeros((4, 5)), np.zeros(5))
        np.testing.assert_allclose(probs, 0.2, atol=1e-12)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.2])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 57.0), atol=1e-12)

    def test_matches_direct_evaluation(self):
        logits = np.array([1.0, 2.0, 3.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(softmax(logits), expected, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        probs = softmax(rng.standard_normal((20, 7)) * 30)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-100, max_value=100))
    def test_shift_invariance_property(self, shift):
        logits = np.array([0.1, 0.5, -2.0, 3.0])
        np.testing.assert_allclose(softmax(logits + shift), softmax(logits), atol=1e-10)


class TestCrossEntropy:
    def test_certain_prediction_zero_loss(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_five_way(self):
        assert cross_entropy(np.full(5, 0.2), 3) == pytest.approx(np.log(5), abs=1e-12)

    def test_batch_mean_matches_per_sample(self):
        rng = np.random.default_rng(4)
        probs = softmax(rng.standard_normal((10, 5)))
        labels = rng.integers(0, 5, 10)
        per_sample = np.mean([cross_entropy(probs[i], labels[i]) for i in range(10)])
        assert cross_entropy_mean(probs, labels) == pytest.approx(per_sample, abs=1e-12)

    def test_clamped_at_zero_probability(self):
        loss = cross_entropy(np.array([1.0, 0.0]), 1)
        assert loss == pytest.approx(-np.log(1e-12))


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.random.default_rng(5).standard_normal(100)
        np.testing.assert_array_equal(dropout_apply(x, 0.0, "train", substream(0, "d")), x)

    def test_eval_identity(self):
        x = np.random.default_rng(6).standard_normal(100)
        np.testing.assert_array_equal(dropout_apply(x, 0.3, "eval"), x)

    def test_mean_preserved(self):
        x = np.ones(1_000_000)
        out = dropout_apply(x, 0.3, "train", substream(1, "drop"))
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_survivors_scaled(self):
        x = np.ones(1000)
        out = dropout_apply(x, 0.25, "train", substream(2, "drop"))
        nonzero = out[out != 0]
        np.testing.assert_allclose(nonzero, 1.0 / 0.75, atol=1e-12)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            dropout_apply(np.ones(3), 0.3, "predict")


class TestLayerSpecs:
    def test_concat_doubles_width(self):
        spec = LayerSpec("bilstm", 10, 8)
        assert spec.output_size == 16
        assert LayerSpec("bilstm", 10, 8, merge_mode="sum").output_size == 8

    def test_chain_mismatch_detected(self):
        specs = [LayerSpec("bilstm", 10, 8), LayerSpec("dense", 10, 5)]
        with pytest.raises(ValueError, match="expects input"):
            validate_chain(specs)

    def test_build_rejects_mismatch(self):
        with pytest.raises(ValueError):
            build_model([LayerSpec("lstm", 4, 4), LayerSpec("dense", 3, 2)], seed=0)

    def test_classifier_spec_shapes(self):
        specs = classifier_specs("bilstm", 128, hidden=(512, 256), dropout=(0.3, 0.2))
        assert [s.kind for s in specs] == ["bilstm", "bilstm", "dense", "softmax"]
        assert specs[1].input_size == 1024  # concat of 2 x 512
        assert specs[2].input_size == 512  # concat of 2 x 256
        assert specs[0].return_sequences and not specs[1].return_sequences


class TestBuildModel:
    def test_paper_scale_parameter_arithmetic(self):
        specs = classifier_specs("bilstm", 128, hidden=(512, 256), dropout=(0.3, 0.2))
        model = build_model(specs, seed=0)
        # shape arithmetic oracle, per direction: 4*D*H + 4*H*H + 4*H
        layer1 = 2 * (4 * 128 * 512 + 4 * 512 * 512 + 4 * 512)
        layer2 = 2 * (4 * 1024 * 256 + 4 * 256 * 256 + 4 * 256)
        dense = 512 * 5 + 5
        assert model.parameter_count() == layer1 + layer2 + dense

    def test_same_seed_bit_identical(self):
        specs = classifier_specs("bigru", 6, hidden=(5, 4), dropout=(0.1, 0.1), n_classes=3)
        a = build_model(specs, seed=42)
        b = build_model(specs, seed=42)
        for (ka, pa), (kb, pb) in zip(a.param_blocks(), b.param_blocks()):
            assert ka == kb
            np.testing.assert_array_equal(pa, pb)

    def test_different_seed_differs(self):
        specs = classifier_specs("lstm", 6, hidden=(5,), dropout=(0.0,), n_classes=3)
        a = build_model(specs, seed=1)
        b = build_model(specs, seed=2)
        assert any(
            not np.array_equal(pa, pb)
            for (_, pa), (_, pb) in zip(a.param_blocks(), b.param_blocks())
        )

    def test_forget_bias_and_orthogonal_recurrent(self):
        specs = classifier_specs("bilstm", 6, hidden=(8,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=3, dtype=np.float64)
        layer = model.layers[0]
        b = layer.params["fw_b"]
        np.testing.assert_array_equal(b[8:16], 1.0)  # forget block
        np.testing.assert_array_equal(np.delete(b, np.s_[8:16]), 0.0)
        wh = layer.params["fw_wh"]
        for gate in range(4):
            block = wh[:, 8 * gate : 8 * (gate + 1)]
            np.testing.assert_allclose(block.T @ block, np.eye(8), atol=1e-10)


    def test_param_shapes_state_the_layout(self):
        gates = 4 * 512
        assert param_shapes(LayerSpec("bilstm", 128, 512)) == {
            f"{d}_{name}": shape for d in ("fw", "bw")
            for name, shape in (("wx", (128, gates)), ("wh", (512, gates)), ("b", (gates,)))}
        assert param_shapes(LayerSpec("gru", 6, 5)) == {"fw_wx": (6, 15), "fw_wh": (5, 15),
                                                        "fw_b": (15,)}
        assert param_shapes(LayerSpec("dense", 512, 5)) == {"w": (512, 5), "b": (5,)}
        assert param_shapes(LayerSpec("dropout", 5, 5)) == {}
        assert init_params(LayerSpec("softmax", 5, 5), substream(0, "init")) is None

    def test_model_wraps_the_arrays_it_is_given(self):
        # a model is its specs plus one dict of arrays per layer: the layers
        # use those arrays, not copies, and compute in their dtype
        specs = classifier_specs("bigru", 3, hidden=(4,), dropout=(0.1,), n_classes=2)
        params = [init_params(spec, substream(1, "init", i), np.float64)
                  for i, spec in enumerate(specs)]
        model = RecurrentModel(specs, params, rng_seed=1)
        assert model.dtype == np.float64 and model.layers[2] is None
        assert model.layers[0].params["fw_wx"] is params[0]["fw_wx"]
        built = build_model(specs, seed=1, dtype=np.float64)
        for (ka, pa), (kb, pb) in zip(model.param_blocks(), built.param_blocks(), strict=True):
            assert ka == kb
            np.testing.assert_array_equal(pa, pb)

    @pytest.mark.parametrize("layer", [RecurrentLayer, DenseLayer])
    def test_layers_reject_misshapen_arrays(self, layer):
        spec = LayerSpec("gru" if layer is RecurrentLayer else "dense", 3, 4)
        params = init_params(spec, substream(0, "init"))
        params[next(iter(params))] = np.zeros((3, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="parameters"):
            layer(spec, params)


class TestBidirectional:
    def test_palindrome_with_tied_weights(self):
        specs = [LayerSpec("bilstm", 3, 4, return_sequences=True)]
        model = build_model(specs, seed=5, dtype=np.float64)
        layer = model.layers[0]
        for name in ("wx", "wh", "b"):
            layer.params[f"bw_{name}"] = layer.params[f"fw_{name}"].copy()
        rng = np.random.default_rng(6)
        half = rng.standard_normal((1, 4, 3))
        x = np.concatenate([half, half[:, ::-1]], axis=1)  # palindrome, T=8
        out = layer.forward(x)
        fw, bw = out[0, :, :4], out[0, :, 4:]
        np.testing.assert_allclose(fw, bw[::-1], atol=1e-12)

    def test_single_timestep_equals_cell_steps(self):
        specs = [LayerSpec("bilstm", 3, 4, return_sequences=False)]
        model = build_model(specs, seed=7, dtype=np.float64)
        layer = model.layers[0]
        x = np.random.default_rng(8).standard_normal((2, 1, 3))
        out = layer.forward(x)
        for d, direction in enumerate(("fw", "bw")):
            params = {
                "wx": layer.params[f"{direction}_wx"],
                "wh": layer.params[f"{direction}_wh"],
                "b": layer.params[f"{direction}_b"],
            }
            h, _ = lstm_step(x[:, 0], np.zeros((2, 4)), np.zeros((2, 4)), params)
            np.testing.assert_allclose(out[:, 4 * d : 4 * (d + 1)], h, atol=1e-12)

    def test_matches_explicit_cell_composition(self):
        t_len, h_size = 5, 3
        specs = [LayerSpec("bilstm", 2, h_size, return_sequences=True)]
        model = build_model(specs, seed=9, dtype=np.float64)
        layer = model.layers[0]
        x = np.random.default_rng(10).standard_normal((1, t_len, 2))
        out = layer.forward(x)[0]

        def run_direction(direction, seq):
            params = {
                "wx": layer.params[f"{direction}_wx"],
                "wh": layer.params[f"{direction}_wh"],
                "b": layer.params[f"{direction}_b"],
            }
            h = np.zeros(h_size)
            c = np.zeros(h_size)
            states = []
            for t in range(t_len):
                h, c = lstm_step(seq[t], h, c, params)
                states.append(h)
            return np.stack(states)

        fw = run_direction("fw", x[0])
        bw = run_direction("bw", x[0, ::-1])[::-1]
        np.testing.assert_allclose(out[:, :h_size], fw, atol=1e-12)
        np.testing.assert_allclose(out[:, h_size:], bw, atol=1e-12)

    def test_final_state_readout(self):
        specs = [LayerSpec("bigru", 3, 4, return_sequences=False)]
        model = build_model(specs, seed=11, dtype=np.float64)
        layer = model.layers[0]
        x = np.random.default_rng(12).standard_normal((1, 6, 3))
        final = layer.forward(x)
        seq_specs = [LayerSpec("bigru", 3, 4, return_sequences=True)]
        seq_model = build_model(seq_specs, seed=11, dtype=np.float64)
        seq_out = seq_model.layers[0].forward(x)[0]
        np.testing.assert_allclose(final[0, :4], seq_out[-1, :4], atol=1e-12)  # fw at T
        np.testing.assert_allclose(final[0, 4:], seq_out[0, 4:], atol=1e-12)  # bw at t=0


def sampled_gradcheck(model, x, y, n_per_tensor=8, step=1e-5, rng_seed=1):
    """Compare analytic BPTT gradients with central finite differences."""
    probs = model.forward(x, training=True, rng=substream(0, "gc"))
    dlogits = probs.copy()
    dlogits[np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    model.backward(dlogits)
    grads = model.collect_grads()
    params = model.trainable_params()
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    count = 0
    for key in sorted(params):
        flat = params[key].reshape(-1)
        gflat = np.asarray(grads[key]).reshape(-1)
        idx = rng.choice(flat.size, size=min(n_per_tensor, flat.size), replace=False)
        for i in idx:
            original = flat[i]
            flat[i] = original + step
            up = cross_entropy_mean(model.forward(x), y)
            flat[i] = original - step
            down = cross_entropy_mean(model.forward(x), y)
            flat[i] = original
            fd = (up - down) / (2 * step)
            rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
            count += 1
    return worst, count


class TestBackward:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    def test_gradients_match_finite_differences(self, kind):
        specs = classifier_specs(kind, 5, hidden=(4, 3), dropout=(0.0, 0.0), n_classes=3)
        model = build_model(specs, seed=13, dtype=np.float64)
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 6, 5))
        y = np.array([0, 2, 1])
        worst, _ = sampled_gradcheck(model, x, y)
        assert worst < 1e-4

    def test_sum_merge_gradients(self):
        specs = [
            LayerSpec("bilstm", 4, 3, merge_mode="sum", return_sequences=True),
            LayerSpec("bigru", 3, 3, merge_mode="sum", return_sequences=False),
            LayerSpec("dense", 3, 3),
            LayerSpec("softmax", 3, 3),
        ]
        model = build_model(specs, seed=15, dtype=np.float64)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 5, 4))
        y = np.array([1, 2])
        worst, _ = sampled_gradcheck(model, x, y)
        assert worst < 1e-4

    def test_saturated_correct_prediction_zero_gradient(self):
        specs = classifier_specs("lstm", 3, hidden=(4,), dropout=(0.0,), n_classes=2)
        model = build_model(specs, seed=17, dtype=np.float64)
        dense = model.layers[1]
        dense.params["b"][...] = np.array([50.0, -50.0])
        dense.params["w"][...] = 0.0
        x = np.random.default_rng(18).standard_normal((2, 4, 3))
        y = np.array([0, 0])
        probs = model.forward(x, training=True, rng=substream(0, "gc"))
        dlogits = probs.copy()
        dlogits[np.arange(2), y] -= 1.0
        dlogits /= 2
        model.backward(dlogits)
        norms = [np.linalg.norm(g) for g in model.collect_grads().values()]
        assert max(norms) < 1e-8

    def test_duplicated_sample_same_mean_gradient(self):
        specs = classifier_specs("gru", 3, hidden=(4,), dropout=(0.0,), n_classes=3)
        model = build_model(specs, seed=19, dtype=np.float64)
        x = np.random.default_rng(20).standard_normal((1, 5, 3))
        y = np.array([2])

        def grads_for(xb, yb):
            probs = model.forward(xb, training=True, rng=substream(0, "gc"))
            d = probs.copy()
            d[np.arange(len(yb)), yb] -= 1.0
            d /= len(yb)
            model.backward(d)
            out = {k: v.copy() for k, v in model.collect_grads().items()}
            model.zero_grads()
            return out

        single = grads_for(x, y)
        doubled = grads_for(np.concatenate([x, x]), np.concatenate([y, y]))
        for key in single:
            np.testing.assert_allclose(doubled[key], single[key], atol=1e-12)

    def test_frozen_layer_receives_no_gradient(self):
        specs = classifier_specs("lstm", 3, hidden=(4, 3), dropout=(0.0, 0.0), n_classes=2)
        model = build_model(specs, seed=21, dtype=np.float64)
        model.set_frozen(0, True)
        x = np.random.default_rng(22).standard_normal((2, 5, 3))
        y = np.array([0, 1])
        probs = model.forward(x, training=True, rng=substream(0, "gc"))
        d = probs.copy()
        d[np.arange(2), y] -= 1.0
        model.backward(d)
        grads = model.collect_grads()
        assert not any(key.startswith("layer0.") for key in grads)
        assert any(key.startswith("layer1.") for key in grads)

    def test_leading_dropout_layer_trains(self, monkeypatch):
        # a head-only model: the backward walk ends at the dense layer, whose
        # input gradient is never formed, so the dropout below has none to mask
        from covert_decode import training
        from covert_decode.optim import init_adam

        specs = [LayerSpec("dropout", 5, 5, dropout_rate=0.3), LayerSpec("dense", 5, 3),
                 LayerSpec("softmax", 3, 3)]
        model = build_model(specs, seed=23)
        x = np.random.default_rng(24).standard_normal((4, 5)).astype(np.float32)
        y = np.array([0, 2, 1, 2])
        w, b = model.layers[1].params["w"].copy(), model.layers[1].params["b"].copy()
        seen, adam_step = [], training.adam_step

        def recording_adam_step(params, grads, state):
            seen.append({k: g.copy() for k, g in grads.items()})
            return adam_step(params, grads, state)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        state = init_adam(model.trainable_params())
        loss, _ = training.train_step(model, x, y, state, substream(25, "dropout"))

        xm = x * _dropout_mask(x.shape, 0.3, substream(25, "dropout"), np.float32)
        probs = softmax(xm @ w + b)
        d = probs.copy()
        d[np.arange(4), y] -= 1.0
        d /= 4
        assert loss == cross_entropy_mean(probs, y)
        assert sorted(seen[0]) == ["layer1.b", "layer1.w"]
        np.testing.assert_array_equal(seen[0]["layer1.w"], xm.T @ d)
        np.testing.assert_array_equal(seen[0]["layer1.b"], d.sum(axis=0))


class TestForwardDeterminism:
    def test_eval_independent_of_batch_composition(self):
        specs = classifier_specs("bilstm", 4, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3)
        model = build_model(specs, seed=23, dtype=np.float64)
        x = np.random.default_rng(24).standard_normal((6, 7, 4))
        full = model.forward(x, training=False)
        for i in range(6):
            single = model.forward(x[i : i + 1], training=False)
            np.testing.assert_allclose(full[i], single[0], atol=1e-12)

    def test_eval_deterministic(self):
        specs = classifier_specs("gru", 4, hidden=(5,), dropout=(0.5,), n_classes=3)
        model = build_model(specs, seed=25)
        x = np.random.default_rng(26).standard_normal((3, 8, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            model.forward(x, training=False), model.forward(x, training=False)
        )


class TestStackedSlots:
    """Models stacked on the slot axis against the same models run alone."""

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    @pytest.mark.parametrize("merge_mode", ["concat", "sum"])
    @pytest.mark.parametrize("n_batch", [1, 5])
    def test_models_match_one_at_a_time(self, kind, merge_mode, n_batch):
        specs = classifier_specs(kind, 3, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3,
                                 merge_mode=merge_mode)
        stacked = [build_model(specs, seed=s) for s in range(3)]
        alone = [build_model(specs, seed=s) for s in range(3)]
        stacked[1].set_frozen(0, True)
        alone[1].set_frozen(0, True)
        xs = [np.random.default_rng(s).standard_normal((n_batch, 6, 3)).astype(np.float32)
              for s in range(3)]
        probs = forward_models(stacked, xs, training=True,
                               rngs=[substream(s, "drop") for s in range(3)])
        backward_models(stacked, [p - 0.5 for p in probs])
        for s, (model, x, p) in enumerate(zip(alone, xs, probs)):
            q = model.forward(x, training=True, rng=substream(s, "drop"))
            model.backward(q - 0.5)
            assert np.array_equal(p, q)
            ga, gb = stacked[s].collect_grads(), model.collect_grads()
            assert sorted(ga) == sorted(gb)
            for key in ga:
                assert np.array_equal(ga[key], gb[key]), key
        for p, model, x in zip(forward_models(stacked, xs), alone, xs):
            assert np.array_equal(p, model.forward(x))

    def test_backward_needs_the_forward_group(self):
        spec = LayerSpec(kind="lstm", input_size=3, size=4)
        layers = [RecurrentLayer(spec, init_params(spec, substream(s, "init"))) for s in range(3)]
        x = np.zeros((2, 5, 3), dtype=np.float32)
        RecurrentLayer.forward_slots(layers[:2], [x, x], training=True)
        layers[2].forward(x, training=True)
        with pytest.raises(RuntimeError):
            RecurrentLayer.backward_slots(layers[1:], [np.zeros((2, 5, 4))] * 2)

    def test_inputs_of_different_shapes_rejected(self):
        spec = LayerSpec(kind="gru", input_size=3, size=4)
        layers = [RecurrentLayer(spec, init_params(spec, substream(s, "init"))) for s in range(2)]
        with pytest.raises(ValueError):
            RecurrentLayer.forward_slots(
                layers, [np.zeros((2, 5, 3)), np.zeros((3, 5, 3))])


class TestEvalMemory:
    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    def test_eval_forward_peaks_below_one_gate_buffer(self, kind, monkeypatch):
        # an eval pass projects its inputs in blocks of at most EVAL_BLOCK_BYTES
        # and keeps only its state sequence, so a sequence whose gates span
        # 16 such blocks never needs a T-long gate buffer (a 64 KiB block
        # keeps the sequence short)
        monkeypatch.setattr(network, "EVAL_BLOCK_BYTES", 2**16)
        spec = LayerSpec(kind=kind, input_size=8, size=32)
        layer = RecurrentLayer(spec, init_params(spec, substream(0, "init")))
        n_batch = 8
        gate_step = layer.n_dir * n_batch * layer.n_gates * spec.size * 4
        n_time = 16 * network.EVAL_BLOCK_BYTES // gate_step
        gate_buffer = n_time * gate_step
        states = n_time * layer.n_dir * n_batch * spec.size * 4
        x = np.zeros((n_batch, n_time, spec.input_size), dtype=np.float32)
        out, peak = self.traced_forward(layer, x)
        assert out.shape == (n_batch, n_time, spec.output_size)
        assert states <= peak < gate_buffer

    @staticmethod
    def traced_forward(layer, x):
        tracemalloc.start()
        try:
            out = layer.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    @pytest.mark.skipif(threads._blas_thread_calls() is None,
                        reason="numpy's OpenBLAS thread calls not found")
    @pytest.mark.parametrize("kind", ["bilstm", "bigru"])
    def test_two_worker_eval_holds_the_same_blocks(self, kind, monkeypatch):
        # with its directions on two threads, each projects its own slot in
        # blocks of half of EVAL_BLOCK_BYTES, so the pass peaks where the
        # one-thread pass does, give or take a few small per-block input
        # copies and Python objects (a full block per thread would add
        # 256 KiB); the layer returns its final state, so the peak is the
        # state sequence plus the blocks
        monkeypatch.setattr(network, "EVAL_BLOCK_BYTES", 2**18)
        monkeypatch.setattr(network, "SCAN_THREAD_FLOPS", 0)
        spec = LayerSpec(kind=kind, input_size=8, size=32, return_sequences=False)
        layer = RecurrentLayer(spec, init_params(spec, substream(0, "init")))
        x = np.zeros((8, 512, spec.input_size), dtype=np.float32)
        peaks, outs = {}, {}
        for workers in (2, 1, 2):  # the first pass starts the thread pool
            monkeypatch.setattr(threads, "worker_count", lambda n_slots, w=workers: w)
            outs[workers], peaks[workers] = self.traced_forward(layer, x)
        np.testing.assert_array_equal(outs[1], outs[2])
        assert peaks[2] < peaks[1] + network.EVAL_BLOCK_BYTES // 4


class TestBackwardMemory:
    @pytest.mark.parametrize("kind", ["bilstm", "bigru"])
    def test_backward_holds_two_input_sized_arrays(self, kind):
        # a wide input and a narrow layer, so input-sized arrays dominate: the
        # input gradient and one time-major scratch, which takes each
        # direction's input-gradient product and then its input copy for the
        # wx gradient. The weight gradients and state-sized arrays add about
        # a fifth of the input here; a fresh product and a fresh copy per
        # direction, each made while the last was alive, peaked at 4.2x
        spec = LayerSpec(kind, 256, 8)
        layer = RecurrentLayer(spec, init_params(spec, substream(0, "init")))
        x = np.random.default_rng(0).standard_normal((16, 32, 256)).astype(np.float32)
        dout = np.ones_like(layer.forward(x, training=True))
        tracemalloc.start()
        try:
            dx = layer.backward(dout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dx.shape == x.shape
        assert peak < 2.5 * x.nbytes
