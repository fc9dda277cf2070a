"""The recurrent scan and the chunked eval path against frozen references.

The reference functions below are the scan and eval code as they were
before the input projections became slot-major and scan-ready and before
eval chunks were merged: a time-major gate buffer filled from
``flat @ wx + b`` with a transposed copy, one whole-sequence projection per
eval pass, and one eval pass per ``batch_size`` chunk. The live code must
reproduce them bit for bit (``assert_array_equal``), on outputs, on every
gradient and on the probabilities. Those results rest on BLAS giving each
GEMM row the same bits whatever the row count and the thread split (a lone
row excepted), so CI runs this file once more on one OpenBLAS thread.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from covert_decode import network, threads, training
from covert_decode.network import (
    LayerSpec,
    RecurrentLayer,
    _shifted_states,
    build_model,
    classifier_specs,
    init_params,
    sigmoid,
    softmax,
)
from covert_decode.rng import substream
from covert_decode.training import STACK_BUDGET_BYTES, predict, predict_models, predict_proba
from covert_decode.transfer import head_input_features

KINDS = ("lstm", "gru", "bilstm", "bigru")


# ---------------------------------------------------------------------------
# frozen reference: the scan with a time-major (T, slots, B, G*H) gate buffer


def reference_forward_slots(layers, xs, training=False):
    head = layers[0]
    xs = [np.ascontiguousarray(x, dtype=head.dtype) for x in xs]
    n_batch, n_time, d_in = xs[0].shape
    n_dir = head.n_dir
    gh = head.n_gates * head.spec.size
    zx = np.empty((n_time, len(layers) * n_dir, n_batch, gh), dtype=head.dtype)
    for m, (layer, x) in enumerate(zip(layers, xs)):
        flat = x.reshape(-1, d_in)
        for d, direction in enumerate(layer.directions):
            proj = flat @ layer.params[f"{direction}_wx"] + layer.params[f"{direction}_b"]
            proj = proj.reshape(n_batch, n_time, gh)
            if direction == "bw":
                proj = proj[:, ::-1]
            zx[:, m * n_dir + d] = proj.transpose(1, 0, 2)
    wh = np.stack([layer.params[f"{d}_wh"] for layer in layers for d in layer.directions])
    h_stack, scan = reference_scan(head, zx, wh, keep_cache=training)
    outputs = []
    for m, (layer, x) in enumerate(zip(layers, xs)):
        outputs.append(layer._merge(h_stack[:, m * n_dir : (m + 1) * n_dir]))
        if training:
            layer._cache = {"x": x, "scan": scan}
    return outputs


def reference_scan(layer, zx, wh, keep_cache):
    n_time, n_slots, n_batch = zx.shape[:3]
    h_size = layer.spec.size
    dtype = layer.dtype
    state_shape = (n_slots, n_batch, h_size)
    h = np.zeros(state_shape, dtype=dtype)
    h_stack = np.empty((n_time,) + state_shape, dtype=dtype)
    tmp = np.empty(state_shape, dtype=dtype)
    if layer.cell == "lstm":
        three = 3 * h_size
        hw = np.empty(zx.shape[1:], dtype=dtype)
        tc = np.empty(state_shape, dtype=dtype)
        if keep_cache:
            c_stack = np.empty((n_time,) + state_shape, dtype=dtype)
        else:
            c_spare = np.empty(state_shape, dtype=dtype)
        c = np.zeros(state_shape, dtype=dtype)
        for t in range(n_time):
            z = zx[t]
            np.matmul(h, wh, out=hw)
            z += hw
            sigmoid(z[..., :three], out=z[..., :three])
            np.tanh(z[..., three:], out=z[..., three:])
            c_new = c_stack[t] if keep_cache else c_spare
            np.multiply(z[..., h_size : 2 * h_size], c, out=c_new)
            np.multiply(z[..., :h_size], z[..., three:], out=tmp)
            c_new += tmp
            np.tanh(c_new, out=tc)
            h = h_stack[t]
            np.multiply(z[..., 2 * h_size : three], tc, out=h)
            if keep_cache:
                c = c_new
            else:
                c, c_spare = c_new, c
        if not keep_cache:
            return h_stack, {}
        return h_stack, {"wh": wh, "h": h_stack, "act": zx, "c": c_stack}
    two = 2 * h_size
    wh_zr = np.ascontiguousarray(wh[:, :, :two])
    wh_n = np.ascontiguousarray(wh[:, :, two:])
    if keep_cache:
        rh_stack = np.empty((n_time,) + state_shape, dtype=dtype)
    else:
        rh_buf = np.empty(state_shape, dtype=dtype)
    zr_buf = np.empty((n_slots, n_batch, two), dtype=dtype)
    n_buf = np.empty(state_shape, dtype=dtype)
    for t in range(n_time):
        np.matmul(h, wh_zr, out=zr_buf)
        np.add(zr_buf, zx[t][..., :two], out=zr_buf)
        sigmoid(zr_buf, out=zr_buf)
        rh = rh_stack[t] if keep_cache else rh_buf
        np.multiply(zr_buf[..., h_size:], h, out=rh)
        np.matmul(rh, wh_n, out=n_buf)
        n_buf += zx[t][..., two:]
        np.tanh(n_buf, out=n_buf)
        if keep_cache:
            zx[t][..., :two] = zr_buf
            zx[t][..., two:] = n_buf
        h_new = h_stack[t]
        np.subtract(n_buf, h, out=tmp)
        tmp *= zr_buf[..., :h_size]
        np.add(h, tmp, out=h_new)
        h = h_new
    if not keep_cache:
        return h_stack, {}
    return h_stack, {"wh": wh, "h": h_stack, "act": zx, "rh": rh_stack}


def reference_backward_slots(layers, douts, need_input_grad=True):
    head = layers[0]
    scan = head._cache["scan"]
    n_dir = head.n_dir
    dh_out = np.zeros(scan["h"].shape, dtype=head.dtype)
    for m, (layer, dout) in enumerate(zip(layers, douts)):
        layer._route(dout, dh_out[:, m * n_dir : (m + 1) * n_dir])
    dz = reference_scan_backward(head, scan, dh_out)
    dxs = []
    for m, layer in enumerate(layers):
        dxs.append(reference_param_grads(layer, dz, scan, m, need_input_grad))
        layer._cache = None
    return dxs


def reference_param_grads(layer, dz, scan, m, need_input_grad):
    x = layer._cache["x"]
    n_batch, n_time, d_in = x.shape
    h_size = layer.spec.size
    dx = np.zeros_like(x) if need_input_grad else None
    for d, direction in enumerate(layer.directions):
        slot = m * layer.n_dir + d
        dz_flat = np.ascontiguousarray(dz[:, slot]).reshape(-1, dz.shape[-1])
        if need_input_grad:
            wx = layer.params[f"{direction}_wx"]
            dx_d = (dz_flat @ wx.T).reshape(n_time, n_batch, -1).transpose(1, 0, 2)
            if direction == "bw":
                dx += dx_d[:, ::-1]
            else:
                dx += dx_d
        if not layer.frozen:
            seq = x if direction == "fw" else x[:, ::-1]
            seq_t = np.ascontiguousarray(seq.transpose(1, 0, 2))
            layer.grads[f"{direction}_wx"] = seq_t.reshape(-1, d_in).T @ dz_flat
            h_prev = _shifted_states(scan["h"][:, slot])
            if layer.cell == "lstm":
                layer.grads[f"{direction}_wh"] = h_prev.reshape(-1, h_size).T @ dz_flat
            else:
                two = 2 * h_size
                dwh_zr = h_prev.reshape(-1, h_size).T @ dz_flat[:, :two]
                rh = np.ascontiguousarray(scan["rh"][:, slot]).reshape(-1, h_size)
                dwh_n = rh.T @ dz_flat[:, two:]
                layer.grads[f"{direction}_wh"] = np.hstack([dwh_zr, dwh_n])
            layer.grads[f"{direction}_b"] = dz_flat.sum(axis=0)
    return dx


def reference_scan_backward(layer, cache, dh_out):
    h_stack = cache["h"]
    n_time = h_stack.shape[0]
    h_size = layer.spec.size
    dtype = layer.dtype
    state_shape = h_stack.shape[1:]
    wh = cache["wh"]
    dz = cache["act"]
    a = np.empty(dz.shape[1:], dtype=dtype)
    dh_next = np.zeros(state_shape, dtype=dtype)
    tmp = np.empty(state_shape, dtype=dtype)
    if layer.cell == "lstm":
        c_stack = cache["c"]
        tc = np.empty(state_shape, dtype=dtype)
        three = 3 * h_size
        wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
        dc = np.zeros(state_shape, dtype=dtype)
        i = a[..., :h_size]
        f = a[..., h_size : 2 * h_size]
        o = a[..., 2 * h_size : three]
        g = a[..., three:]
        for t in range(n_time - 1, -1, -1):
            dh = dh_out[t]
            dh += dh_next
            np.copyto(a, dz[t])
            np.tanh(c_stack[t], out=tc)
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            tmp *= dh
            tmp *= o
            dc += tmp
            zo = dz[t, ..., 2 * h_size : three]
            np.subtract(1.0, o, out=zo)
            zo *= o
            zo *= dh
            zo *= tc
            zi = dz[t, ..., :h_size]
            np.subtract(1.0, i, out=zi)
            zi *= i
            zi *= dc
            zi *= g
            zf = dz[t, ..., h_size : 2 * h_size]
            if t > 0:
                np.subtract(1.0, f, out=zf)
                zf *= f
                zf *= dc
                zf *= c_stack[t - 1]
            else:
                zf[...] = 0.0
            zg = dz[t, ..., three:]
            np.multiply(g, g, out=zg)
            np.subtract(1.0, zg, out=zg)
            zg *= dc
            zg *= i
            np.matmul(dz[t], wh_t, out=dh_next)
            dc *= f
        return dz
    two = 2 * h_size
    wh_zr_t = np.ascontiguousarray(wh[:, :, :two].transpose(0, 2, 1))
    wh_n_t = np.ascontiguousarray(wh[:, :, two:].transpose(0, 2, 1))
    dh_acc = np.empty(state_shape, dtype=dtype)
    tmp2 = np.empty(state_shape, dtype=dtype)
    zeros_h = np.zeros(state_shape, dtype=dtype)
    z = a[..., :h_size]
    r = a[..., h_size:two]
    n = a[..., two:]
    for t in range(n_time - 1, -1, -1):
        dh = dh_out[t]
        dh += dh_next
        np.copyto(a, dz[t])
        hp = h_stack[t - 1] if t > 0 else zeros_h
        dzp = dz[t, ..., :h_size]
        np.subtract(n, hp, out=dzp)
        dzp *= dh
        np.subtract(1.0, z, out=tmp)
        dzp *= tmp
        dzp *= z
        dan = dz[t, ..., two:]
        np.multiply(n, n, out=dan)
        np.subtract(1.0, dan, out=dan)
        dan *= dh
        dan *= z
        np.multiply(dh, tmp, out=dh_acc)
        np.matmul(dan, wh_n_t, out=tmp2)
        np.multiply(tmp2, r, out=tmp)
        dh_acc += tmp
        np.multiply(tmp2, hp, out=tmp)
        dzr = dz[t, ..., h_size:two]
        np.subtract(1.0, r, out=dzr)
        dzr *= r
        dzr *= tmp
        np.matmul(dz[t, ..., :two], wh_zr_t, out=tmp)
        dh_acc += tmp
        dh_next, dh_acc = dh_acc, dh_next
    return dz


# ---------------------------------------------------------------------------
# frozen reference: one eval pass per batch_size chunk, with the eval scan
# counted as its gate buffer plus its hidden states


def reference_stack_cap(model, n_rows, n_time):
    per_state = 0
    for spec, layer in zip(model.specs, model.layers):
        if isinstance(layer, RecurrentLayer):
            per_state += layer.n_dir * spec.size * (layer.n_gates + 1)
    scan_bytes = n_time * n_rows * per_state * model.dtype.itemsize
    return max(1, STACK_BUDGET_BYTES // max(1, scan_bytes))


def reference_stack_groups(items, sizes, model, n_time):
    by_size = {}
    for item, size in zip(items, sizes):
        by_size.setdefault(size, []).append(item)
    groups = []
    for size, members in by_size.items():
        cap = reference_stack_cap(model, size, n_time)
        groups += [members[i : i + cap] for i in range(0, len(members), cap)]
    return groups


def reference_forward_models(models, xs, upto=None):
    """Eval-mode forward_models over the reference scan."""
    outs = [np.asarray(x, dtype=model.dtype) for model, x in zip(models, xs)]
    for i, spec in enumerate(models[0].specs[:upto]):
        layers = [model.layers[i] for model in models]
        if spec.kind == "softmax":
            outs = [softmax(out) for out in outs]
        elif spec.kind in network.RECURRENT_KINDS:
            outs = reference_forward_slots(layers, outs)
        elif layers[0] is not None:
            outs = [layer.forward(out) for layer, out in zip(layers, outs)]
    return outs


def reference_predict_proba_models(models, x, subsets, batch_size, upto=None):
    chunks = [[] for _ in models]
    for start in range(0, max(len(rows) for rows in subsets), batch_size):
        pending = [j for j, rows in enumerate(subsets) if start < len(rows)]
        sizes = [min(batch_size, len(subsets[j]) - start) for j in pending]
        for group in reference_stack_groups(pending, sizes, models[0], x.shape[1]):
            batch = [x[subsets[j][start : start + batch_size]] for j in group]
            outs = reference_forward_models([models[j] for j in group], batch, upto)
            for j, out in zip(group, outs):
                chunks[j].append(out)
    return [np.concatenate(c, axis=0) for c in chunks]


# ---------------------------------------------------------------------------
# helpers


def twin_layers(kind, n_layers, d_in=3, h=4, seed=0):
    """Two identical sets of ``n_layers`` layers of one spec."""
    spec = LayerSpec(kind=kind, input_size=d_in, size=h)
    return [[RecurrentLayer(spec, init_params(spec, substream(seed + m, "init")))
             for m in range(n_layers)]
            for _ in range(2)]


def inputs(n_layers, n_batch, n_time, d_in=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n_batch, n_time, d_in)).astype(np.float32)
            for _ in range(n_layers)]


# ---------------------------------------------------------------------------
# tests


class TestScanMatchesReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_batch", [1, 5])
    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_training_pass(self, kind, n_batch, n_layers):
        live, ref = twin_layers(kind, n_layers)
        live[-1].frozen = ref[-1].frozen = n_layers > 1  # a frozen slot in the stack
        xs = inputs(n_layers, n_batch, 9)
        out_live = RecurrentLayer.forward_slots(live, xs, training=True)
        out_ref = reference_forward_slots(ref, xs, training=True)
        rng = np.random.default_rng(1)
        douts = [rng.standard_normal(o.shape).astype(np.float32) for o in out_ref]
        for o_live, o_ref in zip(out_live, out_ref):
            assert_array_equal(o_live, o_ref)
        dx_live = RecurrentLayer.backward_slots(live, douts)
        dx_ref = reference_backward_slots(ref, douts)
        for a, b, la, lb in zip(dx_live, dx_ref, live, ref):
            assert_array_equal(a, b)
            assert sorted(la.grads) == sorted(lb.grads)
            assert la.grads or la.frozen
            for key in lb.grads:
                assert_array_equal(la.grads[key], lb.grads[key], err_msg=key)

    @pytest.mark.parametrize("kind", KINDS)
    def test_final_state_and_no_input_grad(self, kind):
        spec = LayerSpec(kind=kind, input_size=3, size=4, merge_mode="sum",
                         return_sequences=False)
        live, ref = [[RecurrentLayer(spec, init_params(spec, substream(7, "init")))]
                     for _ in range(2)]
        xs = inputs(1, 4, 6, seed=2)
        out_live = RecurrentLayer.forward_slots(live, xs, training=True)
        out_ref = reference_forward_slots(ref, xs, training=True)
        assert_array_equal(out_live[0], out_ref[0])
        dout = [np.ones_like(out_ref[0])]
        assert RecurrentLayer.backward_slots(live, dout, need_input_grad=False) == [None]
        reference_backward_slots(ref, dout, need_input_grad=False)
        for key in ref[0].grads:
            assert_array_equal(live[0].grads[key], ref[0].grads[key], err_msg=key)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n_batch", [1, 5])
    @pytest.mark.parametrize("n_layers", [1, 3])
    @pytest.mark.parametrize("block_steps", [1, 3, 4, 11])
    def test_eval_pass_in_blocks(self, monkeypatch, kind, n_batch, n_layers, block_steps):
        # a block target of that many timesteps over T = 11: one-step blocks
        # (two-step ones for a single trial), 2+3+3+3 and 3+4+4 steps, and one
        # block for the whole pass
        live, ref = twin_layers(kind, n_layers, seed=3)
        layer = live[0]
        gate_step = n_layers * layer.n_dir * n_batch * layer.n_gates * layer.spec.size * 4
        monkeypatch.setattr(threads, "BLOCK_BYTES", block_steps * gate_step)
        xs = inputs(n_layers, n_batch, 11, seed=4)
        for a, b in zip(RecurrentLayer.forward_slots(live, xs),
                        reference_forward_slots(ref, xs)):
            assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_trial_eval_projects_with_a_gemm(self, monkeypatch, kind):
        # one trial with a one-step block target: every projection GEMM
        # still gets at least two rows, as the whole-sequence GEMM had; a
        # lone row would go through a GEMV, which rounds differently at this
        # width
        monkeypatch.setattr(threads, "BLOCK_BYTES", 1)
        live, ref = twin_layers(kind, 1, d_in=64, h=32, seed=5)
        xs = inputs(1, 1, 9, d_in=64, seed=6)
        assert_array_equal(RecurrentLayer.forward_slots(live, xs)[0],
                           reference_forward_slots(ref, xs)[0])


def model_pair(kind, seed=0):
    specs = classifier_specs(kind, 3, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3)
    return build_model(specs, seed=seed), build_model(specs, seed=seed)


def trials(n, n_time=7, seed=0):
    return np.random.default_rng(seed).standard_normal((n, n_time, 3)).astype(np.float32)


class TestEvalChunksMatchReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_full_chunks_and_one_trial_tail(self, kind):
        # batch 4: 9 full chunks (merged 7 + 2 for LSTM, 6 + 3 for GRU) and
        # a one-trial partial chunk
        model, ref = model_pair(kind)
        x = trials(37)
        rows = np.arange(37)
        assert training._merge_cap(model, 4, x.shape[1]) in (6, 7)
        assert_array_equal(predict_proba(model, x, 4),
                           reference_predict_proba_models([ref], x, [rows], 4)[0])
        assert_array_equal(predict(model, x, 4),
                           reference_predict_proba_models([ref], x, [rows], 4)[0].argmax(1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacked_models(self, kind):
        pairs = [model_pair(kind, seed=s) for s in range(4)]
        x = trials(60, seed=1)
        order = np.random.default_rng(2).permutation(60)
        subsets = [order[:37], order[5:34], order[:1], order[10:50]]
        live = training._predict_proba_models([p[0] for p in pairs], x, subsets, 4)
        ref = reference_predict_proba_models([p[1] for p in pairs], x, subsets, 4)
        for a, b in zip(live, ref):
            assert_array_equal(a, b)
        labels = predict_models([p[0] for p in pairs], x, subsets, 4)
        for a, b in zip(labels, ref):
            assert_array_equal(a, b.argmax(axis=1))

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_trial_chunks_stay_apart(self, kind):
        model, ref = model_pair(kind, seed=5)
        x = trials(9, seed=3)
        assert training._merge_cap(model, 1, x.shape[1]) == 1
        assert_array_equal(predict_proba(model, x, 1),
                           reference_predict_proba_models([ref], x, [np.arange(9)], 1)[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_head_input_features(self, kind):
        model, ref = model_pair(kind, seed=6)
        x = trials(23, seed=4)
        dense_idx = [spec.kind for spec in model.specs].index("dense")
        assert_array_equal(
            head_input_features(model, x, 2),
            reference_predict_proba_models([ref], x, [np.arange(23)], 2, upto=dense_idx)[0])
