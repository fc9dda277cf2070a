"""Recurrent networks in plain numpy: LSTM/GRU cells, bidirectional layers,
dense softmax head, and full backpropagation through time.

Layout conventions:
  sequences   (batch, time, features)
  LSTM gates  [input, forget, output, candidate] concatenated on the last axis
              (the three sigmoid gates first, so one contiguous expit call
              covers them)
  GRU gates   [update, reset] then the candidate block
Bidirectional layers run an independent pass in each time direction and merge
per timestep (concat doubles the width; sum keeps it). With
``return_sequences=False`` a layer returns the forward pass's final state
merged with the backward pass's state at the first timestep.

Slot axis: the recurrent scan stacks one slot per (model, direction), so
several models of one architecture, each with its own batch of one shared
shape, advance through one scan (``forward_models``/``backward_models``).
Every per-slot GEMM, reduction and RNG draw keeps its one-model shape and
order, so a stacked pass is bit-identical to running the models one by one.
"""

import copy
import hashlib
from dataclasses import dataclass

import numpy as np


def sigmoid(x, out=None):
    """Logistic function built from in-place SIMD ufuncs.

    Inputs are clipped to [-30, 30] first: beyond that the output differs
    from the exact value by < 1e-13, and the clip keeps exp() away from
    overflow warnings and denormal slow paths.
    """
    out = np.clip(x, -30.0, 30.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out

RECURRENT_KINDS = ("lstm", "gru", "bilstm", "bigru")
LAYER_KINDS = RECURRENT_KINDS + ("dense", "dropout", "softmax")


@dataclass
class LayerSpec:
    """Shape-level description of one layer.

    ``size`` is the hidden width for recurrent layers and the output width
    for dense/softmax; dropout layers pass their input through unchanged.
    ``dropout_rate`` on a recurrent layer applies to that layer's output.
    """

    kind: str
    input_size: int
    size: int
    dropout_rate: float = 0.0
    merge_mode: str = "concat"
    return_sequences: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.input_size < 1 or self.size < 1:
            raise ValueError(f"layer sizes must be positive: {self}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.merge_mode not in ("concat", "sum"):
            raise ValueError(f"merge_mode must be concat or sum, got {self.merge_mode!r}")
        if self.kind == "dropout" and self.size != self.input_size:
            raise ValueError("dropout layers cannot change width")

    @property
    def bidirectional(self) -> bool:
        return self.kind in ("bilstm", "bigru")

    @property
    def output_size(self) -> int:
        if self.bidirectional and self.merge_mode == "concat":
            return 2 * self.size
        return self.size

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "input_size": self.input_size,
            "size": self.size,
            "dropout_rate": self.dropout_rate,
            "merge_mode": self.merge_mode,
            "return_sequences": self.return_sequences,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        return cls(**d)


def validate_chain(specs) -> None:
    if not specs:
        raise ValueError("model needs at least one layer")
    for i in range(1, len(specs)):
        want = specs[i - 1].output_size
        got = specs[i].input_size
        if want != got:
            raise ValueError(
                f"layer {i} ({specs[i].kind}) expects input {got} but layer "
                f"{i - 1} ({specs[i - 1].kind}) produces {want}"
            )


def classifier_specs(
    kind: str,
    input_size: int,
    hidden=(512, 256),
    dropout=(0.3, 0.2),
    n_classes: int = 5,
    merge_mode: str = "concat",
):
    """Stacked recurrent classifier: recurrent layers, dense head, softmax."""
    if kind not in RECURRENT_KINDS:
        raise ValueError(f"model kind must be one of {RECURRENT_KINDS}, got {kind!r}")
    if len(dropout) != len(hidden):
        raise ValueError("need one dropout rate per recurrent layer")
    specs = []
    width = input_size
    for i, (h, rate) in enumerate(zip(hidden, dropout)):
        spec = LayerSpec(
            kind=kind,
            input_size=width,
            size=h,
            dropout_rate=rate,
            merge_mode=merge_mode,
            return_sequences=i < len(hidden) - 1,
        )
        specs.append(spec)
        width = spec.output_size
    specs.append(LayerSpec(kind="dense", input_size=width, size=n_classes))
    specs.append(LayerSpec(kind="softmax", input_size=n_classes, size=n_classes))
    validate_chain(specs)
    return specs


# ---------------------------------------------------------------------------
# cell math


def _lstm_gates(z: np.ndarray, c_prev: np.ndarray):
    h_size = z.shape[-1] // 4
    i = sigmoid(z[..., :h_size])
    f = sigmoid(z[..., h_size : 2 * h_size])
    o = sigmoid(z[..., 2 * h_size : 3 * h_size])
    g = np.tanh(z[..., 3 * h_size :])
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, i, f, g, o, tanh_c


def lstm_step(x_t, h_prev, c_prev, params):
    """One LSTM step. ``params`` maps wx (D,4H), wh (H,4H), b (4H,)."""
    x_t, h_prev, c_prev = np.asarray(x_t), np.asarray(h_prev), np.asarray(c_prev)
    z = x_t @ params["wx"] + h_prev @ params["wh"] + params["b"]
    h, c = _lstm_gates(z, c_prev)[:2]
    return h, c


def _gru_gates(z_zr: np.ndarray, zx_n: np.ndarray, h_prev: np.ndarray, wh_n: np.ndarray):
    h_size = z_zr.shape[-1] // 2
    z = sigmoid(z_zr[..., :h_size])
    r = sigmoid(z_zr[..., h_size:])
    rh = r * h_prev
    n = np.tanh(zx_n + rh @ wh_n)
    h = (1.0 - z) * h_prev + z * n
    return h, z, r, n, rh


def gru_step(x_t, h_prev, params):
    """One GRU step: update/reset gates, then the candidate blended by update.

    h_t = (1 - z) * h_prev + z * tanh(x wx_n + (r * h_prev) wh_n + b_n)
    """
    x_t, h_prev = np.asarray(x_t), np.asarray(h_prev)
    h_size = h_prev.shape[-1]
    zx = x_t @ params["wx"] + params["b"]
    z_zr = zx[..., : 2 * h_size] + h_prev @ params["wh"][:, : 2 * h_size]
    return _gru_gates(z_zr, zx[..., 2 * h_size :], h_prev, params["wh"][:, 2 * h_size :])[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def dense_softmax_forward(h, w, b) -> np.ndarray:
    """Dense projection followed by softmax; rows sum to 1."""
    return softmax(np.asarray(h) @ w + b)


def cross_entropy(probs, label) -> float:
    """Negative log probability of the true label (probabilities clamped at 1e-12)."""
    p = np.asarray(probs, dtype=np.float64)
    return float(-np.log(max(float(p[int(label)]), 1e-12)))


def cross_entropy_mean(probs, labels) -> float:
    """Mean cross-entropy of a batch of probability rows."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    picked = np.clip(p[np.arange(p.shape[0]), labels], 1e-12, None)
    return float(-np.log(picked).mean())


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
    mask = _dropout_mask(x.shape, rate, rng, x.dtype)
    return x * mask


def _dropout_mask(shape, rate, rng, dtype):
    dtype = np.dtype(dtype)
    draw_dtype = np.float32 if dtype == np.float32 else np.float64
    mask = rng.random(shape, dtype=draw_dtype) >= rate
    return mask.astype(dtype) / dtype.type(1.0 - rate)


# ---------------------------------------------------------------------------
# layers


class _ParamLayer:
    frozen = False

    def __init__(self):
        self.params = {}
        self.grads = {}

    def param_items(self):
        return sorted(self.params.items())

    def zero_grads(self):
        self.grads = {}


class RecurrentLayer(_ParamLayer):
    """LSTM/GRU layer, optionally bidirectional, with full BPTT.

    The scan runs over *slots*, one per (model, direction): states carry a
    leading slot axis and each step makes one stacked
    (slots, B, H) @ (slots, H, G*H) product. A bidirectional layer therefore
    costs the same number of numpy calls per step as a unidirectional one,
    and so do several independent layers of one spec advanced together by
    :meth:`forward_slots` / :meth:`backward_slots`. Slot ``m * n_dir + d`` is
    direction ``d`` of layer ``m``; direction 0 reads the sequence left to
    right, direction 1 (when present) right to left. Each slot's GEMMs and
    reductions keep the shapes they have for a layer alone, and the
    elementwise math does not depend on array length, so a stacked pass is
    bit-identical to separate passes. ``forward`` and ``backward`` are the
    one-layer case.
    """

    def __init__(self, spec: LayerSpec, rng, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.cell = "lstm" if spec.kind in ("lstm", "bilstm") else "gru"
        self.n_gates = 4 if self.cell == "lstm" else 3
        self.directions = ("fw", "bw") if spec.bidirectional else ("fw",)
        self.n_dir = len(self.directions)
        self.dtype = np.dtype(dtype)
        d, h, g = spec.input_size, spec.size, self.n_gates
        limit = np.sqrt(6.0 / (d + h))
        for direction in self.directions:
            wx = rng.uniform(-limit, limit, size=(d, g * h))
            wh = np.hstack([_orthogonal(h, rng) for _ in range(g)])
            b = np.zeros(g * h)
            if self.cell == "lstm":
                b[h : 2 * h] = 1.0  # forget-gate bias opens the cell path early
            self.params[f"{direction}_wx"] = wx.astype(self.dtype)
            self.params[f"{direction}_wh"] = wh.astype(self.dtype)
            self.params[f"{direction}_b"] = b.astype(self.dtype)
        self._cache = None

    # -- forward

    def forward(self, x: np.ndarray, training: bool = False):
        return RecurrentLayer.forward_slots([self], [x], training)[0]

    @staticmethod
    def forward_slots(layers, xs, training: bool = False):
        """Run layers of one spec, one input each, through a single scan.

        All inputs must share one (B, T, D) shape. Returns each layer's
        output. In training mode every layer keeps its input plus the shared
        scan cache, for one :meth:`backward_slots` call over the same layers.
        """
        head = layers[0]
        xs = [np.ascontiguousarray(x, dtype=head.dtype) for x in xs]
        if any(x.shape != xs[0].shape for x in xs):
            raise ValueError("stacked layers need inputs of one shape")
        n_batch, n_time, d_in = xs[0].shape
        n_dir = head.n_dir
        gh = head.n_gates * head.spec.size

        # input projections: one GEMM per slot, written into the time-major
        # scan buffer
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
        h_stack, scan = head._scan(zx, wh, keep_cache=training)
        outputs = []
        for m, (layer, x) in enumerate(zip(layers, xs)):
            outputs.append(layer._merge(h_stack[:, m * n_dir : (m + 1) * n_dir]))
            if training:
                layer._cache = {"x": x, "scan": scan}
        return outputs

    def _merge(self, h):
        """This layer's output from its slots' states ``h`` (T, n_dir, B, H)."""
        if self.spec.return_sequences:
            fw = h[:, 0].transpose(1, 0, 2)  # (B, T, H)
            bw = h[::-1, -1].transpose(1, 0, 2)
        else:
            # forward final state plus (for bidirectional) the backward
            # pass's state at the first timestep, which is the last one it
            # computed
            fw, bw = h[-1, 0], h[-1, -1]
        if self.n_dir == 1:
            return fw
        if self.spec.merge_mode == "concat":
            return np.concatenate([fw, bw], axis=-1)
        return fw + bw

    def _scan(self, zx, wh, keep_cache: bool):
        # zx is (T, slots, B, G*H), wh (slots, H, G*H). Each step's gate
        # activations overwrite that step's input projections in zx, which
        # the training cache keeps as "act". keep_cache=False (inference)
        # rotates small per-step buffers instead of materializing T-length
        # state stacks; only the state sequence itself is kept
        n_time, n_slots, n_batch = zx.shape[:3]
        h_size = self.spec.size
        state_shape = (n_slots, n_batch, h_size)
        h = np.zeros(state_shape, dtype=self.dtype)
        h_stack = np.empty((n_time,) + state_shape, dtype=self.dtype)
        tmp = np.empty(state_shape, dtype=self.dtype)
        if self.cell == "lstm":
            three = 3 * h_size
            hw = np.empty(zx.shape[1:], dtype=self.dtype)
            tc = np.empty(state_shape, dtype=self.dtype)
            if keep_cache:
                c_stack = np.empty((n_time,) + state_shape, dtype=self.dtype)
            else:
                c_spare = np.empty(state_shape, dtype=self.dtype)
            c = np.zeros(state_shape, dtype=self.dtype)
            for t in range(n_time):
                z = zx[t]
                np.matmul(h, wh, out=hw)
                z += hw
                sigmoid(z[..., :three], out=z[..., :three])
                np.tanh(z[..., three:], out=z[..., three:])
                c_new = c_stack[t] if keep_cache else c_spare
                np.multiply(z[..., h_size : 2 * h_size], c, out=c_new)  # f * c_prev
                np.multiply(z[..., :h_size], z[..., three:], out=tmp)  # i * g
                c_new += tmp
                np.tanh(c_new, out=tc)
                h = h_stack[t]
                np.multiply(z[..., 2 * h_size : three], tc, out=h)  # o * tanh(c)
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
            rh_stack = np.empty((n_time,) + state_shape, dtype=self.dtype)
        else:
            rh_buf = np.empty(state_shape, dtype=self.dtype)
        zr_buf = np.empty((n_slots, n_batch, two), dtype=self.dtype)
        n_buf = np.empty(state_shape, dtype=self.dtype)
        for t in range(n_time):
            np.matmul(h, wh_zr, out=zr_buf)
            np.add(zr_buf, zx[t][..., :two], out=zr_buf)
            sigmoid(zr_buf, out=zr_buf)
            rh = rh_stack[t] if keep_cache else rh_buf
            np.multiply(zr_buf[..., h_size:], h, out=rh)  # r * h_prev
            np.matmul(rh, wh_n, out=n_buf)
            n_buf += zx[t][..., two:]
            np.tanh(n_buf, out=n_buf)
            if keep_cache:
                zx[t][..., :two] = zr_buf
                zx[t][..., two:] = n_buf
            h_new = h_stack[t]
            np.subtract(n_buf, h, out=tmp)
            tmp *= zr_buf[..., :h_size]
            np.add(h, tmp, out=h_new)  # h + z * (n - h_prev)
            h = h_new
        if not keep_cache:
            return h_stack, {}
        return h_stack, {"wh": wh, "h": h_stack, "act": zx, "rh": rh_stack}

    # -- backward

    def backward(self, dout: np.ndarray, need_input_grad: bool = True):
        return RecurrentLayer.backward_slots([self], [dout], need_input_grad)[0]

    @staticmethod
    def backward_slots(layers, douts, need_input_grad: bool = True):
        """BPTT for the layers of one training :meth:`forward_slots` call.

        ``layers`` must be that call's layers in the same order, ``douts``
        their output gradients. Fills each unfrozen layer's ``grads`` and
        returns the input gradients (None when ``need_input_grad`` is false).
        """
        if any(layer._cache is None for layer in layers):
            raise RuntimeError("backward called without a training-mode forward")
        head = layers[0]
        scan = head._cache["scan"]
        n_dir = head.n_dir
        n_time, n_slots, n_batch, h_size = scan["h"].shape
        if n_slots != len(layers) * n_dir or any(
            layer._cache["scan"] is not scan for layer in layers
        ):
            raise RuntimeError("backward_slots needs the layers of one forward_slots call")

        # route each output gradient to its slots' scan clocks
        dh_out = np.zeros(scan["h"].shape, dtype=head.dtype)
        for m, (layer, dout) in enumerate(zip(layers, douts)):
            layer._route(dout, dh_out[:, m * n_dir : (m + 1) * n_dir])

        dz = head._scan_backward(scan, dh_out)
        dxs = []
        for m, layer in enumerate(layers):
            dxs.append(layer._param_grads(dz, scan, m, need_input_grad))
            layer._cache = None
        return dxs

    def _route(self, dout, dh):
        """Write this layer's output gradient into ``dh`` (T, n_dir, B, H), zeroed."""
        h_size = self.spec.size
        if self.n_dir == 2 and self.spec.merge_mode == "concat":
            d_fw, d_bw = dout[..., :h_size], dout[..., h_size:]
        else:
            d_fw = d_bw = dout
        if self.spec.return_sequences:
            dh[:, 0] = d_fw.transpose(1, 0, 2)
            if self.n_dir == 2:
                dh[:, 1] = d_bw.transpose(1, 0, 2)[::-1]
        else:
            dh[-1, 0] = d_fw
            if self.n_dir == 2:
                dh[-1, 1] = d_bw

    def _param_grads(self, dz, scan, m, need_input_grad):
        """Weight gradients and input gradient of layer ``m`` of a stacked scan.

        One GEMM per direction, each over that slot's (T*B) rows only.
        """
        x = self._cache["x"]
        n_batch, n_time, d_in = x.shape
        h_size = self.spec.size
        dx = np.zeros_like(x) if need_input_grad else None
        for d, direction in enumerate(self.directions):
            slot = m * self.n_dir + d
            dz_flat = np.ascontiguousarray(dz[:, slot]).reshape(-1, dz.shape[-1])
            if need_input_grad:
                wx = self.params[f"{direction}_wx"]
                dx_d = (dz_flat @ wx.T).reshape(n_time, n_batch, -1).transpose(1, 0, 2)
                if direction == "bw":
                    dx += dx_d[:, ::-1]
                else:
                    dx += dx_d
            if not self.frozen:
                seq = x if direction == "fw" else x[:, ::-1]
                seq_t = np.ascontiguousarray(seq.transpose(1, 0, 2))
                self.grads[f"{direction}_wx"] = seq_t.reshape(-1, d_in).T @ dz_flat
                h_prev = _shifted_states(scan["h"][:, slot])
                if self.cell == "lstm":
                    self.grads[f"{direction}_wh"] = h_prev.reshape(-1, h_size).T @ dz_flat
                else:
                    two = 2 * h_size
                    dwh_zr = h_prev.reshape(-1, h_size).T @ dz_flat[:, :two]
                    rh = np.ascontiguousarray(scan["rh"][:, slot]).reshape(-1, h_size)
                    dwh_n = rh.T @ dz_flat[:, two:]
                    self.grads[f"{direction}_wh"] = np.hstack([dwh_zr, dwh_n])
                self.grads[f"{direction}_b"] = dz_flat.sum(axis=0)
        return dx

    def _scan_backward(self, cache, dh_out):
        # each step's gate gradients overwrite that step's activations in
        # the cached "act" buffer, read from a one-step copy; returns that
        # buffer, now holding the gate gradients dz (T, slots, B, G*H)
        h_stack = cache["h"]
        n_time = h_stack.shape[0]
        h_size = self.spec.size
        state_shape = h_stack.shape[1:]
        wh = cache["wh"]
        dz = cache["act"]
        a = np.empty(dz.shape[1:], dtype=self.dtype)
        dh_next = np.zeros(state_shape, dtype=self.dtype)
        tmp = np.empty(state_shape, dtype=self.dtype)

        if self.cell == "lstm":
            c_stack = cache["c"]
            tc = np.empty(state_shape, dtype=self.dtype)
            three = 3 * h_size
            wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
            dc = np.zeros(state_shape, dtype=self.dtype)
            i = a[..., :h_size]
            f = a[..., h_size : 2 * h_size]
            o = a[..., 2 * h_size : three]
            g = a[..., three:]
            for t in range(n_time - 1, -1, -1):
                dh = dh_out[t]
                dh += dh_next
                np.copyto(a, dz[t])
                np.tanh(c_stack[t], out=tc)  # recomputed: cheaper than a T-long stack
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
                    zf[...] = 0.0  # c_prev at t=0 is zero
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
        dh_acc = np.empty(state_shape, dtype=self.dtype)
        tmp2 = np.empty(state_shape, dtype=self.dtype)
        zeros_h = np.zeros(state_shape, dtype=self.dtype)
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
            np.multiply(dh, tmp, out=dh_acc)  # direct path: dh * (1 - z)
            np.matmul(dan, wh_n_t, out=tmp2)  # drh
            np.multiply(tmp2, r, out=tmp)
            dh_acc += tmp
            np.multiply(tmp2, hp, out=tmp)  # dr
            dzr = dz[t, ..., h_size:two]
            np.subtract(1.0, r, out=dzr)
            dzr *= r
            dzr *= tmp
            np.matmul(dz[t, ..., :two], wh_zr_t, out=tmp)
            dh_acc += tmp
            dh_next, dh_acc = dh_acc, dh_next
        return dz


def _shifted_states(h):
    """States one step back in time, ``h`` (T, B, H) -> contiguous with zeros at t=0."""
    out = np.empty(h.shape, dtype=h.dtype)
    out[0] = 0.0
    out[1:] = h[:-1]
    return out


class DenseLayer(_ParamLayer):
    def __init__(self, spec: LayerSpec, rng, dtype=np.float32):
        super().__init__()
        self.spec = spec
        self.dtype = np.dtype(dtype)
        limit = np.sqrt(6.0 / (spec.input_size + spec.size))
        self.params["w"] = rng.uniform(-limit, limit, size=(spec.input_size, spec.size)).astype(
            self.dtype
        )
        self.params["b"] = np.zeros(spec.size, dtype=self.dtype)
        self._x = None

    def forward(self, x, training=False):
        x = np.asarray(x, dtype=self.dtype)
        if training:
            self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, dout, need_input_grad: bool = True):
        if self._x is None:
            raise RuntimeError("backward called without a training-mode forward")
        dout = np.asarray(dout, dtype=self.dtype)
        if not self.frozen:
            self.grads["w"] = self._x.T @ dout
            self.grads["b"] = dout.sum(axis=0)
        dx = dout @ self.params["w"].T if need_input_grad else None
        self._x = None
        return dx


def _orthogonal(n: int, rng) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# model


class RecurrentModel:
    """Ordered layer stack with per-layer freeze flags and seeded dropout."""

    def __init__(self, specs, layers, rng_seed: int, dtype=np.float32):
        self.specs = list(specs)
        self.layers = list(layers)  # aligned with specs; None for dropout/softmax
        self.rng_seed = int(rng_seed)
        self.dtype = np.dtype(dtype)
        self._masks = {}

    # -- construction

    @property
    def n_classes(self) -> int:
        return self.specs[-1].size

    @property
    def input_size(self) -> int:
        return self.specs[0].input_size

    def freeze_flags(self):
        return [layer.frozen if layer is not None else False for layer in self.layers]

    def set_frozen(self, index: int, frozen: bool):
        if self.layers[index] is None:
            raise ValueError(f"layer {index} ({self.specs[index].kind}) has no parameters")
        self.layers[index].frozen = bool(frozen)

    def clone(self) -> "RecurrentModel":
        return copy.deepcopy(self)

    # -- inference / training passes

    def forward(self, x: np.ndarray, training: bool = False, rng=None) -> np.ndarray:
        """Class probabilities for a batch. Train mode samples dropout masks."""
        return forward_models([self], [x], training, [rng])[0]

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Backpropagate from the gradient w.r.t. the dense-head logits.

        Softmax and cross-entropy are differentiated jointly by the caller
        (dlogits = (probs - onehot) / batch), which is both simpler and
        numerically safer than chaining through softmax alone.
        """
        return backward_models([self], [dlogits])[0]

    # -- parameter access

    def param_blocks(self):
        """Deterministic (key, array) list over all parameters."""
        blocks = []
        for i, layer in enumerate(self.layers):
            if layer is None:
                continue
            for name, arr in layer.param_items():
                blocks.append((f"layer{i}.{name}", arr))
        return blocks

    def trainable_params(self) -> dict:
        return {
            f"layer{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            if layer is not None and not layer.frozen
            for name, arr in layer.param_items()
        }

    def collect_grads(self) -> dict:
        grads = {}
        for i, layer in enumerate(self.layers):
            if layer is None or layer.frozen:
                continue
            for name, grad in sorted(layer.grads.items()):
                grads[f"layer{i}.{name}"] = grad
        return grads

    def zero_grads(self):
        for layer in self.layers:
            if layer is not None:
                layer.zero_grads()

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.param_blocks())

    def recurrent_param_hash(self) -> str:
        """SHA-256 over the recurrent layers' parameter bytes, in block order."""
        digest = hashlib.sha256()
        for i, (spec, layer) in enumerate(zip(self.specs, self.layers)):
            if spec.kind not in RECURRENT_KINDS:
                continue
            for name, arr in layer.param_items():
                digest.update(f"layer{i}.{name}".encode())
                digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


def forward_models(models, xs, training: bool = False, rngs=None):
    """Class probabilities of models of one architecture, one batch each.

    The models' recurrent layers share one scan per layer
    (:meth:`RecurrentLayer.forward_slots`); dense layers, dropout masks and
    softmax stay per model, and ``rngs`` holds one dropout generator per
    model. The batches must share one shape. A lone model goes through each
    layer's own ``forward``.
    """
    if rngs is None:
        rngs = [None] * len(models)
    outs = [np.asarray(x, dtype=model.dtype) for model, x in zip(models, xs)]
    for model in models:
        model._masks = {}
    for i, spec in enumerate(models[0].specs):
        layers = [model.layers[i] for model in models]
        if spec.kind == "softmax":
            outs = [softmax(out) for out in outs]
            continue
        if spec.kind in RECURRENT_KINDS and len(models) > 1:
            outs = RecurrentLayer.forward_slots(layers, outs, training)
        elif layers[0] is not None:
            outs = [layer.forward(out, training=training) for layer, out in zip(layers, outs)]
        if training and spec.dropout_rate > 0.0:
            for j, (model, rng) in enumerate(zip(models, rngs)):
                if rng is None:
                    raise ValueError("training-mode forward with dropout needs an rng")
                mask = _dropout_mask(outs[j].shape, spec.dropout_rate, rng, model.dtype)
                model._masks[i] = mask
                outs[j] = outs[j] * mask
    return outs


def backward_models(models, dlogits):
    """Backpropagate each model's logit gradient after one training
    :func:`forward_models` call over the same models, in the same order."""
    ds = [np.asarray(d, dtype=model.dtype) for model, d in zip(models, dlogits)]
    head = models[0]
    param_indices = [i for i, layer in enumerate(head.layers) if layer is not None]
    lowest = param_indices[0] if param_indices else -1
    for i in range(len(head.specs) - 1, -1, -1):
        if head.specs[i].kind == "softmax":
            continue
        ds = [d * model._masks[i] if i in model._masks else d for model, d in zip(models, ds)]
        layers = [model.layers[i] for model in models]
        if layers[0] is None:
            continue
        # the bottom parameterized layer has nothing below that needs its
        # input gradient, so skip that GEMM
        need_input_grad = i != lowest
        if head.specs[i].kind in RECURRENT_KINDS and len(models) > 1:
            ds = RecurrentLayer.backward_slots(layers, ds, need_input_grad)
        else:
            ds = [layer.backward(d, need_input_grad=need_input_grad)
                  for layer, d in zip(layers, ds)]
    for model in models:
        model._masks = {}
    return ds


def build_model(specs, seed: int, dtype=np.float32) -> RecurrentModel:
    """Instantiate a model with deterministic, seed-derived initialization.

    Input and dense weights are Glorot-uniform, recurrent weights orthogonal
    per gate, biases zero except the LSTM forget gate (set to 1).
    """
    from .rng import substream

    specs = [s if isinstance(s, LayerSpec) else LayerSpec.from_dict(s) for s in specs]
    validate_chain(specs)
    layers = []
    for i, spec in enumerate(specs):
        rng = substream(seed, "init", i)
        if spec.kind in RECURRENT_KINDS:
            layers.append(RecurrentLayer(spec, rng, dtype=dtype))
        elif spec.kind == "dense":
            layers.append(DenseLayer(spec, rng, dtype=dtype))
        else:
            layers.append(None)
    return RecurrentModel(specs, layers, rng_seed=seed, dtype=dtype)
