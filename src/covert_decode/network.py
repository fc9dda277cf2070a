"""Recurrent networks in plain numpy: LSTM/GRU cells, bidirectional layers,
dense softmax head, and full backpropagation through time.

Layout conventions:
  sequences   (batch, time, features)
  LSTM gates  [input, forget, output, candidate] concatenated on the last axis
  GRU gates   [update, reset] then the candidate block
  parameters  per layer as ``param_shapes`` states them, drawn by ``init_params``
Bidirectional layers run an independent pass in each time direction and merge
per timestep (concat doubles the width; sum keeps it). With
``return_sequences=False`` a layer returns the forward pass's final state
merged with the backward pass's state at the first timestep.

Slot axis: the recurrent scan stacks one slot per (model, direction), so
several models of one architecture, each with its own batch of one shared
shape, advance through one scan (``forward_models``/``backward_models``).
Every per-slot GEMM, reduction and RNG draw keeps its one-model shape and
order, so a stacked pass is bit-identical to running the models one by one.

Scan buffers:
  gate buffer    (slots, T, B, G*H), slot-major: each slot's slab is one
                 contiguous (T*B, G*H) matrix, so its input projection is
                 one GEMM written in place and its weight gradients read
                 it as a view; step t of every slot is ``zx[:, t]``
  states         (T, slots, B, H)
  eval passes    project their inputs ``threads.BLOCK_BYTES`` of gates at a
                 time into one reused block and keep only the state sequence
  step scratch   (G, slots, B, H), gate-major, so each gate is one
                 contiguous (slots, B, H) block: at desk widths an
                 elementwise ufunc over a strided gate slice such as
                 ``z[..., :3*H]`` costs 2-5x the same ufunc over contiguous
                 memory. The LSTM forward scan adds the recurrent product
                 into its scratch, does the step's gate math there and
                 writes the activations back into the gate buffer only in
                 training; the scratch is a scan buffer, sliced per worker.
                 The backward scans copy each step's activations into one
                 scratch and build the gate gradients in a second, which
                 goes back into the gate buffer for the recurrent matmuls.
                 Every element gets the same float32 operations in the same
                 order, so the bits do not change. The GRU forward scan
                 stays slot-major: gate-major, its training steps were no
                 faster

Threads: an eval pass splits a layer's slots into two contiguous groups, one
per thread of the package pool, when one step's recurrent GEMM of one slot
reaches SCAN_THREAD_FLOPS (measured in :mod:`covert_decode.threads`, "Who
splits"); each thread projects its own slots' inputs, in blocks of an equal
share of ``threads.BLOCK_BYTES``, and scans them. A bidirectional layer's
directions thus run on separate cores; so do stacked fits. Training scans
stay in the calling thread.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from . import threads
from .errors import ConfigError
from .rng import substream


def sigmoid(x, out=None):
    """Logistic function of the array ``x`` built from in-place SIMD ufuncs.

    Inputs are clipped to [-30, 30] first: beyond that the output differs
    from the exact value by < 1e-13, and the clip keeps exp() away from
    overflow warnings and denormal slow paths. The clip is the ndarray
    method, which skips ``np.clip``'s dispatch layer (about 1 us a call);
    ``np.maximum`` plus ``np.minimum`` cost more than either.
    """
    out = x.clip(-30.0, 30.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out

RECURRENT_KINDS = ("lstm", "gru", "bilstm", "bigru")

# an eval scan splits its slots over threads (see "Threads") only when one
# step's recurrent GEMM of one slot, 2*B*H*G*H FLOP, reaches SCAN_THREAD_FLOPS
SCAN_THREAD_FLOPS = 2**25
# init_params splits a recurrent layer's per-gate QRs over threads only at
# widths H >= INIT_QR_THREAD_WIDTH (measured in covert_decode.threads)
INIT_QR_THREAD_WIDTH = 128
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
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.input_size < 1 or self.size < 1:
            raise ConfigError(f"layer sizes must be positive: {self}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.merge_mode not in ("concat", "sum"):
            raise ConfigError(f"merge_mode must be concat or sum, got {self.merge_mode!r}")
        if self.kind == "dropout" and self.size != self.input_size:
            raise ConfigError("dropout layers cannot change width")

    @property
    def bidirectional(self) -> bool:
        return self.kind in ("bilstm", "bigru")

    @property
    def output_size(self) -> int:
        if self.bidirectional and self.merge_mode == "concat":
            return 2 * self.size
        return self.size


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
        raise ConfigError(f"model kind must be one of {RECURRENT_KINDS}, got {kind!r}")
    if not hidden:
        raise ConfigError("need at least one recurrent layer")
    if len(dropout) != len(hidden):
        raise ConfigError("need one dropout rate per recurrent layer")
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
    return specs


# ---------------------------------------------------------------------------
# softmax head and dropout


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_mean(probs, labels) -> float:
    """Mean cross-entropy of a batch of probability rows."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    picked = np.clip(p[np.arange(p.shape[0]), labels], 1e-12, None)
    return float(-np.log(picked).mean())


def _dropout_mask(shape, rate, rng, dtype):
    dtype = np.dtype(dtype)
    draw_dtype = np.float32 if dtype == np.float32 else np.float64
    mask = rng.random(shape, dtype=draw_dtype) >= rate
    return mask.astype(dtype) / dtype.type(1.0 - rate)


# ---------------------------------------------------------------------------
# layers


def param_shapes(spec: LayerSpec) -> dict:
    """``{name: shape}`` of one layer's parameters ({} for dropout and softmax):
    dense ``w``, ``b``; per direction ``fw`` (and ``bw``) ``_wx``, ``_wh``, ``_b``."""
    if spec.kind == "dense":
        return {"w": (spec.input_size, spec.size), "b": (spec.size,)}
    if spec.kind not in RECURRENT_KINDS:
        return {}
    gh = (4 if spec.kind in ("lstm", "bilstm") else 3) * spec.size
    shapes = {}
    for d in ("fw", "bw") if spec.bidirectional else ("fw",):
        shapes[f"{d}_wx"] = (spec.input_size, gh)
        shapes[f"{d}_wh"] = (spec.size, gh)
        shapes[f"{d}_b"] = (gh,)
    return shapes


def init_params(spec: LayerSpec, rng, dtype=np.float32):
    """One layer's parameters drawn from ``rng`` in :func:`param_shapes` order (None
    if it has none): Glorot-uniform input and dense weights (Glorot & Bengio, 2010),
    orthogonal recurrent weights per gate, zero biases but the LSTM forget gate's 1.

    Each gate's recurrent block is ``q * sign(diag(r))`` of the QR of one
    standard-normal (H, H) draw. The draws come in order; the QRs run after
    the layer's last draw, written into the gate's columns of a float64 array,
    and split over the package pool when H reaches INIT_QR_THREAD_WIDTH
    (measured in :mod:`covert_decode.threads`, "Who splits"). Every array is
    converted to ``dtype`` last.
    """
    h = spec.size
    limit = np.sqrt(6.0 / (spec.input_size + spec.size))
    values, blocks = {}, []
    for name, shape in param_shapes(spec).items():
        if name.endswith("b"):
            value = np.zeros(shape)
            if spec.kind in ("lstm", "bilstm"):
                value[h : 2 * h] = 1.0  # forget-gate bias opens the cell path early
        elif name.endswith("wh"):
            value = np.empty(shape)
            blocks += [(value[:, g : g + h], rng.standard_normal((h, h)))
                       for g in range(0, shape[1], h)]
        else:
            value = rng.uniform(-limit, limit, size=shape)
        values[name] = value

    def orthogonalize(part):
        for columns, draw in blocks[part]:
            q, r = np.linalg.qr(draw)
            np.multiply(q, np.sign(np.diag(r)), out=columns)

    parts = threads.split(len(blocks), h >= INIT_QR_THREAD_WIDTH)
    threads.run([(orthogonalize, (part,)) for part in parts])
    return {name: value.astype(dtype) for name, value in values.items()} or None


class _ParamLayer:
    frozen = False

    def __init__(self, spec: LayerSpec, params: dict):
        shapes = {name: arr.shape for name, arr in params.items()}
        if shapes != param_shapes(spec):
            raise ValueError(f"{spec.kind} parameters {shapes} are not {param_shapes(spec)}")
        self.spec = spec
        self.params = params
        self.dtype = next(iter(params.values())).dtype
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

    Input projections (:func:`_input_projections`) are computed up front,
    one GEMM per slot from a D-wide time-major copy of the inputs, straight
    into the slot's slab of the gate buffer. A training pass projects the
    whole sequence, which its cache keeps; an eval pass projects blocks of
    at most ``threads.BLOCK_BYTES`` each (one timestep where that alone is
    larger), so it holds its state sequence plus one block and no T-long
    gate buffer. The GEMM rows
    are ordered and grouped differently from a whole-sequence projection,
    but BLAS gives each row of a GEMM the same bits whatever the row count
    (only a lone row, computed as a GEMV, rounds differently, and no block
    has one unless the whole pass has one), so the outputs do not change.

    Large eval scans split their slots over two threads (module docstring,
    "Threads"): :meth:`_scan` runs over one contiguous slot range of buffers
    the caller allocated for all slots.
    """

    def __init__(self, spec: LayerSpec, params: dict):
        super().__init__(spec, params)
        self.cell = "lstm" if spec.kind in ("lstm", "bilstm") else "gru"
        self.n_gates = 4 if self.cell == "lstm" else 3
        self.directions = ("fw", "bw") if spec.bidirectional else ("fw",)
        self.n_dir = len(self.directions)
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
        n_batch, n_time = xs[0].shape[:2]
        n_dir = head.n_dir
        wh = np.stack([layer.params[f"{d}_wh"] for layer in layers for d in layer.directions])
        buf = head._scan_buffers(wh, n_time, n_batch, training)
        if training:
            # one scan over every slot, in this thread (module docstring, "Threads")
            block = next(_input_projections(layers, xs, slice(None), n_time))
            head._scan([block], buf, slice(None), keep_cache=True)
            scan = {"wh": wh, "act": block[1], **{k: buf[k] for k in ("h", "c", "rh") if k in buf}}
        else:
            # each worker projects its own slots, in blocks of an equal share
            # of threads.BLOCK_BYTES (module docstring, "Threads")
            step_flops = 2 * n_batch * head.spec.size * head.n_gates * head.spec.size
            groups = threads.split(len(wh), step_flops >= SCAN_THREAD_FLOPS)
            calls = []
            slot_step_bytes = n_batch * wh.shape[2] * head.dtype.itemsize
            for slots in groups:
                step_bytes = (slots.stop - slots.start) * slot_step_bytes
                steps = threads.BLOCK_BYTES // len(groups) // max(1, step_bytes)
                blocks = _input_projections(layers, xs, slots, max(1, steps))
                calls.append((head._scan, (blocks, buf, slots, False)))
            threads.run(calls)
        h_stack = buf["h"]
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

    def _scan_buffers(self, wh, n_time, n_batch, keep_cache: bool):
        """Every array a forward scan over the slots of ``wh`` (slots, H, G*H)
        writes or reads besides its input projections, for all slots."""
        n_slots, h_size, gh = wh.shape
        state = (n_slots, n_batch, h_size)
        empty = functools.partial(np.empty, dtype=self.dtype)
        # "zeros" is the initial state; "c" (LSTM cell states) and "rh" (GRU
        # reset-gated states) span the sequence in training, for the
        # backward pass, and otherwise rotate through 2 and 1 steps
        buf = {"h": empty((n_time, *state)), "zeros": np.zeros(state, self.dtype),
               "tmp": empty(state)}
        if self.cell == "lstm":
            buf.update(wh=wh, hw=empty((n_slots, n_batch, gh)), tc=empty(state),
                       gates=empty((4, *state)), c=empty((n_time if keep_cache else 2, *state)))
        else:
            two = 2 * h_size
            buf.update(wh_zr=np.ascontiguousarray(wh[:, :, :two]),
                       wh_n=np.ascontiguousarray(wh[:, :, two:]),
                       zr=empty((n_slots, n_batch, two)), n=empty(state),
                       rh=empty((n_time if keep_cache else 1, *state)))
        return buf

    def _scan(self, blocks, buf, slots, keep_cache: bool):
        # the scan of the slots ``slots`` (a slice), on those slots' views of
        # the buffers in ``buf`` (see _scan_buffers). blocks yields (t0, zx):
        # the input projections of scan steps t0, t0 + 1, ... as
        # (slots, steps, B, G*H), see _input_projections. With keep_cache
        # (training) each step's gate activations overwrite that step's
        # input projections in zx; the one block then spans the whole
        # sequence and the cache keeps it as "act". Fills buf["h"]
        # (T, slots, B, H)
        h_size = self.spec.size
        h_stack, h, tmp = buf["h"][:, slots], buf["zeros"][slots], buf["tmp"][slots]
        if self.cell == "lstm":
            wh, hw, tc = buf["wh"][slots], buf["hw"][slots], buf["tc"][slots]
            gates = buf["gates"][:, slots]
            i, f, o, g = gates
            hw_g = _gate_major(hw[:, None], 4)[0]
            c_ring = buf["c"][:, slots]
            c = h  # the zero initial state
            for t0, zx in blocks:
                zx_g = _gate_major(zx, 4)
                for t in range(t0, t0 + zx.shape[1]):
                    z = zx_g[t - t0]
                    np.matmul(h, wh, out=hw)
                    np.add(z, hw_g, out=gates)
                    sigmoid(gates[:3], out=gates[:3])
                    np.tanh(g, out=g)
                    c_new = c_ring[t % len(c_ring)]
                    np.multiply(f, c, out=c_new)  # f * c_prev
                    np.multiply(i, g, out=tmp)  # i * g
                    c_new += tmp
                    np.tanh(c_new, out=tc)
                    h = h_stack[t]
                    np.multiply(o, tc, out=h)  # o * tanh(c)
                    if keep_cache:
                        np.copyto(z, gates)
                    c = c_new
            return
        two = 2 * h_size
        wh_zr, wh_n = buf["wh_zr"][slots], buf["wh_n"][slots]
        zr_buf, n_buf, rh_ring = buf["zr"][slots], buf["n"][slots], buf["rh"][:, slots]
        for t0, zx in blocks:
            for t in range(t0, t0 + zx.shape[1]):
                z = zx[:, t - t0]
                np.matmul(h, wh_zr, out=zr_buf)
                np.add(zr_buf, z[..., :two], out=zr_buf)
                sigmoid(zr_buf, out=zr_buf)
                rh = rh_ring[t % len(rh_ring)]
                np.multiply(zr_buf[..., h_size:], h, out=rh)  # r * h_prev
                np.matmul(rh, wh_n, out=n_buf)
                n_buf += z[..., two:]
                np.tanh(n_buf, out=n_buf)
                if keep_cache:
                    z[..., :two] = zr_buf
                    z[..., two:] = n_buf
                h_new = h_stack[t]
                np.subtract(n_buf, h, out=tmp)
                tmp *= zr_buf[..., :h_size]
                np.add(h, tmp, out=h_new)  # h + z * (n - h_prev)
                h = h_new

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
        del dh_out  # freed before the weight-gradient GEMMs, where the pass peaks
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

        One GEMM per direction, each over that slot's (T*B) rows only. Each
        direction's input-gradient GEMM writes into one time-major (T, B, D)
        scratch, which then takes the time-major copy of that direction's
        inputs for its ``wx`` gradient, so no direction allocates either.
        """
        x = self._cache["x"]
        n_batch, n_time, d_in = x.shape
        h_size = self.spec.size
        dx = np.zeros_like(x) if need_input_grad else None
        x_t = np.empty((n_time, n_batch, d_in), dtype=x.dtype)
        rows = x_t.reshape(-1, d_in)
        for d, direction in enumerate(self.directions):
            slot = m * self.n_dir + d
            dz_flat = dz[slot].reshape(-1, dz.shape[-1])  # (T*B, G*H) view
            if need_input_grad:
                np.matmul(dz_flat, self.params[f"{direction}_wx"].T, out=rows)
                dx_d = x_t.transpose(1, 0, 2)
                if direction == "bw":
                    dx += dx_d[:, ::-1]
                else:
                    dx += dx_d
            if not self.frozen:
                seq = x if direction == "fw" else x[:, ::-1]
                np.copyto(x_t, seq.transpose(1, 0, 2))
                self.grads[f"{direction}_wx"] = rows.T @ dz_flat
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
        # the cached "act" buffer; returns that buffer, now holding the gate
        # gradients dz (slots, T, B, G*H). Per step, the activations are
        # copied into the gate-major scratch ``act`` (G, slots, B, H), and
        # the gradients are built in ``grad`` and copied back into dz
        h_stack = cache["h"]
        n_time = h_stack.shape[0]
        h_size = self.spec.size
        state_shape = h_stack.shape[1:]
        wh = cache["wh"]
        dz = cache["act"]
        dz_g = _gate_major(dz, self.n_gates)
        act = np.empty((self.n_gates, *state_shape), dtype=self.dtype)
        grad = np.empty_like(act)
        dh_next = np.zeros(state_shape, dtype=self.dtype)
        tmp = np.empty(state_shape, dtype=self.dtype)

        if self.cell == "lstm":
            c_stack = cache["c"]
            tc = np.empty(state_shape, dtype=self.dtype)
            wh_t = np.ascontiguousarray(wh.transpose(0, 2, 1))
            dc = np.zeros(state_shape, dtype=self.dtype)
            i, f, o, g = act
            zi, zf, zo, zg = grad
            for t in range(n_time - 1, -1, -1):
                dh = dh_out[t]
                dh += dh_next
                np.copyto(act, dz_g[t])
                np.tanh(c_stack[t], out=tc)  # recomputed: cheaper than a T-long stack
                np.multiply(tc, tc, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                tmp *= dh
                tmp *= o
                dc += tmp
                np.subtract(1.0, act[:3], out=grad[:3])  # i, f, o: (1 - x) * x
                grad[:3] *= act[:3]
                grad[:2] *= dc  # i, f
                zo *= dh
                zo *= tc
                zi *= g
                if t > 0:
                    zf *= c_stack[t - 1]
                else:
                    zf[...] = 0.0  # c_prev at t=0 is zero
                np.multiply(g, g, out=zg)
                np.subtract(1.0, zg, out=zg)
                zg *= dc
                zg *= i
                np.copyto(dz_g[t], grad)
                np.matmul(dz[:, t], wh_t, out=dh_next)
                dc *= f
            return dz

        two = 2 * h_size
        wh_zr_t = np.ascontiguousarray(wh[:, :, :two].transpose(0, 2, 1))
        wh_n_t = np.ascontiguousarray(wh[:, :, two:].transpose(0, 2, 1))
        dh_acc = np.empty(state_shape, dtype=self.dtype)
        tmp2 = np.empty(state_shape, dtype=self.dtype)
        zeros_h = np.zeros(state_shape, dtype=self.dtype)
        z, r, n = act
        dzp, dzr, dan = grad
        for t in range(n_time - 1, -1, -1):
            dh = dh_out[t]
            dh += dh_next
            np.copyto(act, dz_g[t])
            hp = h_stack[t - 1] if t > 0 else zeros_h
            np.subtract(n, hp, out=dzp)
            dzp *= dh
            np.subtract(1.0, z, out=tmp)
            dzp *= tmp
            dzp *= z
            np.multiply(n, n, out=dan)
            np.subtract(1.0, dan, out=dan)
            dan *= dh
            dan *= z
            np.multiply(dh, tmp, out=dh_acc)  # direct path: dh * (1 - z)
            np.matmul(dan, wh_n_t, out=tmp2)  # drh
            np.multiply(tmp2, r, out=tmp)
            dh_acc += tmp
            np.multiply(tmp2, hp, out=tmp)  # dr
            np.subtract(1.0, r, out=dzr)
            dzr *= r
            dzr *= tmp
            np.copyto(dz_g[t], grad)
            np.matmul(dz[:, t, ..., :two], wh_zr_t, out=tmp)
            dh_acc += tmp
            dh_next, dh_acc = dh_acc, dh_next
        return dz


def _input_projections(layers, xs, slots, steps):
    """Blocks ``(t0, zx)`` of the input projections ``x @ wx + b`` of the
    slots ``slots`` (a slice of the slot axis).

    ``zx`` is (slots, n, B, G*H): scan steps t0 .. t0 + n - 1 of each slot.
    The sequence is cut evenly into as few blocks of at most ``steps`` scan
    steps as it allows, but never into blocks whose GEMMs would have a
    single row: BLAS computes those as a GEMV, which rounds differently from
    the GEMM of a longer pass. Each slot's slab is one GEMM written in place
    from a time-major copy of the block's inputs (time-reversed for the
    backward direction), which is D wide; the bias is then added in place.
    The buffers are allocated here and the returned iterator fills them as
    it is consumed, so a block must be used before the next is asked for.
    """
    head = layers[0]
    n_batch, n_time, d_in = xs[0].shape
    gh = head.n_gates * head.spec.size
    n_blocks = max(1, min(-(-n_time // steps), n_time * n_batch // 2))
    bounds = [n_time * i // n_blocks for i in range(n_blocks + 1)]
    longest = -(-n_time // n_blocks)
    slot_ids = range(len(layers) * head.n_dir)[slots]
    zx = np.empty((len(slot_ids), longest, n_batch, gh), dtype=head.dtype)
    x_t = np.empty((longest, n_batch, d_in), dtype=head.dtype)

    def blocks():
        for t0, t1 in zip(bounds, bounds[1:]):
            n = t1 - t0
            seq = x_t[:n]
            for k, slot in enumerate(slot_ids):
                layer, x = layers[slot // head.n_dir], xs[slot // head.n_dir]
                direction = layer.directions[slot % head.n_dir]
                if direction == "fw":
                    np.copyto(seq, x[:, t0:t1].transpose(1, 0, 2))
                else:
                    np.copyto(seq, x[:, n_time - t1 : n_time - t0].transpose(1, 0, 2)[::-1])
                slab = zx[k, :n]
                np.matmul(seq.reshape(-1, d_in), layer.params[f"{direction}_wx"],
                          out=slab.reshape(-1, gh))
                slab += layer.params[f"{direction}_b"]
            yield t0, zx[:, :n]

    return blocks()


def _gate_major(z, n_gates):
    """Gate-major view (T, G, slots, B, H) of slot-major gates ``z`` (slots, T, B, G*H)."""
    return z.reshape(*z.shape[:3], n_gates, z.shape[3] // n_gates).transpose(1, 3, 0, 2, 4)


def _shifted_states(h):
    """States one step back in time, ``h`` (T, B, H) -> contiguous with zeros at t=0."""
    out = np.empty(h.shape, dtype=h.dtype)
    out[0] = 0.0
    out[1:] = h[:-1]
    return out


class DenseLayer(_ParamLayer):
    _x = None

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


# ---------------------------------------------------------------------------
# model


class RecurrentModel:
    """Ordered layer stack with per-layer freeze flags and seeded dropout."""

    def __init__(self, specs, params, rng_seed: int):
        """``params``: one dict of arrays per layer, None for dropout/softmax."""
        validate_chain(specs)
        self.specs = list(specs)
        self.layers = []  # aligned with specs; None for dropout/softmax
        for spec, p in zip(self.specs, params, strict=True):
            if spec.kind in RECURRENT_KINDS:
                self.layers.append(RecurrentLayer(spec, p))
            elif spec.kind == "dense":
                self.layers.append(DenseLayer(spec, p))
            else:
                self.layers.append(None)
        self.rng_seed = int(rng_seed)
        self.dtype = next((layer.dtype for layer in self.layers if layer), np.dtype(np.float32))
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

    def _walk(self, attr: str = "params", frozen: bool = True) -> dict:
        """{"layer{i}.{name}": array} over each layer's ``attr`` dict, layer by
        layer and in name order; ``frozen=False`` skips frozen layers."""
        return {f"layer{i}.{name}": arr for i, layer in enumerate(self.layers)
                if layer is not None and (frozen or not layer.frozen)
                for name, arr in sorted(getattr(layer, attr).items())}

    def param_blocks(self):
        """Deterministic (key, array) list over all parameters."""
        return list(self._walk().items())

    def trainable_params(self) -> dict:
        return self._walk(frozen=False)

    def collect_grads(self) -> dict:
        return self._walk("grads", frozen=False)

    def zero_grads(self):
        for layer in self.layers:
            if layer is not None:
                layer.grads = {}

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.param_blocks())

    def recurrent_param_hash(self) -> str:
        """SHA-256 over the recurrent layers' parameter bytes, in block order."""
        recurrent = {f"layer{i}" for i, spec in enumerate(self.specs)
                     if spec.kind in RECURRENT_KINDS}
        digest = hashlib.sha256()
        for key, arr in self._walk().items():
            if key.partition(".")[0] in recurrent:
                digest.update(key.encode())
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
    # nothing below the bottom parameterized layer needs a gradient: the walk
    # ends there, without that layer's input-gradient GEMM
    lowest = param_indices[0] if param_indices else 0
    for i in range(len(head.specs) - 1, lowest - 1, -1):
        if head.specs[i].kind == "softmax":
            continue
        ds = [d * model._masks[i] if i in model._masks else d for model, d in zip(models, ds)]
        layers = [model.layers[i] for model in models]
        if layers[0] is None:
            continue
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
    """A model drawn by :func:`init_params`, layer i from substream (seed, "init", i)."""
    params = [init_params(spec, substream(seed, "init", i), dtype) for i, spec in enumerate(specs)]
    return RecurrentModel(specs, params, rng_seed=seed)
