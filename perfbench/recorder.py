"""Timing wrappers placed around covert-decode's public functions.

The program under test is never edited. Each layer is timed by replacing a
name, where its caller looks it up, with a wrapper that records the call,
and by putting the original back afterwards. A name bound by
``from ... import`` is replaced in the importing module's globals, a name
read as ``module.attr`` on that module, and a method on its class.

Two instrumentation levels share one wrapper:

* ``meter`` (untraced runs) wraps only the few coarse entry points that the
  end-to-end metrics need: a training step, an eval-mode inference call,
  the transfer feature cache, plus the CLI commands the benchmark runs.
  Each keeps seconds and work counts; no spans are stored.
* ``trace`` (traced runs) wraps every layer boundary and also records one
  span per call: name, start, end, parent span and run id, kept in memory
  and written out once when the run ends.
"""

import functools
import json
import os
import re
import time
from contextlib import contextmanager

_ICA_ITERATIONS = re.compile(r"iterations=(\d+)")


class Recorder:
    """Spans and per-name meters for the calls made while a run is active."""

    def __init__(self):
        # one span is [name, start, end, parent index or None, run id, work]
        self.spans = []
        self.meters = {}
        self.tracing = False
        self.run_id = ""
        self._stack = []

    def begin(self, run_id: str, tracing: bool):
        """Start a run: meters reset, spans of earlier runs are kept."""
        self.run_id = run_id
        self.tracing = tracing
        self.meters = {}
        self._stack = []

    def run_spans(self, run_id: str):
        return [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]

    def wrap(self, name, fn, work=None, before=False):
        """Return ``fn`` wrapped to record each call under ``name``.

        ``name`` is a string or ``name(args, kwargs) -> str``. ``work`` maps
        ``(args, kwargs, result)`` to a dict of counts (trials, bytes, FLOPs
        ...); with ``before=True`` it runs before the call with ``result``
        None, for state the call consumes.
        """
        rec = self

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            counts = work(args, kwargs, None) if work is not None and before else None
            index = None
            if rec.tracing:
                index = len(rec.spans)
                parent = rec._stack[-1] if rec._stack else None
                rec.spans.append([label, 0.0, 0.0, parent, rec.run_id, None])
                rec._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if index is not None:
                    rec._stack.pop()
                    rec.spans[index][1] = start
                    rec.spans[index][2] = end
            if work is not None and not before:
                counts = work(args, kwargs, result)
            rec._meter(label, end - start, counts, index)
            return result

        return recorded

    def _meter(self, label, seconds, counts, index):
        meter = self.meters.get(label)
        if meter is None:
            meter = self.meters[label] = {"seconds": 0.0}
        meter["seconds"] += seconds
        if counts:
            for key, value in counts.items():
                meter[key] = meter.get(key, 0) + value
            if index is not None:
                self.spans[index][5] = counts

    def write_spans(self, path):
        """Write every span as one JSON line; called once, after the last run."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, run_id, work) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "run": run_id}
                if work:
                    record["work"] = work
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans):
    """Map span index -> duration minus the time its child spans cover.

    ``spans`` is a list of (index, span) pairs of one run. The program is
    single-threaded, so children never overlap and their union is their sum.
    """
    child = {}
    for _, span in spans:
        parent = span[3]
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (span[2] - span[1])
    return {i: (s[2] - s[1]) - child.get(i, 0.0) for i, s in spans}


# ---------------------------------------------------------------------------
# work counts, computed from arguments and results


def _trials(args, kwargs, result):
    return {"trials": len(args[1])}


def _train_model_work(args, kwargs, result):
    return {"trials": len(args[1]), "epochs": result.epochs_run}


def _adam_work(args, kwargs, result):
    return {"params": sum(int(g.size) for g in args[1].values())}


def _samples_arg0(args, kwargs, result):
    return {"samples": int(args[0].size)}


def _ica_work(args, kwargs, result):
    match = _ICA_ITERATIONS.search(result.descriptor)
    return {"iterations": int(match.group(1)) if match else 0,
            "samples": int(args[0].data.size)}


def _epoch_work(args, kwargs, result):
    return {"trials": result[0].n_trials}


def _feature_work(args, kwargs, result):
    return {"samples": int(args[0].data.size)}


def _read_work(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _write_work(args, kwargs, result):
    return {"bytes_written": os.path.getsize(result)}


def _generate_work(args, kwargs, result):
    return {"trials": 2 * args[0].n_trials}


def _sweep_work(args, kwargs, result):
    return {"cells": len(result["runs"])}


def _training_flag(args, kwargs):
    return kwargs.get("training", args[2] if len(args) > 2 else False)


def _need_input_grad(args, kwargs):
    return kwargs.get("need_input_grad", args[2] if len(args) > 2 else True)


def _recurrent_fwd_name(args, kwargs):
    mode = "fwd_train" if _training_flag(args, kwargs) else "fwd_infer"
    return f"network.{args[0].spec.kind}.{mode}"


def _recurrent_bwd_name(args, kwargs):
    return f"network.{args[0].spec.kind}.bwd"


def _recurrent_fwd_work(args, kwargs, result):
    # computed GEMM FLOPs: the hoisted input projection (D) plus one
    # recurrent product (H) per step, for every direction
    layer, x = args[0], args[1]
    n_batch, n_time, d_in = x.shape
    h, gates, n_dir = layer.spec.size, layer.n_gates, layer.n_dir
    return {"timesteps": n_time,
            "flops": 2 * n_batch * n_time * gates * h * n_dir * (d_in + h)}


def _recurrent_bwd_work(args, kwargs, result):
    # input gradient (D, when asked), weight gradients (D + H, unless
    # frozen) and the recurrent state gradient (H) per step
    layer = args[0]
    if layer._cache is None:
        return {}
    n_batch, n_time, d_in = layer._cache["x"].shape
    h, gates, n_dir = layer.spec.size, layer.n_gates, layer.n_dir
    inner = h
    if _need_input_grad(args, kwargs):
        inner += d_in
    if not layer.frozen:
        inner += d_in + h
    return {"timesteps": n_time, "flops": 2 * n_batch * n_time * gates * h * n_dir * inner}


def _dense_fwd_work(args, kwargs, result):
    layer, x = args[0], args[1]
    rows = x.size // x.shape[-1]
    return {"flops": 2 * rows * layer.spec.input_size * layer.spec.size}


def _dense_bwd_work(args, kwargs, result):
    layer = args[0]
    if layer._x is None:
        return {}
    rows = layer._x.size // layer._x.shape[-1]
    products = int(not layer.frozen) + int(bool(_need_input_grad(args, kwargs)))
    return {"flops": 2 * rows * layer.spec.input_size * layer.spec.size * products}


@contextmanager
def instrument(rec: Recorder, cd, traced: bool):
    """Install the wrappers for one run and restore the originals on exit.

    ``cd`` is a namespace holding the covert_decode modules (``cli``,
    ``fileio``, ``synth``, ``network``, ``training``, ``experiments``,
    ``transfer``).
    """
    originals = []

    def patch(owner, attr, name, work=None, before=False, outer=None):
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        wrapped = rec.wrap(name, original, work, before)
        if outer is not None:
            wrapped = rec.wrap(outer, wrapped)
        setattr(owner, attr, wrapped)

    # the entry points behind the end-to-end throughput metrics
    patch(cd.training, "train_step", "training.step", _trials)
    patch(cd.training, "evaluate_accuracy", "training.validate", _trials)
    patch(cd.experiments, "predict", "training.predict", _trials)
    patch(cd.cli, "predict", "training.predict", _trials)
    patch(cd.transfer, "head_input_features", "transfer.cache", _trials)
    if traced:
        patch(cd.synth, "generate_paired", "synth.generate", _generate_work)
        patch(cd.cli, "filter_zero_phase", "preprocessing.filter", _samples_arg0)
        patch(cd.cli, "epoch_and_baseline", "preprocessing.epoch", _epoch_work)
        patch(cd.cli, "fastica_decompose", "ica.decompose", _ica_work)
        patch(cd.cli, "ica_reconstruct", "ica.reconstruct")
        patch(cd.cli, "extract_features", "features.extract", _feature_work)
        patch(cd.cli, "run_cv", "experiments.run_cv")
        patch(cd.cli, "train_holdout", "experiments.holdout")
        patch(cd.cli, "transfer_sweep", "transfer.sweep", _sweep_work)
        for reader in ("read_recording", "read_epochs", "read_features", "load_model",
                       "load_json"):
            patch(cd.fileio, reader, "fileio.read", _read_work)
        for writer in ("write_recording", "write_epochs", "write_features", "save_model",
                       "dump_json"):
            patch(cd.fileio, writer, "fileio.write", _write_work)
        patch(cd.fileio, "sha256_file", "fileio.hash")
        layer = cd.network.RecurrentLayer
        patch(layer, "forward", _recurrent_fwd_name, _recurrent_fwd_work)
        patch(layer, "backward", _recurrent_bwd_name, _recurrent_bwd_work, before=True)
        patch(cd.network.DenseLayer, "forward", "network.dense.fwd", _dense_fwd_work)
        patch(cd.network.DenseLayer, "backward", "network.dense.bwd", _dense_bwd_work,
              before=True)
        patch(cd.training, "adam_step", "optim.adam", _adam_work)
        patch(cd.experiments, "train_model", "training.train_model", _train_model_work)
        patch(cd.transfer, "train_model", "training.train_model", _train_model_work,
              outer="transfer.scratch")
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
