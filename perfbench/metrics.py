"""Metric definitions and their computation from meters and spans.

Which end-to-end metric each layer metric should move, and on which
workload, is written next to the layer metrics below.
"""

import math
import os
import re
import statistics
from collections import defaultdict
from pathlib import Path

from .recorder import self_times

# Gated end-to-end metrics: every workload reports each of them, measured
# with tracing off. Order and units match BENCHMARK.json.
GATED = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

# The full end-to-end table printed for people. Metrics a workload does not
# exercise print as n/a; those are not gated, because a gated metric must
# be measured on every workload.
TABLE = {
    "setup_s": "s",
    "wall_s": "s",
    "train_trials_per_s": "trials/s",
    "infer_trials_per_s": "trials/s",
    "preprocess_msamples_per_s": "Msamples/s",
    "transfer_s": "s",
    "peak_rss_mb": "MB",
    "cv_accuracy": "fraction",
    "transfer_accuracy": "fraction",
    "error_rate": "failed/attempted",
    "success_rate": "fraction",
}

INFER_ENTRY_POINTS = ("training.predict", "training.validate", "transfer.cache")
RECURRENT = ("lstm", "gru", "bilstm", "bigru")
MODULES = ("cli", "preprocessing", "ica", "features", "fileio", "network", "optim",
           "training", "experiments", "transfer")

# Per-layer metrics (traced runs). The comment on each group names the
# end-to-end metric it should move and the workload it moves it on.
LAYER = {}
# wall_s and transfer_s on desk_protocol
for _cmd in ("preprocess", "features", "train", "evaluate", "transfer", "report"):
    LAYER[f"cli.{_cmd}_s"] = "s"
# setup_s on all three workloads
LAYER["synth.generate_s"] = "s"
# preprocess_msamples_per_s and wall_s on paper_frontend
LAYER.update({
    "preprocessing.filter_s": "s", "preprocessing.filter_calls": "count",
    "preprocessing.epoch_s": "s",
    "ica.decompose_s": "s", "ica.iterations": "count", "ica.iteration_ms": "ms",
    "ica.reconstruct_s": "s",
    "features.extract_s": "s", "features.msamples_per_s": "Msamples/s",
    "fileio.write_s": "s", "fileio.read_s": "s", "fileio.hash_s": "s",
    "fileio.bytes_written": "bytes", "fileio.bytes_read": "bytes",
})
# train_trials_per_s on desk_protocol and paper_train
LAYER.update({"network.fwd_train_s": "s", "network.bwd_s": "s"})
for _kind in RECURRENT:
    LAYER[f"network.{_kind}.fwd_train_s"] = "s"
    LAYER[f"network.{_kind}.bwd_s"] = "s"
# infer_trials_per_s
LAYER.update({"network.fwd_infer_s": "s", "network.dense_s": "s"})
# call overhead: train_trials_per_s on desk_protocol
LAYER.update({"network.timesteps": "count", "network.us_per_timestep": "us"})
# GEMM throughput: train_trials_per_s on paper_train
LAYER.update({"network.computed_gflop": "GFLOP", "network.gflops": "GFLOP/s"})
LAYER.update({"optim.adam_s": "s", "optim.adam_calls": "count", "optim.params_updated": "count"})
# train_trials_per_s and infer_trials_per_s
LAYER.update({
    "training.train_model_s": "s", "training.step_ms_p50": "ms", "training.step_ms_high": "ms",
    "training.step_high_pct": "%", "training.step_count": "count",
    "training.epochs_run": "count", "training.validate_s": "s", "training.predict_s": "s",
})
# wall_s on desk_protocol
LAYER.update({"experiments.run_cv_s": "s", "experiments.holdout_s": "s"})
# transfer_s on desk_protocol
LAYER.update({"transfer.cache_s": "s", "transfer.scratch_s": "s", "transfer.head_s": "s",
              "transfer.cells": "count"})
# where wall_s goes: module self time over wall_s, and what tracing costs
for _module in MODULES:
    LAYER[f"share.{_module}"] = "fraction"
LAYER.update({"trace.coverage": "fraction", "trace.overhead_s": "s"})

# Counts that must repeat exactly between two passes of one seed.
EXACT_COUNTS = ("network.timesteps", "network.computed_gflop", "optim.params_updated",
                "optim.adam_calls", "ica.iterations", "training.epochs_run",
                "training.step_count", "preprocessing.filter_calls", "fileio.bytes_written",
                "fileio.bytes_read", "transfer.cells")


def median(values):
    return statistics.median(values) if values else math.nan


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than 20 samples no percentile above the median qualifies; the
    maximum is reported as percentile 100 instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0, 0.0
    if n < 20:
        return 100, ordered[-1]
    pct = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, ordered[rank - 1]


def end_to_end(meters, wall_s, raw_samples, checks):
    """The table metrics of one untraced pass, from its meters and checks."""
    out = {"wall_s": wall_s}
    step = meters.get("training.step")
    if step and step["seconds"] > 0:
        out["train_trials_per_s"] = step["trials"] / step["seconds"]
    infer = [meters[n] for n in INFER_ENTRY_POINTS if n in meters]
    infer_s = sum(m["seconds"] for m in infer)
    if infer_s > 0:
        out["infer_trials_per_s"] = sum(m["trials"] for m in infer) / infer_s
    pre = meters.get("cli.preprocess")
    if pre and raw_samples:
        out["preprocess_msamples_per_s"] = raw_samples / pre["seconds"] / 1e6
    if "cli.transfer" in meters:
        out["transfer_s"] = meters["cli.transfer"]["seconds"]
    for key in ("cv_accuracy", "transfer_accuracy"):
        if key in checks:
            out[key] = checks[key]
    return out


def per_layer(rec, run_id, wall_s):
    """The per-layer metrics of one traced pass, from its spans."""
    spans = rec.run_spans(run_id)
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    selfs = defaultdict(float)
    work = defaultdict(lambda: defaultdict(int))
    for index, span in spans:
        name, duration = span[0], span[2] - span[1]
        total[name] += duration
        calls[name] += 1
        durations[name].append(duration)
        selfs[name] += own[index]
        for key, value in (span[5] or {}).items():
            work[name][key] += value

    def matching(pattern):
        return [n for n in total if re.fullmatch(pattern, n)]

    def seconds(pattern):
        return sum(total[n] for n in matching(pattern))

    def counted(pattern, key):
        return sum(work[n][key] for n in matching(pattern))

    m = {}
    for cmd in ("preprocess", "features", "train", "evaluate", "transfer", "report"):
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
    m["synth.generate_s"] = sum(s[2] - s[1] for _, s in rec.run_spans("setup")
                                if s[0] == "synth.generate")
    m["preprocessing.filter_s"] = total["preprocessing.filter"]
    m["preprocessing.filter_calls"] = calls["preprocessing.filter"]
    m["preprocessing.epoch_s"] = total["preprocessing.epoch"]
    m["ica.decompose_s"] = total["ica.decompose"]
    m["ica.iterations"] = work["ica.decompose"]["iterations"]
    m["ica.iteration_ms"] = (1000 * m["ica.decompose_s"] / m["ica.iterations"]
                             if m["ica.iterations"] else 0.0)
    m["ica.reconstruct_s"] = total["ica.reconstruct"]
    m["features.extract_s"] = total["features.extract"]
    m["features.msamples_per_s"] = (work["features.extract"]["samples"] / 1e6
                                    / m["features.extract_s"] if m["features.extract_s"] else 0.0)
    m["fileio.write_s"] = total["fileio.write"]
    m["fileio.read_s"] = total["fileio.read"]
    m["fileio.hash_s"] = total["fileio.hash"]
    m["fileio.bytes_written"] = work["fileio.write"]["bytes_written"]
    m["fileio.bytes_read"] = work["fileio.read"]["bytes_read"]
    kinds = "(" + "|".join(RECURRENT) + ")"
    m["network.fwd_train_s"] = seconds(rf"network\.{kinds}\.fwd_train")
    m["network.bwd_s"] = seconds(rf"network\.{kinds}\.bwd")
    for kind in RECURRENT:
        m[f"network.{kind}.fwd_train_s"] = total[f"network.{kind}.fwd_train"]
        m[f"network.{kind}.bwd_s"] = total[f"network.{kind}.bwd"]
    m["network.fwd_infer_s"] = seconds(rf"network\.{kinds}\.fwd_infer")
    m["network.dense_s"] = seconds(r"network\.dense\..*")
    recurrent_s = seconds(rf"network\.{kinds}\..*")
    m["network.timesteps"] = counted(rf"network\.{kinds}\..*", "timesteps")
    m["network.us_per_timestep"] = (1e6 * recurrent_s / m["network.timesteps"]
                                    if m["network.timesteps"] else 0.0)
    network_s = seconds(r"network\..*")
    m["network.computed_gflop"] = counted(r"network\..*", "flops") / 1e9
    m["network.gflops"] = m["network.computed_gflop"] / network_s if network_s else 0.0
    m["optim.adam_s"] = total["optim.adam"]
    m["optim.adam_calls"] = calls["optim.adam"]
    m["optim.params_updated"] = work["optim.adam"]["params"]
    m["training.train_model_s"] = total["training.train_model"]
    steps_ms = [1000 * d for d in durations["training.step"]]
    m["training.step_ms_p50"] = median(steps_ms) if steps_ms else 0.0
    m["training.step_high_pct"], m["training.step_ms_high"] = high_percentile(steps_ms)
    m["training.step_count"] = len(steps_ms)
    m["training.epochs_run"] = work["training.train_model"]["epochs"]
    m["training.validate_s"] = total["training.validate"]
    m["training.predict_s"] = total["training.predict"]
    m["experiments.run_cv_s"] = total["experiments.run_cv"]
    m["experiments.holdout_s"] = total["experiments.holdout"]
    m["transfer.cache_s"] = total["transfer.cache"]
    m["transfer.scratch_s"] = total["transfer.scratch"]
    m["transfer.head_s"] = selfs["transfer.sweep"]
    m["transfer.cells"] = work["transfer.sweep"]["cells"]
    module_self = defaultdict(float)
    for name, value in selfs.items():
        module_self[name.split(".", 1)[0]] += value
    for module in MODULES:
        m[f"share.{module}"] = module_self[module] / wall_s
    m["trace.coverage"] = sum(selfs.values()) / wall_s
    return m


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _cpuinfo():
    model = cache = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "cache size" and cache == "unknown":
                    cache = value.strip()
    except OSError:
        pass
    return model, cache


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, cache = _cpuinfo()
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "last_level_cache": cache,
        "git_commit": _git_commit(root),
        "seed": seed,
    }
