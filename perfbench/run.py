"""Benchmark for covert-decode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_protocol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One run builds the workload's inputs from ``--seed`` (set-up, repeated and
reported as a median), then repeats the workload's timed pass as a closed
loop in this process until ``--seconds`` would be exceeded. The first pass
is a warm-up and is not measured. Each pass's outputs are checked; reports
and tables are hashed (timestamp removed) and must repeat byte-for-byte
between passes.

``--trace 0`` reports the gated end-to-end metrics, measured with only
coarse meters installed. ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, with the tracing
overhead; its spans go to ``.bench_work/traces/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. ``--smoke`` runs every workload's code path at a tiny size in
both modes and checks that every metric named in BENCHMARK.json is printed
with its unit.

The program is imported from ``src/`` of the checkout and never from an
installed copy; BLAS is limited to at most ``nproc`` threads.
"""

import argparse
import io
import json
import math
import os
import shutil
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# Paper protocol for the extrapolation: 5 classes x 80 trials, 5-fold CV
# training share with a 10 % validation split, batch 32, 60 epochs, T=1000.
PAPER_TRAIN_TRIALS = 400 * 0.8 * 0.9
PAPER_BATCH, PAPER_EPOCHS, PAPER_T, MEASURED_T = 32, 60, 1000, 100


def _limit_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _load_package():
    sys.path.insert(0, str(SRC))
    import covert_decode
    from covert_decode import (cli, config, experiments, features, fileio, network, optim, rng,
                               synth, training, transfer)

    if not Path(covert_decode.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"covert_decode was imported from {covert_decode.__file__}")
    return SimpleNamespace(cli=cli, config=config, experiments=experiments, features=features,
                           fileio=fileio, network=network, optim=optim, rng=rng, synth=synth,
                           training=training, transfer=transfer)


def _say(line=""):
    print(line, flush=True)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def measure(cd, name, seed, seconds, traced, smoke, import_s):
    """Set up and run one workload in the current directory; returns the result."""
    from perfbench import metrics
    from perfbench.recorder import Recorder, instrument
    from perfbench.workloads import WORKLOADS, Ops

    workload = WORKLOADS[name](cd, seed, smoke)
    rec = Recorder()

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        trace_setup = traced and repeat == 0
        rec.begin("setup", trace_setup)
        with instrument(rec, cd, trace_setup), redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
    setup_s = import_s + metrics.median(setup_times)
    raw_samples = workload.raw_samples()
    working_set = workload.working_set_bytes()

    def run_pass(tracing):
        workload.prepare()
        ops = Ops()
        run_id = f"pass{len(passes)}"
        rec.begin(run_id, tracing)
        with instrument(rec, cd, tracing):
            start = time.perf_counter()
            obs = workload.body(rec, ops)
            wall = time.perf_counter() - start
        meters = rec.meters
        checks = workload.check(obs, ops)
        passes.append(SimpleNamespace(run_id=run_id, traced=tracing, wall=wall, meters=meters,
                                      checks=checks, ops=ops))
        return wall

    # The first pass pays one-time costs (first touch of large buffers,
    # lazy imports, BLAS thread start) and is checked but not measured.
    # Traced runs then alternate traced and untraced passes, so the tracing
    # overhead is measured in the same run and two traced passes can be
    # compared count for count.
    started = time.perf_counter()
    passes = []
    run_pass(False)
    pattern = (True, False, True) if traced else (False,)
    last_wall = {}
    while True:
        tracing = pattern[(len(passes) - 1) % len(pattern)]
        last_wall[tracing] = run_pass(tracing)
        measured = len(passes) - 1
        next_tracing = pattern[measured % len(pattern)]
        next_wall = last_wall.get(next_tracing, last_wall[tracing])
        if measured >= len(pattern) and time.perf_counter() - started + next_wall > seconds:
            break

    # byte-for-byte repeat of every report between passes of one seed
    first = passes[0].checks["digests"]
    for p in passes[1:]:
        op = p.ops.start("outputs repeat byte-for-byte")
        changed = sorted(k for k in set(first) | set(p.checks["digests"])
                         if first.get(k) != p.checks["digests"].get(k))
        if changed:
            p.ops.flag(op, f"differ from the first pass: {', '.join(changed)}")

    untraced = [p for p in passes[1:] if not p.traced]
    traced_passes = [p for p in passes[1:] if p.traced]
    layer_runs = [metrics.per_layer(rec, p.run_id, p.wall) for p in traced_passes]
    if len(layer_runs) >= 2:
        op = traced_passes[-1].ops.start("work counts repeat exactly")
        differ = [k for k in metrics.EXACT_COUNTS if layer_runs[0][k] != layer_runs[1][k]]
        if differ:
            traced_passes[-1].ops.flag(op, f"counts differ between passes: {', '.join(differ)}")

    attempted = sum(p.ops.attempted for p in passes)
    failed = sum(p.ops.failed for p in passes)
    table_runs = [metrics.end_to_end(p.meters, p.wall, raw_samples, p.checks) for p in untraced]
    table = {"setup_s": setup_s}
    for key in metrics.TABLE:
        values = [r[key] for r in table_runs if key in r]
        if values:
            table[key] = metrics.median(values)
    table["peak_rss_mb"] = metrics.peak_rss_mb()
    table["error_rate"] = failed / attempted
    table["success_rate"] = 1.0 - table["error_rate"]
    result = SimpleNamespace(workload=workload, passes=passes, table=table,
                             attempted=attempted, failed=failed, rec=rec,
                             setup_times=setup_times, import_s=import_s,
                             working_set=working_set)
    if traced:
        result.layer = {key: layer_runs[0][key] if key in metrics.EXACT_COUNTS
                        else metrics.median([r[key] for r in layer_runs])
                        for key in layer_runs[0]}
        result.layer["trace.overhead_s"] = (metrics.median([p.wall for p in traced_passes])
                                            - metrics.median([p.wall for p in untraced]))
    return result


def _report(result, name, seed, seconds, traced):
    """Print the human-readable lines and return the final JSON object."""
    from perfbench import metrics

    meta = metrics.metadata(ROOT, seed)
    _say(f"workload {name}: {result.workload.why}")
    _say(f"seed {seed}, run length {seconds} s, trace {int(traced)}, "
         "closed loop, 1 process")
    for key, value in meta.items():
        _say(f"  meta {key}: {value}")
    if result.working_set is not None:
        _say(f"  meta working set: {result.working_set / 2**20:.1f} MiB "
             f"(one float64 recording) against last-level cache {meta['last_level_cache']}")
    _say(f"set-up: import {result.import_s:.3f} s + median of "
         f"{[round(t, 3) for t in result.setup_times]} s")
    for i, p in enumerate(result.passes):
        kind = "warm-up, not measured" if i == 0 else ("traced" if p.traced else "untraced")
        _say(f"pass {p.run_id}: {kind} {p.wall:.3f} s, "
             f"{p.ops.attempted} operations, {p.ops.failed} failed")
    for p in result.passes:
        for message in p.ops.messages():
            _say(f"  FAILED {p.run_id} {message}")
    first = result.passes[0].checks["digests"]
    for key in sorted(first):
        _say(f"sha256 {key} {first[key]}")

    _say("end-to-end (median over untraced passes):")
    for key, unit in metrics.TABLE.items():
        value = result.table.get(key)
        shown = "n/a (the workload does not run this stage)" if value is None else _fmt(value)
        _say(f"  {key:28s} {shown} {unit if value is not None else ''}".rstrip())
    if result.workload.name == "paper_train":
        _extrapolate(result)

    if traced:
        _say("per-layer (median over traced passes; counts from one pass):")
        for key, unit in metrics.LAYER.items():
            _say(f"  {key:32s} {_fmt(result.layer[key])} {unit}")
        values = {k: {"value": result.layer[k], "unit": u} for k, u in metrics.LAYER.items()}
    else:
        values = {k: {"value": result.table[k], "unit": u} for k, u in metrics.GATED.items()}
    correct = result.failed == 0
    return {"correct": correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": values}


def _extrapolate(result):
    """Paper-scale estimate from the measured BiLSTM step; information only."""
    from perfbench.metrics import median

    steps = [p.checks["bilstm_step_s"] for p in result.passes[1:]
             if not p.traced and "bilstm_step_s" in p.checks]
    if not steps:
        return
    step = median(steps)
    step_long = step * PAPER_T / MEASURED_T
    per_epoch = math.ceil(PAPER_TRAIN_TRIALS / PAPER_BATCH)
    fit = step_long * per_epoch * PAPER_EPOCHS
    _say("paper-scale extrapolation (information, not a gated metric):")
    _say(f"  bilstm 512/256 step at T={MEASURED_T}, batch {PAPER_BATCH}: {step:.3f} s (median)")
    _say(f"  step at T={PAPER_T} = step x {PAPER_T}/{MEASURED_T} (linear in T) = {step_long:.2f} s")
    _say(f"  60-epoch fit = step(T={PAPER_T}) x ceil(400 x 0.8 x 0.9 / {PAPER_BATCH}) = "
         f"{per_epoch} steps/epoch x {PAPER_EPOCHS} epochs = {fit:.0f} s ({fit / 3600:.2f} h), "
         "validation passes excluded")


def run_workload(name, seed, seconds, traced, smoke=False):
    """One benchmark run in a fresh work directory; returns the JSON object."""
    start = time.perf_counter()
    cd = _load_package()
    import_s = time.perf_counter() - start
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        result = measure(cd, name, seed, seconds, traced, smoke, import_s)
    finally:
        os.chdir(previous)
        shutil.rmtree(workdir, ignore_errors=True)
    out = _report(result, name, seed, seconds, traced)
    if traced:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{name}-seed{seed}.jsonl"
        result.rec.write_spans(path)
        _say(f"spans written to {path.relative_to(ROOT)}")
    return out


def smoke() -> int:
    """Every workload at tiny size in both modes; checks names, units, counts."""
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workload_names = {w["name"] for w in spec["workloads"]}
    problems = []
    if workload_names != set(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(workload_names)} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            sink = io.StringIO()
            with redirect_stdout(sink):
                out = run_workload(name, seed=1, seconds=0, traced=bool(trace), smoke=True)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            label = f"{name} --trace {trace}"
            want = wanted[trace]
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            printed = sink.getvalue()
            for key, unit in want.items():
                if not any(line.split()[:1] == [key] and line.rstrip().endswith(unit)
                           for line in printed.splitlines() if line.startswith("  ")):
                    problems.append(f"{label}: {key} not printed with unit {unit}")
            if not out["correct"]:
                problems.append(f"{label}: not correct\n{printed}")
            _say(f"smoke {label}: {out['attempted']} operations, {out['failed']} failed")
    for problem in problems:
        _say(f"SMOKE FAILURE {problem}")
    _say("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "covert_decode" / "__init__.py").is_file():
        print(f"error: {SRC / 'covert_decode'} not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    _limit_blas_threads()
    if args.smoke:
        return smoke()
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
