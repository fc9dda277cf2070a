"""Command-line entry point wiring the pipeline together.

Subcommands: synth, preprocess, features, train, evaluate, transfer,
report, validate. A command reads its settings only from the config that
``_load_config`` builds and every report echoes, each source over the last:
defaults, --config (synth's --spec), each --set, COVERT_DECODE_SEED where
the command takes --seed, then the flags --seed, --model, --cv, --budgets
and --seeds. Exit codes: 0 success, 2 config error (an unreadable config
source too), 3 data error (a missing or unreadable input too), 4 numeric
failure. The library raises typed errors where it checks its inputs; the
CLI maps errors to exit codes only in ``main``.

A command that exits 2 or 3 leaves its outputs as it found them: it checks
its output paths and every input before its first write, and ``fileio``
publishes each file whole. The one exception is a write that fails after
the check (a full disk, say); outputs written before it stay. An output at
the path of a file the command reads, config sources included, is a config
error.

``preprocess`` runs FastICA only when its result can differ from its input:
with nothing excluded (``ica_exclude`` empty) and all components kept
(``ica_components`` 0 or the channel count), it checks the recording as
FastICA would and keeps it as it is. The declared tolerance against the
decompose-and-rebuild result is 1 float32 ulp per epoch sample.
"""

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import fileio, synth
from .config import (
    PIPELINE_DEFAULTS,
    SYNTH_DEFAULTS,
    load_config,
    load_kv_file,
    parse_list,
)
from .containers import Condition, default_class_names
from .errors import ConfigError, CovertDecodeError, DataError, FileFormatError
from .evaluation import (
    accuracy_from_confusion,
    confusion_matrix,
    holdout_split,
    stratified_kfold,
)
from .experiments import make_report, run_cv, train_holdout
from .features import envelope_correlation, extract_features
from .ica import check_excluded, fastica_decompose, ica_reconstruct, prepare_fastica
from .network import RECURRENT_KINDS, classifier_specs
from .preprocessing import (
    design_butterworth_bandpass,
    design_notch,
    epoch_and_baseline,
    filter_zero_phase,
)
from .training import TrainConfig, predict
from .transfer import TransferPlan, transfer_sweep


def _load_config(args, defaults=PIPELINE_DEFAULTS) -> dict:
    """Every run setting, each source over the last (module docstring). A flag
    sets the key its dest names, so evaluate's --model has the dest checkpoint."""
    given = vars(args)
    sources = [load_kv_file(args.config)] if args.config else []
    for item in given.get("set") or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        sources.append({key.strip(): value.strip()})
    cfg = load_config(defaults, *sources)
    env = os.environ.get("COVERT_DECODE_SEED", "").strip()
    if env and given.get("seed", 0) is None:  # the command takes --seed, not given
        try:
            cfg = load_config(cfg, {"seed": env})
        except ConfigError as exc:
            raise ConfigError(f"COVERT_DECODE_SEED must be an integer, got {env!r}") from exc
    return load_config(cfg, {key: str(value) for key, value in given.items()
                             if key in defaults and value is not None})


def _train_config(cfg: dict) -> TrainConfig:
    """TrainConfig from the config keys named after its fields."""
    return TrainConfig(**{f.name: cfg[f.name] for f in fields(TrainConfig)})


def _check_not_empty(features):
    if not features.n_trials:
        raise DataError("feature file holds no trials")
    if not features.n_timesteps:
        raise DataError("feature file holds no timesteps")


def _check_model_fits(model, features, role: str = "model"):
    """Reject a feature file whose width or labels the model cannot take, or
    that holds no trials or timesteps to evaluate."""
    _check_not_empty(features)
    if model.input_size != features.n_features:
        raise DataError(
            f"{role} expects {model.input_size} features, file has {features.n_features}"
        )
    if features.labels.max() >= model.n_classes:
        raise DataError(
            f"file has labels up to {features.labels.max()}, "
            f"{role} predicts {model.n_classes} classes"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = _load_config(args, SYNTH_DEFAULTS)
    seed = cfg["seed"]
    # every synth key but gap_seconds is a SynthSpec field
    gap_seconds = cfg.pop("gap_seconds")
    spec = synth.SynthSpec(**cfg)
    recordings = args.emit == "recordings"
    fileio.check_outputs(*synth.manifest_paths(args.out, args.subject, recordings).values(),
                         inputs=[args.config])
    overt, covert, manifest = synth.generate_paired(spec)
    if recordings:
        overt, covert = synth.to_recordings([overt, covert], gap_seconds=gap_seconds, seed=seed)
    datasets = {"overt": overt, "covert": covert}
    manifest_path = synth.write_manifest(
        datasets, args.out, subject=args.subject, seed=seed, class_names=spec.class_names
    )
    print(f"wrote {len(datasets)} {args.emit} files and {manifest_path}")
    return 0


def _filters(cfg: dict, rate: float):
    """The configured notch and band-pass filters at ``rate``."""
    notch = design_notch(cfg["notch_hz"], cfg["notch_q"], rate)
    bandpass = design_butterworth_bandpass(
        cfg["bandpass_order"], cfg["bandpass_low_hz"], cfg["bandpass_high_hz"], rate
    )
    return notch, bandpass


def cmd_preprocess(args) -> int:
    cfg = _load_config(args)
    fileio.check_outputs(args.out, f"{args.out}.skipped.json", f"{args.out}.prov.json",
                         inputs=[args.input, args.config])
    # design both filters and read the exclusions before touching any input
    # so config mistakes surface immediately
    notch, bandpass = _filters(cfg, cfg["sample_rate_hz"])
    excluded = parse_list(cfg["ica_exclude"], int, "ica_exclude")
    inputs = []
    recording = fileio.read_recording(args.input, inputs)
    n_components = cfg["ica_components"] or recording.n_channels
    if cfg["ica_enabled"]:
        check_excluded(excluded, n_components)  # before the filters and FastICA
    if recording.sample_rate_hz != cfg["sample_rate_hz"]:
        notch, bandpass = _filters(cfg, recording.sample_rate_hz)

    # the filters overwrite the raw data, the reader's own float64 copy
    filter_zero_phase(recording.data, notch, bandpass, out=recording.data)
    if cfg["ica_enabled"]:
        ica_args = {"n_components": n_components, "max_iter": cfg["ica_max_iter"],
                    "tol": cfg["ica_tol"]}
        if not excluded and n_components == recording.n_channels:
            # rebuilding from every component returns the input up to float64
            # rounding: check the recording as FastICA would and keep it
            prepare_fastica(recording, **ica_args)
        else:
            decomp = fastica_decompose(recording, seed=cfg["seed"], **ica_args)
            # the rebuild overwrites the filtered data, which nothing reads again
            recording = replace(recording,
                                data=ica_reconstruct(decomp, excluded, out=recording.data))
            del decomp
    epochs, skipped = epoch_and_baseline(
        recording,
        cfg["epoch_seconds"],
        cfg["baseline_ms"],
        condition=Condition.parse(args.condition),
    )
    out_path = fileio.write_epochs(epochs, args.out)
    fileio.dump_json(skipped.to_dict(), str(out_path) + ".skipped.json")
    fileio.write_provenance(out_path, "preprocess", inputs, cfg)
    print(
        f"wrote {epochs.n_trials} epochs ({epochs.n_timesteps} x {epochs.n_channels}) "
        f"to {out_path}; skipped {skipped.n_skipped} trials"
    )
    return 0


def cmd_features(args) -> int:
    cfg = _load_config(args)
    fileio.check_outputs(args.out, f"{args.out}.prov.json", inputs=[args.input, args.config])
    inputs = []
    epochs = fileio.read_epochs(args.input, inputs)
    tensor = extract_features(epochs, env_floor_rel=cfg["env_floor_rel"])
    out_path = fileio.write_features(tensor, args.out)
    fileio.write_provenance(out_path, "features", inputs, cfg)
    print(
        f"wrote features {tensor.n_trials} x {tensor.n_timesteps} x {tensor.n_features} "
        f"to {out_path}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    fileio.check_outputs(args.out, args.checkpoint, inputs=[args.features, args.config])
    seed, kind, k = cfg["seed"], cfg["model"], cfg["cv_folds"]
    inputs = []
    features = fileio.read_features(args.features, inputs)
    hidden = parse_list(cfg["hidden_units"], int, "hidden_units")
    dropout = parse_list(cfg["dropout_rates"], float, "dropout_rates")
    specs = classifier_specs(kind, features.n_features, hidden=hidden, dropout=dropout,
                             n_classes=features.n_classes, merge_mode=cfg["merge_mode"])
    train_config = _train_config(cfg)
    _check_not_empty(features)
    # draw the splits up front: a fold count below 2 (0 skips CV) or a file
    # too small for the splits fails before training
    if k:
        stratified_kfold(features.labels, k, seed)
    holdout_split(features.labels, cfg["test_fraction"], seed)

    payload = {"model": kind, "n_trials": features.n_trials}
    if k:
        payload["cv"] = run_cv(features, specs, train_config, k=k, seed=seed)
        print(
            f"cv mean accuracy {payload['cv']['mean_accuracy']:.4f} "
            f"+/- {payload['cv']['stdev_accuracy']:.4f} over {k} folds"
        )
    model, holdout = train_holdout(
        features, specs, train_config, test_fraction=cfg["test_fraction"], seed=seed
    )
    payload["holdout"] = holdout
    print(f"holdout accuracy {holdout['holdout_accuracy']:.4f}")

    if args.checkpoint:
        ckpt = fileio.save_model(model, args.checkpoint)
        payload["checkpoint"] = {"path": str(ckpt), "sha256": fileio.sha256_file(ckpt)}
        print(f"checkpoint saved to {ckpt}")
    report = make_report("train", cfg, payload, inputs=inputs, seeds=[seed])
    fileio.dump_json(report, args.out)
    print(f"report written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    fileio.check_outputs(args.out, inputs=[args.checkpoint, args.features, args.config])
    inputs = []
    model = fileio.load_model(args.checkpoint, inputs)
    features = fileio.read_features(args.features, inputs)
    _check_model_fits(model, features)
    # one prediction pass; the matrix is sized by the model, so classes the
    # file lacks get a row of zeros and a default name
    y_pred = predict(model, features.data, _train_config(cfg).batch_size)
    cm = confusion_matrix(features.labels, y_pred, model.n_classes)
    accuracy = accuracy_from_confusion(cm)
    names = features.class_names + default_class_names(model.n_classes)[features.n_classes :]
    class_acc = {
        names[i]: float(cm[i, i] / cm[i].sum()) if cm[i].sum() else 0.0
        for i in range(model.n_classes)
    }
    payload = {
        "accuracy": accuracy,
        "confusion": cm.tolist(),
        "per_class_accuracy": class_acc,
        "n_trials": features.n_trials,
    }
    report = make_report("evaluate", cfg, payload, inputs=inputs)
    fileio.dump_json(report, args.out)
    print(f"accuracy {accuracy:.4f} on {features.n_trials} trials; report at {args.out}")
    return 0


def cmd_transfer(args) -> int:
    cfg = _load_config(args)
    csv_path = Path(args.out).with_suffix(".csv")
    fileio.check_outputs(args.out, csv_path, inputs=[args.source, args.covert, args.config])
    inputs = []
    source = fileio.load_model(args.source, inputs)
    covert = fileio.read_features(args.covert, inputs)
    _check_model_fits(source, covert, role="source model")
    plan = TransferPlan(
        budgets=tuple(parse_list(cfg["budgets"], float, "budgets")),
        test_fraction=cfg["test_fraction"],
        reinit_head=cfg["reinit_head"],
        seeds=tuple(cfg["seed"] + i for i in range(cfg["transfer_seeds"])),
        fine_tune_max_epochs=cfg["fine_tune_max_epochs"],
    )
    payload = transfer_sweep(
        plan,
        covert,
        source_model=source,
        train_config=_train_config(cfg),
        include_scratch_baseline=not args.no_scratch,
    )
    report = make_report(
        "transfer",
        cfg,
        payload,
        inputs=inputs,
        seeds=plan.seeds,
    )
    fileio.dump_json(report, args.out)
    fileio.write_csv(_transfer_rows(payload["summary"]), csv_path)
    for entry in payload["summary"]:
        line = (
            f"budget {entry['budget']:.2f}: transfer "
            f"{entry['transfer_mean']:.4f} +/- {entry['transfer_stdev']:.4f}"
        )
        if "scratch_mean" in entry:
            line += f", scratch {entry['scratch_mean']:.4f} +/- {entry['scratch_stdev']:.4f}"
        print(line)
    print(f"report written to {args.out} and {csv_path}")
    return 0


def _transfer_rows(summary) -> list:
    """The transfer table: a header, then one row per budget entry."""
    fields = ["budget", "transfer_mean", "transfer_stdev"]
    if summary and "scratch_mean" in summary[0]:
        fields += ["scratch_mean", "scratch_stdev"]
    return [fields] + [[entry[f] for f in fields] for entry in summary]


def cmd_report(args) -> int:
    if bool(args.overt_features) != bool(args.covert_features):
        raise ConfigError("report: --overt-features and --covert-features go together")
    # every input is read and checked before the first table is written
    tables = {}
    if args.train_report:
        tables["accuracy_table.csv"] = _accuracy_rows(args.train_report)
    if args.transfer_report:
        report = fileio.load_json(args.transfer_report)
        summary = _transfer_summary(report, args.transfer_report)
        tables["transfer_budgets.csv"] = _transfer_rows(summary)
    if args.overt_features:
        tables.update(_envelope_tables(args.overt_features, args.covert_features))
    if not tables:
        raise ConfigError("report: nothing to do; pass at least one input")
    paths = {name: Path(args.out_dir) / name for name in tables}
    fileio.check_outputs(*paths.values(), inputs=[
        *(args.train_report or ()), args.transfer_report, args.overt_features,
        args.covert_features])
    for name, rows in tables.items():
        print(f"wrote {fileio.write_csv(rows, paths[name])}")
    return 0


def _transfer_summary(report, path) -> list:
    """A transfer report's summary, checked as ``_transfer_rows`` reads it:
    every entry holds a finite budget, transfer mean and stdev, and a scratch
    mean and stdev if any entry does. Anything else is a DataError."""
    summary = report.get("summary")
    if not isinstance(summary, list) or not all(isinstance(e, dict) for e in summary):
        raise DataError(f"{path}: no summary list of budget entries")
    scratch = ["scratch_mean", "scratch_stdev"]
    keys = ["budget", "transfer_mean", "transfer_stdev"]
    keys += scratch if any(key in entry for entry in summary for key in scratch) else []
    for index, entry in enumerate(summary):
        for key in keys:
            if not _is_finite(entry.get(key)):
                raise DataError(f"{path}: summary entry {index} needs a finite number for "
                                f"{key}, got {entry.get(key)!r}")
    return summary


def _is_finite(value) -> bool:
    """True for a JSON number that is finite (not a bool, NaN or infinite)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _envelope_tables(overt_path, covert_path) -> dict:
    """Rows of the per-class envelope means and correlation tables."""
    overt = fileio.read_features(overt_path)
    covert = fileio.read_features(covert_path)
    if overt.data.shape != covert.data.shape:
        raise DataError("overt/covert feature files have different shapes")
    means = [["class", "channel", "overt_mean_env", "covert_mean_env"]]
    corrs = [["class", "channel", "pearson_r"]]
    env_o, env_c = overt.envelope_block(), covert.envelope_block()
    for cls, name in enumerate(default_class_names(max(overt.n_classes, covert.n_classes))):
        cls_o, cls_c = env_o[overt.labels == cls], env_c[covert.labels == cls]
        for path, block in ((overt_path, cls_o), (covert_path, cls_c)):
            if not len(block):
                raise DataError(f"{path}: no trials of {name}")
        mean_o, mean_c = cls_o.mean(axis=(0, 1)), cls_c.mean(axis=(0, 1))
        means += [[name, ch, _fmt(o), _fmt(c)] for ch, (o, c) in enumerate(zip(mean_o, mean_c))]
        corr = envelope_correlation(cls_o.mean(axis=0), cls_c.mean(axis=0))
        corrs += [[name, ch, _fmt(r)] for ch, r in enumerate(corr.per_channel_r)]
        corrs.append([name, "max", _fmt(corr.max_r)])
    return {"envelope_means.csv": means, "envelope_correlation.csv": corrs}


def _accuracy_rows(train_reports) -> list:
    """The accuracy table: a row per subject and a column per model, each cell
    a train report's CV mean or else its holdout accuracy. A report without
    an accuracy, or a second one for a subject and model, is a DataError."""
    rows, models = {}, []
    for path in train_reports:
        report = fileio.load_json(path)
        subject = report.get("subject", Path(path).stem)
        model = report.get("model", "model")
        if not (isinstance(subject, str) and isinstance(model, str)):
            raise DataError(f"{path}: 'subject' and 'model' must be strings")
        if not all(isinstance(report[key], dict) for key in ("cv", "holdout") if key in report):
            raise DataError(f"{path}: 'cv' and 'holdout' must be objects")
        source = report.get("cv") or report.get("holdout") or {}
        acc = source.get("mean_accuracy", source.get("holdout_accuracy"))
        if acc is None:
            raise DataError(f"{path}: no CV mean or holdout accuracy")
        if not _is_finite(acc):
            raise DataError(f"{path}: accuracy {acc!r} is not a finite number")
        if model in rows.get(subject, {}):
            raise DataError(f"{path}: a second {model} report for subject {subject!r}")
        if model not in models:
            models.append(model)
        rows.setdefault(subject, {})[model] = acc
    return [["subject"] + models] + [
        [subject] + [_fmt(rows[subject].get(m)) for m in models] for subject in sorted(rows)
    ]


def _fmt(value):
    return "" if value is None else f"{float(value):.6f}"


def cmd_validate(args) -> int:
    failures = sum(not _validate(Path(raw)) for raw in args.paths)
    if failures:
        raise DataError(f"validation failed for {failures} file(s)")
    return 0


def _validate(path) -> bool:
    """Check one file and print what was found; True if it is valid."""
    readers = {".eegr": fileio.read_recording, ".epoc": fileio.read_epochs,
               ".ften": fileio.read_features, ".rmdl": fileio.load_model}
    if not path.exists():
        print(f"{path}: MISSING")
    elif path.suffix != ".json" and path.suffix not in readers:
        print(f"{path}: unknown file type {path.suffix!r}")
    else:
        try:
            if path.suffix == ".json":
                return _validate_manifest(path)
            print(f"{path}: ok ({_describe(readers[path.suffix](path))})")
            return True
        except CovertDecodeError as exc:
            print(f"{path}: INVALID ({exc})")
    return False


def _validate_manifest(path) -> bool:
    files = fileio.load_json(path).get("files")
    if not isinstance(files, list) or not all(
        isinstance(e, dict) and isinstance(e.get("path"), str) and isinstance(e.get("sha256"), str)
        for e in files
    ):
        raise FileFormatError(f"{path}: 'files' must list objects with string path and sha256")
    ok = True
    for entry in files:
        name = entry["path"]
        if name in ("", ".", "..") or Path(name).name != name:
            print(f"{path}: listed path {name!r} is not a bare file name")
            ok = False
        elif not (path.parent / name).is_file():
            print(f"{path}: missing listed file {name}")
            ok = False
        elif fileio.sha256_file(path.parent / name) != entry["sha256"]:
            print(f"{path}: checksum mismatch for {name}")
            ok = False
    if ok:
        print(f"{path}: ok (manifest, {len(files)} files)")
    return ok


def _describe(obj) -> str:
    name = type(obj).__name__
    shape = getattr(getattr(obj, "data", None), "shape", None)
    if shape is not None:
        return f"{name} {'x'.join(str(s) for s in shape)}"
    if hasattr(obj, "parameter_count"):
        return f"{name} with {obj.parameter_count()} parameters"
    return name


# ---------------------------------------------------------------------------
# parser


def _add_common(parser, config: bool = True, seed: bool = True):
    if config:
        parser.add_argument("--config", help="flat key=value config file")
        parser.add_argument(
            "--set", action="append", metavar="KEY=VALUE", help="override one config key"
        )
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="run seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covert-decode",
        description="EEG speech decoding pipeline: preprocess, extract Hilbert "
        "features, train recurrent classifiers, transfer overt to covert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired overt/covert subject")
    p.add_argument("--spec", dest="config", help="flat key=value synthesis spec")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--subject", default="synthetic")
    p.add_argument("--emit", choices=("recordings", "epochs"), default="recordings")
    _add_common(p, config=False)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="filter, run ICA, and epoch a recording")
    p.add_argument("--input", required=True, help="recording file (.eegr)")
    p.add_argument("--out", required=True, help="output epochs file (.epoc)")
    p.add_argument("--condition", default="overt", choices=("overt", "covert"))
    _add_common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("features", help="extract envelope/fine-structure features")
    p.add_argument("--input", required=True, help="epochs file (.epoc)")
    p.add_argument("--out", required=True, help="output feature file (.ften)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="cross-validate and train a classifier")
    p.add_argument("--features", required=True, help="feature file (.ften)")
    p.add_argument("--model", choices=RECURRENT_KINDS, default=None)
    p.add_argument("--cv", dest="cv_folds", type=int, help="number of folds (>= 2; 0 skips CV)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--checkpoint", help="model checkpoint path (.rmdl)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a feature file")
    p.add_argument("--model", dest="checkpoint", required=True, help="checkpoint (.rmdl)")
    p.add_argument("--features", required=True, help="feature file (.ften)")
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transfer", help="freeze a source model and fine-tune on covert budgets")
    p.add_argument("--source", required=True, help="source checkpoint (.rmdl)")
    p.add_argument("--covert", required=True, help="covert feature file (.ften)")
    p.add_argument("--budgets", help="comma-separated fractions, e.g. 0.15,0.2,0.25,0.3")
    p.add_argument("--seeds", dest="transfer_seeds", type=int, help="number of sweep seeds")
    p.add_argument("--no-scratch", action="store_true", help="skip from-scratch baselines")
    p.add_argument("--out", required=True, help="report JSON path (CSV written alongside)")
    _add_common(p)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("report", help="render stored reports and features to CSV tables")
    p.add_argument("--train-report", action="append", help="train report JSON (repeatable)")
    p.add_argument("--transfer-report", help="transfer report JSON")
    p.add_argument("--overt-features", help="overt feature file for envelope tables")
    p.add_argument("--covert-features", help="covert feature file for envelope tables")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("validate", help="check data files for format problems")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CovertDecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
