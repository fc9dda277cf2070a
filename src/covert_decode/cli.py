"""Command-line entry point wiring the pipeline together.

Subcommands: synth, preprocess, features, train, evaluate, transfer,
report, validate. Every command is deterministic given its config and seed;
the COVERT_DECODE_SEED environment variable overrides the config seed and an
explicit --seed flag overrides both. Exit codes: 0 success, 2 config error,
3 data error, 4 numeric failure.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, synth
from .config import (
    PIPELINE_DEFAULTS,
    SYNTH_DEFAULTS,
    RunConfig,
    load_kv_file,
)
from .containers import Condition, EegRecording, default_class_names
from .errors import ConfigError, CovertDecodeError, DataError
from .evaluation import accuracy_from_confusion, confusion_matrix
from .experiments import (
    make_report,
    model_specs_from_config,
    run_cv,
    train_holdout,
)
from .features import envelope_correlation, extract_features
from .ica import fastica_decompose, ica_reconstruct
from .preprocessing import (
    design_butterworth_bandpass,
    design_notch,
    epoch_and_baseline,
    filter_zero_phase,
)
from .training import TrainConfig, predict
from .transfer import TransferPlan, transfer_sweep

MODEL_KINDS = ("lstm", "gru", "bilstm", "bigru")


def _resolve_seed(arg_seed, config_seed: int) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("COVERT_DECODE_SEED")
    if env is not None and env.strip():
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"COVERT_DECODE_SEED must be an integer, got {env!r}") from exc
    return int(config_seed)


def _load_config(args, defaults=PIPELINE_DEFAULTS) -> RunConfig:
    cfg = RunConfig(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        cfg.update(load_kv_file(config_path))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg.update({key.strip(): value.strip()})
    return cfg


def _require_file(path) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    return path


def _train_config(cfg: RunConfig, **overrides) -> TrainConfig:
    kwargs = dict(
        learning_rate=cfg["learning_rate"],
        beta1=cfg["beta1"],
        beta2=cfg["beta2"],
        epsilon=cfg["epsilon"],
        batch_size=cfg["batch_size"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        validation_fraction=cfg["validation_fraction"],
    )
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def _model_specs(cfg: RunConfig, kind: str, input_size: int, n_classes: int):
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    hidden = cfg.int_list("hidden_units")
    dropout = cfg.float_list("dropout_rates")
    if len(hidden) != len(dropout):
        raise ConfigError("hidden_units and dropout_rates must have the same length")
    return model_specs_from_config(
        kind,
        input_size,
        hidden=hidden,
        dropout=dropout,
        n_classes=n_classes,
        merge_mode=cfg["merge_mode"],
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = RunConfig(SYNTH_DEFAULTS)
    if args.spec:
        cfg.update(load_kv_file(args.spec))
    seed = _resolve_seed(args.seed, cfg["seed"])
    spec = synth.SynthSpec(
        n_classes=cfg["n_classes"],
        trials_per_class=cfg["trials_per_class"],
        n_channels=cfg["n_channels"],
        sample_rate_hz=cfg["sample_rate_hz"],
        epoch_seconds=cfg["epoch_seconds"],
        components_per_class=cfg["components_per_class"],
        cross_condition_rho=cfg["cross_condition_rho"],
        attenuation=cfg["attenuation"],
        noise_sigma=cfg["noise_sigma"],
        envelope_bandwidth_hz=cfg["envelope_bandwidth_hz"],
        envelope_jitter=cfg["envelope_jitter"],
        phase_jitter=cfg["phase_jitter"],
        seed=seed,
    )
    overt, covert, manifest = synth.generate_paired(spec)
    if args.emit == "epochs":
        datasets = {"overt": overt, "covert": covert}
    else:
        datasets = {
            "overt": synth.to_recording(overt, gap_seconds=cfg["gap_seconds"], seed=seed),
            "covert": synth.to_recording(covert, gap_seconds=cfg["gap_seconds"], seed=seed),
        }
    manifest_path = synth.write_manifest(
        datasets, args.out, subject=args.subject, seed=seed, class_names=list(spec.class_names)
    )
    print(f"wrote {len(datasets)} {args.emit} files and {manifest_path}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args.seed, cfg["seed"])
    # design both filters before touching any input so config mistakes
    # surface immediately
    notch = design_notch(cfg["notch_hz"], cfg["notch_q"], cfg["sample_rate_hz"])
    bandpass = design_butterworth_bandpass(
        cfg["bandpass_order"],
        cfg["bandpass_low_hz"],
        cfg["bandpass_high_hz"],
        cfg["sample_rate_hz"],
    )
    in_path = _require_file(args.input)
    recording = fileio.read_recording(in_path)
    if recording.sample_rate_hz != cfg["sample_rate_hz"]:
        notch = design_notch(cfg["notch_hz"], cfg["notch_q"], recording.sample_rate_hz)
        bandpass = design_butterworth_bandpass(
            cfg["bandpass_order"],
            cfg["bandpass_low_hz"],
            cfg["bandpass_high_hz"],
            recording.sample_rate_hz,
        )

    data = filter_zero_phase(recording.data, notch)
    data = filter_zero_phase(data, bandpass)
    filtered = EegRecording(
        data=data,
        sample_rate_hz=recording.sample_rate_hz,
        channel_labels=recording.channel_labels,
        markers=recording.markers,
    )
    if cfg["ica_enabled"]:
        n_components = cfg["ica_components"] or filtered.n_channels
        decomp = fastica_decompose(
            filtered,
            n_components=n_components,
            max_iter=cfg["ica_max_iter"],
            tol=cfg["ica_tol"],
            seed=seed,
        )
        excluded = cfg.int_list("ica_exclude")
        cleaned = ica_reconstruct(decomp, excluded)
        filtered = EegRecording(
            data=cleaned,
            sample_rate_hz=recording.sample_rate_hz,
            channel_labels=recording.channel_labels,
            markers=recording.markers,
        )
    epochs, skipped = epoch_and_baseline(
        filtered,
        cfg["epoch_seconds"],
        cfg["baseline_ms"],
        condition=Condition.parse(args.condition),
    )
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_epochs(epochs, out_path)
    fileio.dump_json(skipped.to_dict(), str(out_path) + ".skipped.json")
    fileio.write_provenance(out_path, "preprocess", [in_path], cfg.effective())
    print(
        f"wrote {epochs.n_trials} epochs ({epochs.n_timesteps} x {epochs.n_channels}) "
        f"to {out_path}; skipped {skipped.n_skipped} trials"
    )
    return 0


def cmd_features(args) -> int:
    cfg = _load_config(args)
    in_path = _require_file(args.input)
    epochs = fileio.read_epochs(in_path)
    tensor = extract_features(epochs, env_floor_rel=cfg["env_floor_rel"])
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fileio.write_features(tensor, out_path)
    fileio.write_provenance(out_path, "features", [in_path], cfg.effective())
    print(
        f"wrote features {tensor.n_trials} x {tensor.n_timesteps} x {tensor.n_features} "
        f"to {out_path}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args.seed, cfg["seed"])
    feat_path = _require_file(args.features)
    features = fileio.read_features(feat_path)
    kind = args.model or cfg["model"]
    specs = _model_specs(cfg, kind, features.n_features, features.n_classes)
    train_config = _train_config(cfg)

    payload = {"model": kind, "n_trials": features.n_trials}
    k = args.cv if args.cv is not None else cfg["cv_folds"]
    if k >= 2:
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

    inputs = [fileio.input_record(feat_path)]
    if args.checkpoint:
        ckpt = Path(args.checkpoint)
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        fileio.save_model(model, ckpt)
        payload["checkpoint"] = fileio.input_record(ckpt)
        print(f"checkpoint saved to {ckpt}")
    report = make_report("train", cfg.effective(), payload, inputs=inputs, seeds=[seed])
    fileio.dump_json(report, args.out)
    print(f"report written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    model_path = _require_file(args.model)
    feat_path = _require_file(args.features)
    model = fileio.load_model(model_path)
    features = fileio.read_features(feat_path)
    if model.input_size != features.n_features:
        raise DataError(
            f"model expects {model.input_size} features, file has {features.n_features}"
        )
    if features.n_trials and features.labels.max() >= model.n_classes:
        raise DataError(
            f"file has labels up to {features.labels.max()}, "
            f"model predicts {model.n_classes} classes"
        )
    # one prediction pass; the matrix is sized by the model, so classes the
    # file lacks get a row of zeros and a default name
    y_pred = predict(model, features.data, cfg["batch_size"])
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
    report = make_report(
        "evaluate",
        cfg.effective(),
        payload,
        inputs=[fileio.input_record(model_path), fileio.input_record(feat_path)],
    )
    fileio.dump_json(report, args.out)
    print(f"accuracy {accuracy:.4f} on {features.n_trials} trials; report at {args.out}")
    return 0


def cmd_transfer(args) -> int:
    cfg = _load_config(args)
    seed = _resolve_seed(args.seed, cfg["seed"])
    source_path = _require_file(args.source)
    covert_path = _require_file(args.covert)
    source = fileio.load_model(source_path)
    covert = fileio.read_features(covert_path)
    if source.input_size != covert.n_features:
        raise DataError(
            f"source model expects {source.input_size} features, file has {covert.n_features}"
        )
    budgets = (
        [float(b) for b in args.budgets.split(",")] if args.budgets else cfg.float_list("budgets")
    )
    n_seeds = args.seeds if args.seeds is not None else cfg["transfer_seeds"]
    plan = TransferPlan(
        budgets=tuple(budgets),
        test_fraction=cfg["test_fraction"],
        reinit_head=cfg["reinit_head"],
        seeds=tuple(seed + i for i in range(n_seeds)),
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
        cfg.effective(),
        payload,
        inputs=[fileio.input_record(source_path), fileio.input_record(covert_path)],
        seeds=plan.seeds,
    )
    fileio.dump_json(report, args.out)
    csv_path = Path(args.out).with_suffix(".csv")
    _write_transfer_csv(payload["summary"], csv_path)
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


def _write_transfer_csv(summary, path):
    fields = ["budget", "transfer_mean", "transfer_stdev"]
    if summary and "scratch_mean" in summary[0]:
        fields += ["scratch_mean", "scratch_stdev"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for entry in summary:
            writer.writerow(entry)


def cmd_report(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []

    if args.train_report:
        rows = {}
        models = []
        for path in args.train_report:
            report = fileio.load_json(_require_file(path))
            model = report.get("model", "model")
            subject = report.get("subject", Path(path).stem)
            if model not in models:
                models.append(model)
            source = report.get("cv") or report.get("holdout") or {}
            acc = source.get("mean_accuracy", source.get("holdout_accuracy"))
            rows.setdefault(subject, {})[model] = acc
        table_path = out_dir / "accuracy_table.csv"
        with open(table_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject"] + models)
            for subject in sorted(rows):
                writer.writerow(
                    [subject] + [_fmt(rows[subject].get(m)) for m in models]
                )
        wrote.append(table_path)

    if args.transfer_report:
        report = fileio.load_json(_require_file(args.transfer_report))
        budget_path = out_dir / "transfer_budgets.csv"
        _write_transfer_csv(report["summary"], budget_path)
        wrote.append(budget_path)

    if args.overt_features and args.covert_features:
        overt = fileio.read_features(_require_file(args.overt_features))
        covert = fileio.read_features(_require_file(args.covert_features))
        if overt.data.shape != covert.data.shape:
            raise DataError("overt/covert feature files have different shapes")
        means_path = out_dir / "envelope_means.csv"
        corr_path = out_dir / "envelope_correlation.csv"
        with open(means_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "channel", "overt_mean_env", "covert_mean_env"])
            for cls in range(overt.n_classes):
                env_o = overt.envelope_block()[overt.labels == cls].mean(axis=(0, 1))
                env_c = covert.envelope_block()[covert.labels == cls].mean(axis=(0, 1))
                for ch in range(overt.n_channels):
                    writer.writerow(
                        [overt.class_names[cls], ch, _fmt(env_o[ch]), _fmt(env_c[ch])]
                    )
        with open(corr_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "channel", "pearson_r"])
            for cls in range(overt.n_classes):
                env_o = overt.envelope_block()[overt.labels == cls].mean(axis=0)
                env_c = covert.envelope_block()[covert.labels == cls].mean(axis=0)
                corr = envelope_correlation(env_o, env_c)
                for ch in range(overt.n_channels):
                    writer.writerow([overt.class_names[cls], ch, _fmt(corr.per_channel_r[ch])])
                writer.writerow([overt.class_names[cls], "max", _fmt(corr.max_r)])
        wrote.extend([means_path, corr_path])

    if not wrote:
        raise ConfigError("report: nothing to do; pass at least one input")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def _fmt(value):
    return "" if value is None else f"{float(value):.6f}"


def cmd_validate(args) -> int:
    readers = {
        ".eegr": fileio.read_recording,
        ".epoc": fileio.read_epochs,
        ".ften": fileio.read_features,
        ".rmdl": fileio.load_model,
    }
    failures = 0
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"{path}: MISSING")
            failures += 1
            continue
        if path.suffix == ".json":
            ok = _validate_manifest(path)
            failures += 0 if ok else 1
            continue
        reader = readers.get(path.suffix)
        if reader is None:
            print(f"{path}: unknown file type {path.suffix!r}")
            failures += 1
            continue
        try:
            obj = reader(path)
        except CovertDecodeError as exc:
            print(f"{path}: INVALID ({exc})")
            failures += 1
            continue
        print(f"{path}: ok ({_describe(obj)})")
    if failures:
        raise DataError(f"validation failed for {failures} file(s)")
    return 0


def _validate_manifest(path) -> bool:
    manifest = fileio.load_json(path)
    ok = True
    for entry in manifest.get("files", []):
        target = path.parent / entry["path"]
        if not target.exists():
            print(f"{path}: missing listed file {entry['path']}")
            ok = False
            continue
        digest = fileio.sha256_file(target)
        if digest != entry.get("sha256"):
            print(f"{path}: checksum mismatch for {entry['path']}")
            ok = False
    if ok:
        print(f"{path}: ok (manifest, {len(manifest.get('files', []))} files)")
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
    p.add_argument("--spec", help="flat key=value synthesis spec")
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
    p.add_argument("--model", choices=MODEL_KINDS, default=None)
    p.add_argument("--cv", type=int, default=None, help="number of folds (>= 2; 0 skips CV)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--checkpoint", help="model checkpoint path (.rmdl)")
    p.add_argument("--jobs", type=int, default=1, help="worker cap (runs serially)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a feature file")
    p.add_argument("--model", required=True, help="checkpoint (.rmdl)")
    p.add_argument("--features", required=True, help="feature file (.ften)")
    p.add_argument("--out", required=True, help="report JSON path")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("transfer", help="freeze a source model and fine-tune on covert budgets")
    p.add_argument("--source", required=True, help="source checkpoint (.rmdl)")
    p.add_argument("--covert", required=True, help="covert feature file (.ften)")
    p.add_argument("--budgets", help="comma-separated fractions, e.g. 0.15,0.2,0.25,0.3")
    p.add_argument("--seeds", type=int, default=None, help="number of sweep seeds")
    p.add_argument("--no-scratch", action="store_true", help="skip from-scratch baselines")
    p.add_argument("--out", required=True, help="report JSON path (CSV written alongside)")
    p.add_argument("--jobs", type=int, default=1, help="worker cap (runs serially)")
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
    jobs = getattr(args, "jobs", 1)
    if jobs is not None and jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CovertDecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
