"""The benchmark's workloads.

Each workload is a closed loop in one process: the next call starts when the
previous one has returned. ``setup`` builds the inputs from the seed,
``prepare`` resets state before each timed pass, ``body`` is the timed pass
and ``check`` validates what the pass produced, outside the timed region.

Every command and API call is one operation. An operation fails when it
exits non-zero or raises, has a non-finite loss (the program raises
``NumericError``), breaks the transfer freeze contract, or scores below an
accuracy floor recorded here.
"""

import hashlib
import io
import json
import math
import statistics
import struct
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

RECURRENT_KINDS = ("lstm", "gru", "bilstm", "bigru")

# Accuracy floors. Chance is 0.2 with five classes; the floors sit well
# above chance and well below what the sizes below reached on every seed tried.
DESK_FLOORS = {"cv": 0.35, "evaluate": 0.35, "transfer": 0.5}

# FastICA runs a fixed number of sweeps: its tolerance is set below what the
# solver reaches, so every seed does the same work per pass.
ICA_SWEEPS = 25
ICA_UNREACHED_TOL = 1e-12


class Ops:
    """Attempted operations and the reasons any of them failed."""

    def __init__(self):
        self.labels = []
        self.failures = {}

    def start(self, label: str) -> int:
        self.labels.append(label)
        return len(self.labels) - 1

    def flag(self, op: int, reason: str):
        self.failures.setdefault(op, []).append(reason)

    @property
    def attempted(self) -> int:
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def messages(self):
        return [f"{self.labels[op]}: {'; '.join(why)}" for op, why in sorted(self.failures.items())]


def digest_output(path: Path) -> str:
    """sha256 of a report or table; JSON reports lose their timestamp first."""
    if path.suffix == ".json":
        report = json.loads(path.read_text())
        report.pop("timestamp", None)
        data = json.dumps(report, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def recording_samples(path: Path) -> int:
    """Channel-samples in an .eegr recording, read from its header."""
    with open(path, "rb") as fh:
        header = fh.read(20)
    n_channels, n_samples = struct.unpack("<IQ", header[8:20])
    return n_channels * n_samples


def _write_kv(path: Path, values: dict):
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


class Workload:
    name = ""
    why = ""

    def __init__(self, cd, seed: int, smoke: bool):
        self.cd = cd
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        raise NotImplementedError

    def raw_samples(self) -> int:
        """Channel-samples the pass feeds to ``covert-decode preprocess``."""
        return 0

    def working_set_bytes(self):
        return None

    def prepare(self):
        """Untimed reset before each timed pass."""

    def body(self, rec, ops):
        raise NotImplementedError

    def check(self, obs, ops) -> dict:
        raise NotImplementedError

    def run_cli(self, rec, ops, command, *argv) -> int:
        """One covert-decode command through ``cli.main``; returns its op id."""
        op = ops.start(f"covert-decode {command}")
        sink = io.StringIO()
        main = rec.wrap(f"cli.{command}", self.cd.cli.main)
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = main([command, *argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            tail = sink.getvalue().strip()[-300:]
            ops.flag(op, f"returned {code!r} {tail}")
        return op


class CliWorkload(Workload):
    """A workload driven through ``cli.main`` from a synthesized subject.

    Subclasses set ``subject`` (the synth spec) and ``config`` (the pipeline
    config every command reads from ``run.cfg``).
    """

    def setup(self):
        _write_kv(Path("subject.kv"), self.subject)
        _write_kv(Path("run.cfg"), self.config)
        code = self.cd.cli.main(["synth", "--spec", "subject.kv", "--out", "data",
                                 "--seed", str(self.seed)])
        if code != 0:
            raise RuntimeError(f"covert-decode synth returned {code}")

    def raw_samples(self) -> int:
        return sum(recording_samples(Path(f"data/synthetic_{c}.eegr"))
                   for c in ("overt", "covert"))


class DeskProtocol(CliWorkload):
    """The paper protocol through the CLI at desk scale."""

    name = "desk_protocol"
    why = ("paper protocol through the CLI at desk scale: four recurrent kinds at H<=32, "
           "where per-timestep call overhead does the work, plus the transfer sweep")

    def __init__(self, cd, seed, smoke):
        super().__init__(cd, seed, smoke)
        if smoke:
            self.subject = {"n_channels": 4, "trials_per_class": 8, "sample_rate_hz": 250,
                            "epoch_seconds": 0.4}
            hidden, batch = "6,4", 8
        else:
            self.subject = {"n_channels": 16, "trials_per_class": 16, "sample_rate_hz": 250,
                            "epoch_seconds": 0.5}
            hidden, batch = "32,16", 16
        self.floors = {key: 0.0 for key in DESK_FLOORS} if smoke else DESK_FLOORS
        self.config = {
            "sample_rate_hz": self.subject["sample_rate_hz"],
            "epoch_seconds": self.subject["epoch_seconds"],
            "ica_tol": ICA_UNREACHED_TOL,
            "ica_max_iter": 5 if smoke else ICA_SWEEPS,
            "hidden_units": hidden,
            "batch_size": batch,
            "learning_rate": 0.01,
            # patience above max_epochs: no seed stops early, so every seed
            # trains the same number of trial-epochs
            "max_epochs": 1,
            "patience": 2,
        }

    def body(self, rec, ops):
        seed = str(self.seed)
        cfg = ("--config", "run.cfg")
        ops_by_name = {}
        for cond in ("overt", "covert"):
            ops_by_name[f"preprocess_{cond}"] = self.run_cli(
                rec, ops, "preprocess", "--input", f"data/synthetic_{cond}.eegr",
                "--out", f"{cond}.epoc", "--condition", cond, "--seed", seed, *cfg)
            ops_by_name[f"features_{cond}"] = self.run_cli(
                rec, ops, "features", "--input", f"{cond}.epoc", "--out", f"{cond}.ften", *cfg)
        for kind in RECURRENT_KINDS:
            ops_by_name[f"train_{kind}"] = self.run_cli(
                rec, ops, "train", "--features", "overt.ften", "--model", kind, "--cv", "3",
                "--out", f"train_{kind}.json", "--checkpoint", f"{kind}.rmdl",
                "--seed", seed, *cfg)
        ops_by_name["evaluate"] = self.run_cli(
            rec, ops, "evaluate", "--model", "bilstm.rmdl", "--features", "covert.ften",
            "--out", "evaluate.json", *cfg)
        ops_by_name["transfer"] = self.run_cli(
            rec, ops, "transfer", "--source", "bilstm.rmdl", "--covert", "covert.ften",
            "--seeds", "3", "--out", "transfer.json", "--seed", seed, *cfg)
        train_reports = []
        for kind in RECURRENT_KINDS:
            train_reports += ["--train-report", f"train_{kind}.json"]
        ops_by_name["report"] = self.run_cli(
            rec, ops, "report", *train_reports, "--transfer-report", "transfer.json",
            "--overt-features", "overt.ften", "--covert-features", "covert.ften",
            "--out-dir", "tables")
        return ops_by_name

    def check(self, obs, ops):
        failed = set(ops.failures)
        out = {"digests": {}}
        cv = []
        for kind in RECURRENT_KINDS:
            op = obs[f"train_{kind}"]
            if op in failed:
                continue
            report = json.loads(Path(f"train_{kind}.json").read_text())
            acc = report["cv"]["mean_accuracy"]
            cv.append(acc)
            if not acc >= self.floors["cv"]:
                ops.flag(op, f"{kind} CV accuracy {acc:.4f} below floor {self.floors['cv']}")
        if cv:
            out["cv_accuracy"] = sum(cv) / len(cv)
        if obs["evaluate"] not in failed:
            acc = json.loads(Path("evaluate.json").read_text())["accuracy"]
            if not acc >= self.floors["evaluate"]:
                ops.flag(obs["evaluate"], f"evaluate accuracy {acc:.4f} below floor")
        if obs["transfer"] not in failed:
            report = json.loads(Path("transfer.json").read_text())
            for run in report["runs"]:
                if run["recurrent_hash_before"] != run["recurrent_hash_after"]:
                    ops.flag(obs["transfer"], f"freeze contract broken: seed {run['seed']} "
                             f"budget {run['budget']}")
            acc = report["summary"][-1]["transfer_mean"]
            out["transfer_accuracy"] = acc
            if not acc >= self.floors["transfer"]:
                ops.flag(obs["transfer"], f"transfer accuracy {acc:.4f} below floor")
        outputs = [Path(f"train_{kind}.json") for kind in RECURRENT_KINDS]
        outputs += [Path("evaluate.json"), Path("transfer.json"), Path("transfer.csv")]
        outputs += sorted(Path("tables").glob("*.csv"))
        for path in outputs:
            if path.exists():
                out["digests"][str(path)] = digest_output(path)
        return out


class PaperFrontend(CliWorkload):
    """The paper-scale signal front end through the CLI."""

    name = "paper_frontend"
    why = ("paper-scale front end through the CLI (64 ch, 500 Hz, 2 s epochs): FastICA, "
           "sosfiltfilt, batched-FFT features and large file writes; no recurrent code")

    def __init__(self, cd, seed, smoke):
        super().__init__(cd, seed, smoke)
        if smoke:
            self.subject = {"n_channels": 8, "trials_per_class": 3, "sample_rate_hz": 250,
                            "epoch_seconds": 0.4}
        else:
            # SYNTH_DEFAULTS (64 channels, 500 Hz, 2 s epochs) with fewer trials
            self.subject = {"trials_per_class": 12}
        defaults = cd.config.SYNTH_DEFAULTS
        self.n_channels = self.subject.get("n_channels", defaults["n_channels"])
        self.n_trials = self.subject["trials_per_class"] * defaults["n_classes"]
        rate = self.subject.get("sample_rate_hz", defaults["sample_rate_hz"])
        epoch_s = self.subject.get("epoch_seconds", defaults["epoch_seconds"])
        self.n_timesteps = int(round(rate * epoch_s))
        self.config = {"sample_rate_hz": rate, "epoch_seconds": epoch_s,
                       "ica_tol": ICA_UNREACHED_TOL,
                       "ica_max_iter": 5 if smoke else ICA_SWEEPS}

    def working_set_bytes(self) -> int:
        """float64 bytes of one recording, the array FastICA sweeps over."""
        return 8 * recording_samples(Path("data/synthetic_overt.eegr"))

    def body(self, rec, ops):
        seed = str(self.seed)
        ops_by_name = {}
        for cond in ("overt", "covert"):
            ops_by_name[f"preprocess_{cond}"] = self.run_cli(
                rec, ops, "preprocess", "--input", f"data/synthetic_{cond}.eegr",
                "--out", f"{cond}.epoc", "--condition", cond, "--seed", seed,
                "--config", "run.cfg")
            ops_by_name[f"features_{cond}"] = self.run_cli(
                rec, ops, "features", "--input", f"{cond}.epoc", "--out", f"{cond}.ften",
                "--config", "run.cfg")
        return ops_by_name

    def check(self, obs, ops):
        import numpy as np

        failed = set(ops.failures)
        out = {"digests": {}}
        for cond in ("overt", "covert"):
            op = obs[f"preprocess_{cond}"]
            if op not in failed:
                skipped = json.loads(Path(f"{cond}.epoc.skipped.json").read_text())
                if skipped["n_skipped"] or skipped["kept"] != self.n_trials:
                    ops.flag(op, f"kept {skipped['kept']} of {self.n_trials} trials")
            op = obs[f"features_{cond}"]
            if op in failed:
                continue
            features = self.cd.fileio.read_features(Path(f"{cond}.ften"))
            want = (self.n_trials, self.n_timesteps, 2 * self.n_channels)
            if features.data.shape != want:
                ops.flag(op, f"feature shape {features.data.shape}, expected {want}")
            elif not np.isfinite(features.data).all():
                ops.flag(op, "non-finite features")
            elif (features.envelope_block() < 0).any():
                ops.flag(op, "negative envelope")
            for path in (Path(f"{cond}.ften"), Path(f"{cond}.ften.prov.json"),
                         Path(f"{cond}.epoc.prov.json")):
                out["digests"][str(path)] = digest_output(path)
        return out


class PaperTrain(Workload):
    """Paper-width recurrent training and inference through the public API."""

    name = "paper_train"
    why = ("paper-width BiLSTM/BiGRU 512/256 on 128 features through the API: BLAS GEMMs "
           "on MB-sized weights and Adam over millions of parameters")

    KINDS = ("bilstm", "bigru")

    def __init__(self, cd, seed, smoke):
        super().__init__(cd, seed, smoke)
        if smoke:
            self.channels, self.hidden, self.trials, self.batch, self.steps = 4, (16, 8), 16, 8, 1
            self.epoch_seconds = 0.05
        else:
            self.channels, self.hidden, self.trials, self.batch, self.steps = (
                64, (512, 256), 128, 32, 1)
            self.epoch_seconds = 0.2  # T = 100 at 500 Hz
        self.models = {}

    def setup(self):
        cd = self.cd
        n_classes = 5
        per_class = -(-self.trials // n_classes)
        spec = cd.synth.SynthSpec(n_channels=self.channels, sample_rate_hz=500.0,
                                  epoch_seconds=self.epoch_seconds,
                                  trials_per_class=per_class, seed=self.seed)
        overt, _, _ = cd.synth.generate_paired(spec)
        features = cd.features.extract_features(overt)
        self.x = features.data[: self.trials].astype("float32")
        self.y = features.labels[: self.trials]
        self.models = {}
        for kind in self.KINDS:
            specs = cd.network.classifier_specs(kind, self.x.shape[2], hidden=self.hidden,
                                                dropout=(0.3, 0.2), n_classes=n_classes)
            self.models[kind] = cd.network.build_model(specs, seed=self.seed)
        self.initial = {kind: {k: v.copy() for k, v in m.trainable_params().items()}
                        for kind, m in self.models.items()}

    def prepare(self):
        # every pass starts from the same weights and dropout stream, so
        # passes of one seed are identical
        for kind, model in self.models.items():
            params = model.trainable_params()
            for key, value in self.initial[kind].items():
                params[key][...] = value
        self.dropout_rngs = {kind: self.cd.rng.substream(self.seed, "dropout", kind)
                             for kind in self.KINDS}

    def body(self, rec, ops):
        cd = self.cd
        predict = rec.wrap("training.predict", cd.training.predict, work=lambda a, k, r: {
            "trials": len(a[1])})
        results = {}
        for kind in self.KINDS:
            model = self.models[kind]
            state = cd.optim.init_adam(model.trainable_params(), learning_rate=1e-4)
            losses, step_s = [], []
            for step in range(self.steps):
                rows = slice(step * self.batch, (step + 1) * self.batch)
                op = ops.start(f"train_step {kind}")
                start = time.perf_counter()
                try:
                    # looked up on the module at each call, so the
                    # benchmark's wrapper is the one that runs
                    loss, _ = cd.training.train_step(model, self.x[rows], self.y[rows], state,
                                                     self.dropout_rngs[kind])
                    step_s.append(time.perf_counter() - start)
                    losses.append(loss)
                except Exception as exc:  # NumericError for a non-finite loss
                    ops.flag(op, f"{type(exc).__name__}: {exc}")
            op = ops.start(f"predict {kind}")
            try:
                labels = predict(model, self.x, self.batch)
            except Exception as exc:
                ops.flag(op, f"{type(exc).__name__}: {exc}")
                labels = None
            results[kind] = (losses, step_s, labels, op)
        return results

    def check(self, obs, ops):
        out = {"digests": {}}
        for kind, (losses, step_s, labels, op) in obs.items():
            if step_s:
                out[f"{kind}_step_s"] = statistics.median(step_s)
            if labels is None:
                continue
            if len(labels) != self.trials or labels.min() < 0 or labels.max() >= 5:
                ops.flag(op, f"bad predictions for {kind}")
            if not all(math.isfinite(v) for v in losses):
                ops.flag(op, f"non-finite loss for {kind}")
            data = repr([float(v) for v in losses]).encode() + labels.astype("<i8").tobytes()
            out["digests"][kind] = hashlib.sha256(data).hexdigest()
        return out


WORKLOADS = {w.name: w for w in (DeskProtocol, PaperFrontend, PaperTrain)}
