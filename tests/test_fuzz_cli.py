"""Fuzzing the CLI's input boundary with hypothesis: corrupted binary files,
malformed JSON inputs and ``.kv`` spec and config text.

Through ``cli.main`` only exit 0, 2 or 3 may result; any other exception
would end the real CLI in a traceback. A command that exits 2 or 3 must leave
every file and directory under the work directory as it found them. Every
test is derandomized with a bounded example count, so the module runs in a
few seconds, and size keys are drawn only from small values, so no example
allocates more than a few MB.
"""

import contextlib
import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from covert_decode import fileio
from covert_decode.cli import main
from covert_decode.config import PIPELINE_DEFAULTS, SYNTH_DEFAULTS
from covert_decode.containers import Condition, EegRecording, EpochSet, FeatureTensor
from covert_decode.network import build_model, classifier_specs

FUZZ = settings(derandomize=True, max_examples=30, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def _tree(root):
    """Every path under ``root``: a file's sha256, None for a directory."""
    return {p: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in root.rglob("*")}


def _run(files, argv, allowed=(0, 2, 3)):
    """Run one command; one that exits 2 or 3 must leave the work dir as it was."""
    before = _tree(files["root"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in allowed, (argv, code, err.getvalue())
    if code in (2, 3):
        assert _tree(files["root"]) == before, (argv, code, err.getvalue())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small well-formed file of each binary kind, plus a work directory."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    recording = EegRecording(data=rng.standard_normal((3, 500)), sample_rate_hz=250.0,
                             channel_labels=["a", "b", "c"],
                             markers=[(50 + 100 * i, i % 2) for i in range(4)])
    epochs = EpochSet(data=rng.standard_normal((4, 12, 3)), labels=[0, 1, 0, 1],
                      condition=Condition.OVERT, sample_rate_hz=100.0, class_names=["a", "b"])
    features = FeatureTensor(data=rng.standard_normal((10, 6, 4)).astype(np.float32),
                             labels=np.repeat([0, 1], 5), condition=Condition.COVERT,
                             class_names=["a", "b"])
    model = build_model(classifier_specs("gru", 4, hidden=(3,), dropout=(0.1,), n_classes=2),
                        seed=0)
    return {
        "root": root,
        ".eegr": fileio.write_recording(recording, root / "ok.eegr"),
        ".epoc": fileio.write_epochs(epochs, root / "ok.epoc"),
        ".ften": fileio.write_features(features, root / "ok.ften"),
        ".rmdl": fileio.save_model(model, root / "ok.rmdl"),
    }


# ---------------------------------------------------------------------------
# binary readers

# (offset, struct format) of the sizes each header declares
SIZE_FIELDS = {
    ".eegr": [(8, "<I"), (12, "<Q"), (28, "<I")],
    ".epoc": [(8, "<I"), (12, "<I"), (16, "<I"), (29, "<I")],
    ".ften": [(8, "<I"), (12, "<I"), (16, "<I")],
    ".rmdl": [(8, "<I")],
}

MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(0, 7)),
    st.tuples(st.just("inflate"), st.integers(0, 3), st.integers(0, 2**64 - 1)),
)


def _mutate(raw: bytes, suffix: str, mutation) -> bytes:
    kind, a, *rest = mutation
    if kind == "truncate":
        return raw[: a % len(raw)]
    if kind == "flip":
        data = bytearray(raw)
        data[a % len(raw)] ^= 1 << rest[0]
        return bytes(data)
    offset, fmt = SIZE_FIELDS[suffix][a % len(SIZE_FIELDS[suffix])]
    value = rest[0] % 2 ** (8 * struct.calcsize(fmt))
    return raw[:offset] + struct.pack(fmt, value) + raw[offset + struct.calcsize(fmt):]


def _consumer(suffix, path, files):
    """A command that reads a file of this kind beyond validating it."""
    root = files["root"]
    return {
        ".eegr": ["preprocess", "--input", path, "--out", root / "o.epoc",
                  "--set", "sample_rate_hz=250", "--set", "epoch_seconds=0.2",
                  "--set", "bandpass_high_hz=60", "--set", "ica_max_iter=20"],
        ".epoc": ["features", "--input", path, "--out", root / "o.ften"],
        ".ften": ["evaluate", "--model", files[".rmdl"], "--features", path,
                  "--out", root / "o.json"],
        ".rmdl": ["evaluate", "--model", path, "--features", files[".ften"],
                  "--out", root / "o.json"],
    }[suffix]


@pytest.mark.parametrize("suffix", sorted(SIZE_FIELDS))
@FUZZ
@given(mutation=MUTATIONS)
def test_corrupted_binary_file(files, suffix, mutation):
    path = files["root"] / f"fuzzed{suffix}"
    path.write_bytes(_mutate(files[suffix].read_bytes(), suffix, mutation))
    _run(files, ["validate", path], allowed=(0, 3))
    _run(files, _consumer(suffix, path, files))


# ---------------------------------------------------------------------------
# JSON inputs

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)


def _object(**fields):
    """A JSON object with any subset of ``fields``, or any JSON value."""
    return st.fixed_dictionaries({}, optional=fields) | JSON


FILE_ENTRY = _object(path=JSON | st.sampled_from(["ok.eegr", "..", "", "sub/ok.eegr"]),
                     sha256=JSON | st.sampled_from(["00", ""]))
MANIFEST = _object(files=st.lists(FILE_ENTRY, max_size=3) | JSON, schema=JSON)
ACCURACY = _object(mean_accuracy=JSON, holdout_accuracy=JSON)
TRAIN_REPORT = _object(subject=JSON, model=JSON, cv=ACCURACY, holdout=ACCURACY)
SUMMARY_ENTRY = _object(budget=JSON, transfer_mean=JSON, transfer_stdev=JSON,
                        scratch_mean=JSON, scratch_stdev=JSON)
TRANSFER_REPORT = _object(summary=st.lists(SUMMARY_ENTRY, max_size=3) | JSON)


def _write_json(path, value):
    path.write_text(json.dumps(value))
    return path


@FUZZ
@given(manifest=MANIFEST)
def test_malformed_manifest(files, manifest):
    _run(files, ["validate", _write_json(files["root"] / "m.json", manifest)], allowed=(0, 3))


@FUZZ
@given(reports=st.lists(TRAIN_REPORT, min_size=1, max_size=2))
def test_malformed_train_report(files, reports):
    argv = ["report", "--out-dir", files["root"] / "tables"]
    for i, report in enumerate(reports):
        argv += ["--train-report", _write_json(files["root"] / f"train{i}.json", report)]
    _run(files, argv, allowed=(0, 3))


@FUZZ
@given(report=TRANSFER_REPORT)
def test_malformed_transfer_report(files, report):
    path = _write_json(files["root"] / "transfer.json", report)
    _run(files, ["report", "--transfer-report", path, "--out-dir", files["root"] / "tables"],
         allowed=(0, 3))


# ---------------------------------------------------------------------------
# .kv spec and config text

# small values only for the keys that size what a command allocates
SMALL = {
    "n_classes": ["0", "1", "2", "3"],
    "trials_per_class": ["-1", "0", "1", "2"],
    "n_channels": ["0", "1", "2", "3"],
    "epoch_seconds": ["-1", "0", "0.001", "0.1", "0.3"],
    "sample_rate_hz": ["-50", "0", "10", "100"],
    "hidden_units": ["", "0", "2", "3,2", "-1"],
    "max_epochs": ["-1", "0", "1", "2"],
    "fine_tune_max_epochs": ["0", "1", "2"],
    "envelope_bandwidth_hz": ["-1", "0", "1e-4", "0.5", "2"],
    "ica_max_iter": ["0", "1", "5"],
    "bandpass_order": ["-1", "0", "1", "2"],
}
VALUES = ["-1", "0", "0.5", "1", "2", "1e-3", "nan", "inf", "-inf", "x", "", "true", "1,2",
          "0.1,0.2"]


def _kv_text(keys):
    """Up to three ``key = value`` lines, now and then a line of junk instead."""
    key_line = st.sampled_from(sorted(keys)).flatmap(
        lambda k: st.sampled_from(SMALL.get(k, VALUES)).map(f"{k} = {{}}".format))
    junk = st.text(alphabet="ab_=# \t,.1", max_size=8)
    line = st.integers(0, 7).flatmap(lambda i: junk if i == 0 else key_line)
    return st.lists(line, max_size=3).map("\n".join)


TINY_SYNTH = ("n_classes = 2\ntrials_per_class = 2\nn_channels = 2\nsample_rate_hz = 100\n"
              "epoch_seconds = 0.1\n")


@FUZZ
@given(text=_kv_text(SYNTH_DEFAULTS))
def test_synth_spec_text(files, text):
    spec = files["root"] / "spec.kv"
    spec.write_text(TINY_SYNTH + text)
    _run(files, ["synth", "--spec", spec, "--out", files["root"] / "synth", "--emit", "epochs"])


TINY_CONFIG = ("hidden_units = 3\ndropout_rates = 0.1\nmax_epochs = 2\nbatch_size = 4\n"
               "cv_folds = 2\ntransfer_seeds = 2\nbudgets = 0.3\nfine_tune_max_epochs = 2\n"
               "sample_rate_hz = 250\nepoch_seconds = 0.2\nbandpass_high_hz = 60\n")


@pytest.mark.parametrize("command", ["preprocess", "features", "train", "evaluate", "transfer"])
@FUZZ
@given(text=_kv_text(PIPELINE_DEFAULTS))
def test_config_text(files, command, text):
    root = files["root"]
    config = root / "run.kv"
    config.write_text(TINY_CONFIG + text)
    inputs = {
        "preprocess": ["--input", files[".eegr"], "--out", root / "c.epoc"],
        "features": ["--input", files[".epoc"], "--out", root / "c.ften"],
        "train": ["--features", files[".ften"], "--out", root / "c.json"],
        "evaluate": ["--model", files[".rmdl"], "--features", files[".ften"],
                     "--out", root / "c.json"],
        "transfer": ["--source", files[".rmdl"], "--covert", files[".ften"], "--no-scratch",
                     "--out", root / "c.json"],
    }[command]
    _run(files, [command, "--config", config, *inputs])
