"""End-to-end CLI runs on a miniature synthetic subject, exit codes,
determinism of emitted artifacts. The ``workspace`` fixture runs
``tests/revisions.py``'s ``CHAIN`` once and hands out the files it wrote."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import covert_decode
from covert_decode import cli, fileio, synth, transfer
from covert_decode.cli import main
from covert_decode.config import PIPELINE_DEFAULTS, SYNTH_DEFAULTS
from covert_decode.containers import Condition, EegRecording, EpochSet, FeatureTensor
from covert_decode.ica import fastica_decompose, ica_reconstruct
from covert_decode.network import build_model, classifier_specs
from covert_decode.preprocessing import epoch_and_baseline
from covert_decode.synth import SynthSpec
from covert_decode.training import TrainConfig

from revisions import CHAIN, SPEC, TRAIN_CFG, chain_problems

TRAIN_OVERRIDES = [
    "--set", "hidden_units=6,4",
    "--set", "dropout_rates=0.2,0.1",
    "--set", "learning_rate=0.003",
    "--set", "max_epochs=4",
    "--set", "batch_size=8",
    "--set", "sample_rate_hz=250",
    "--set", "epoch_seconds=0.4",
    "--set", "bandpass_high_hz=60",
    "--set", "ica_max_iter=80",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """The directory ``chain/`` after ``CHAIN`` ran there once through
    ``main``, next to ``subject.kv`` (``SPEC``) and ``train.cfg``
    (``TRAIN_CFG``): synth recordings in ``data/``, ``overt``/``covert``
    ``.epoc`` and ``.ften``, a ``<kind>.rmdl`` and ``train*.json`` per
    recurrent kind, ``evaluate.json`` of ``gru.rmdl``, ``transfer.json`` and
    ``.csv`` (2 budgets x 3 seeds) and ``tables/``. Tests only read these
    files and write under their own ``tmp_path``, so they pass alone and in
    any order."""
    root = tmp_path_factory.mktemp("cli")
    (root / "subject.kv").write_text(SPEC)
    (root / "train.cfg").write_text(TRAIN_CFG)
    chain = root / "chain"
    chain.mkdir()
    cwd = os.getcwd()
    os.chdir(chain)
    try:
        for line in CHAIN:
            assert main(line.split()) == 0, line
    finally:
        os.chdir(cwd)
    assert chain_problems(chain) == []
    return chain


def test_synth_emits_manifest_and_recordings(workspace):
    data = workspace / "data"
    files = sorted(p.name for p in data.iterdir())
    assert "synthetic_manifest.json" in files
    assert "synthetic_overt.eegr" in files
    assert "synthetic_covert.eegr" in files
    manifest = json.loads((data / "synthetic_manifest.json").read_text())
    assert len(manifest["files"]) == 2
    assert all(Path(entry["path"]).name == entry["path"] for entry in manifest["files"])


def test_preprocess_and_features_chain(workspace):
    root = workspace
    for condition in ("overt", "covert"):
        assert (root / f"{condition}.epoc").exists()
        skipped = json.loads((root / f"{condition}.epoc.skipped.json").read_text())
        assert skipped["n_skipped"] == 0
        assert (root / f"{condition}.ften").exists()
    overt = fileio.read_features(root / "overt.ften")
    assert overt.n_features == 8  # 4 channels -> 8 feature columns
    assert overt.n_timesteps == 100


def test_feature_run_is_byte_identical(workspace, tmp_path):
    root = workspace
    out2 = tmp_path / "overt_again.ften"
    assert main(["features", "--input", str(root / "overt.epoc"),
                 "--out", str(out2), *TRAIN_OVERRIDES]) == 0
    assert out2.read_bytes() == (root / "overt.ften").read_bytes()


def test_train_evaluate_transfer_report(workspace):
    root = workspace
    report = json.loads((root / "train.json").read_text())
    assert report["schema"] == 1
    assert report["cv"]["k"] == 2
    assert len(report["cv"]["fold_accuracies"]) == 2
    assert (root / "gru.rmdl").exists()
    assert report["config"]["hidden_units"] == "6,4"
    assert report["inputs"][0]["sha256"] == fileio.sha256_file(root / "overt.ften")

    ev = json.loads((root / "evaluate.json").read_text())
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert len(ev["confusion"]) == 5

    tr = json.loads((root / "transfer.json").read_text())
    assert len(tr["runs"]) == 6  # 2 budgets x 3 seeds
    assert (root / "transfer.csv").exists()
    for run in tr["runs"]:
        assert run["recurrent_hash_before"] == run["recurrent_hash_after"]

    tables = {p.name for p in (root / "tables").iterdir()}
    assert {"accuracy_table.csv", "transfer_budgets.csv",
            "envelope_means.csv", "envelope_correlation.csv"} <= tables


SCIPY_MODULES = ("scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.special")

# Runs covert-decode commands in a fresh interpreter and prints, after the
# import and after each command, which of SCIPY_MODULES it has loaded.
SCIPY_PROBE = """
import json, sys
from covert_decode.cli import main
watched = json.loads(sys.argv[1])
def loaded():
    return [m for m in watched if m in sys.modules]
seen = {"import": loaded()}
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
print(json.dumps(seen))
"""


def _scipy_loaded(commands):
    src = str(Path(covert_decode.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(SCIPY_MODULES), json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_commands_import_only_the_scipy_they_use(workspace, tmp_path):
    root = workspace
    seen = _scipy_loaded([
        ["features", "--input", str(root / "overt.epoc"), "--out", str(tmp_path / "o.ften")],
        ["train", "--features", str(root / "overt.ften"), "--model", "gru", "--cv", "2",
         "--out", str(tmp_path / "train.json"), "--checkpoint", str(tmp_path / "m.rmdl"),
         *TRAIN_OVERRIDES],
        ["evaluate", "--model", str(tmp_path / "m.rmdl"), "--features",
         str(root / "covert.ften"), "--out", str(tmp_path / "eval.json")],
        ["report", "--train-report", str(tmp_path / "train.json"), "--transfer-report",
         str(root / "transfer.json"), "--overt-features", str(root / "overt.ften"),
         "--covert-features", str(root / "covert.ften"), "--out-dir", str(tmp_path / "t")],
        ["validate", str(root / "overt.ften"), str(tmp_path / "m.rmdl"),
         str(root / "data" / "synthetic_overt.eegr")],
    ])
    assert seen == {name: [] for name in
                    ("import", "features", "train", "evaluate", "report", "validate")}
    seen = _scipy_loaded([
        ["transfer", "--source", str(root / "gru.rmdl"), "--covert", str(root / "covert.ften"),
         "--budgets", "0.3", "--seeds", "2", "--out", str(tmp_path / "transfer.json"),
         *TRAIN_OVERRIDES, "--set", "fine_tune_max_epochs=2"],
    ])
    assert seen == {"import": [], "transfer": ["scipy.special"]}


def test_report_regeneration_idempotent(workspace, tmp_path):
    tables = shutil.copytree(workspace / "tables", tmp_path / "tables")
    before = (tables / "transfer_budgets.csv").read_bytes()
    assert main(
        ["report", "--transfer-report", str(workspace / "transfer.json"),
         "--out-dir", str(tables)]
    ) == 0
    assert (tables / "transfer_budgets.csv").read_bytes() == before


def test_validate_accepts_good_files(workspace, capsys):
    root = workspace
    code = main(["validate", str(root / "data" / "synthetic_overt.eegr"),
                 str(root / "overt.ften"), str(root / "gru.rmdl"),
                 str(root / "data" / "synthetic_manifest.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 4


def test_validate_rejects_tampered_file(workspace, tmp_path):
    bad = tmp_path / "bad.ften"
    bad.write_bytes(b"WHAT" + b"\x00" * 40)
    assert main(["validate", str(bad)]) == 3


def test_missing_input_exit_code_and_message(workspace, tmp_path, capsys):
    code = main(["features", "--input", str(workspace / "nope.epoc"),
                 "--out", str(tmp_path / "x.ften")])
    assert code == 3
    assert "nope.epoc" in capsys.readouterr().err


def test_directory_input_is_data_error(workspace, tmp_path, capsys):
    code = main(["features", "--input", str(workspace / "data"),
                 "--out", str(tmp_path / "x.ften")])
    assert code == 3
    assert f"input file not found: {workspace / 'data'}" in capsys.readouterr().err


def test_non_finite_recording_is_data_error(workspace, tmp_path, capsys):
    recording = fileio.read_recording(workspace / "data" / "synthetic_overt.eegr")
    data = recording.data.copy()
    data[1, data.shape[1] // 2] = np.nan
    recording.data = data
    bad = fileio.write_recording(recording, tmp_path / "nan.eegr")
    out = tmp_path / "nan.epoc"
    code = main(["preprocess", "--input", str(bad), "--out", str(out),
                 "--condition", "overt", "--seed", "3", *TRAIN_OVERRIDES])
    assert code == 3
    err = capsys.readouterr().err
    assert "NaN or infinite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_epochs_are_data_error(tmp_path, capsys, bad):
    # without the check, features wrote NaN features and train failed later
    # with a non-finite loss (exit 4)
    data = np.random.default_rng(0).standard_normal((3, 16, 2))
    data[2, 5, 1] = bad
    epochs = EpochSet(data=data, labels=[0, 1, 0], condition=Condition.OVERT,
                      sample_rate_hz=100.0, class_names=["a", "b"])
    bad_file = fileio.write_epochs(epochs, tmp_path / "bad.epoc")
    _run_expecting_data_error(["features", "--input", str(bad_file)], tmp_path / "bad.ften",
                              capsys, "NaN or infinite")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.epoc"]


def _file_with(tmp_path, suffix, bad):
    """A small file of this kind with one sample set to ``bad``."""
    data = np.random.default_rng(0).standard_normal((2, 64) if suffix == ".eegr" else (4, 8, 2))
    data[1, 5] = bad
    path = tmp_path / f"bad{suffix}"
    if suffix == ".eegr":
        return fileio.write_recording(EegRecording(data=data, sample_rate_hz=100.0,
                                                   channel_labels=["a", "b"]), path)
    if suffix == ".epoc":
        return fileio.write_epochs(EpochSet(data=data, labels=[0, 1, 0, 1],
                                            condition=Condition.OVERT, sample_rate_hz=100.0,
                                            class_names=["a", "b"]), path)
    return fileio.write_features(FeatureTensor(data=data.astype(np.float32), labels=[0, 1, 0, 1],
                                               condition=Condition.OVERT,
                                               class_names=["a", "b"]), path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("suffix, what", [(".eegr", "sample data"), (".epoc", "epoch data"),
                                          (".ften", "feature data")])
def test_validate_rejects_non_finite_samples(tmp_path, capsys, suffix, what, bad):
    path = _file_with(tmp_path, suffix, bad)
    assert main(["validate", str(path)]) == 3
    assert f"{path}: INVALID ({path}: {what} holds NaN or infinite values)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_non_finite_features_are_data_error(tmp_path, capsys, command):
    # the reader rejects the file; before, a NaN trial's probabilities were all
    # NaN, argmax scored it as class 0 and the command exited 0
    features = fileio.read_features(_features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4)))
    features.data[7, 2, 1] = np.nan
    feats = fileio.write_features(features, tmp_path / "f.ften")
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    argv = {"evaluate": ["evaluate", "--model", str(model), "--features", str(feats)],
            "train": ["train", "--features", str(feats), "--cv", "0", *TRAIN_OVERRIDES]}[command]
    _run_expecting_data_error(argv, tmp_path / "out.json", capsys,
                              f"{feats}: feature data holds NaN or infinite values")


def test_bad_passband_fails_before_io(workspace, tmp_path, capsys):
    # input path does not even exist: the design error must surface first
    code = main(["preprocess", "--input", str(workspace / "missing.eegr"),
                 "--out", str(tmp_path / "x.epoc"),
                 "--set", "bandpass_low_hz=80", "--set", "bandpass_high_hz=0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cutoff" in err or "low" in err


@pytest.mark.parametrize("sets", [["ica_exclude=0;1"], ["ica_enabled=0", "ica_exclude=x"]])
def test_bad_exclusion_list_fails_before_io(workspace, tmp_path, capsys, sets):
    # the list is read with the filters, before the missing input and whether
    # or not ICA runs
    argv = ["preprocess", "--input", str(workspace / "missing.eegr"),
            "--out", str(tmp_path / "x.epoc")]
    for value in sets:
        argv += ["--set", value]
    assert main(argv) == 2
    assert "bad int list for ica_exclude" in capsys.readouterr().err


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    code = main(["features", "--input", str(workspace / "overt.epoc"),
                 "--out", str(tmp_path / "y.ften"), "--set", "typo_key=1"])
    assert code == 2
    assert "typo_key" in capsys.readouterr().err


def test_env_seed_override(workspace, monkeypatch, tmp_path):
    spec = tmp_path / "s.kv"
    spec.write_text("n_classes = 2\ntrials_per_class = 2\nn_channels = 3\n"
                    "sample_rate_hz = 250\nepoch_seconds = 0.2\n")
    monkeypatch.setenv("COVERT_DECODE_SEED", "77")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "synthetic_manifest.json").read_text())
    assert manifest["seed"] == 77
    # explicit flag wins over the environment
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b"),
                 "--seed", "5"]) == 0
    manifest_b = json.loads((tmp_path / "b" / "synthetic_manifest.json").read_text())
    assert manifest_b["seed"] == 5


def test_synth_deterministic_across_runs(workspace, tmp_path):
    spec = tmp_path / "s.kv"
    spec.write_text("n_classes = 2\ntrials_per_class = 2\nn_channels = 3\n"
                    "sample_rate_hz = 250\nepoch_seconds = 0.2\n")
    for name in ("r1", "r2"):
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / name),
                     "--seed", "9"]) == 0
    a = (tmp_path / "r1" / "synthetic_overt.eegr").read_bytes()
    b = (tmp_path / "r2" / "synthetic_overt.eegr").read_bytes()
    assert a == b


def _features_file(path, labels, n_features=4, t_len=6):
    rng = np.random.default_rng(0)
    labels = np.asarray(labels)
    tensor = FeatureTensor(
        data=rng.standard_normal((labels.size, t_len, n_features)).astype(np.float32),
        labels=labels,
        condition=Condition.COVERT,
        class_names=[f"class_{i}" for i in range(labels.max() + 1)],
    )
    return fileio.write_features(tensor, path)


def _gru_checkpoint(path, n_classes, favoured, n_features=4):
    model = build_model(classifier_specs("gru", n_features, hidden=(3,), dropout=(0.0,),
                                         n_classes=n_classes), seed=0)
    model.layers[1].params["b"][favoured] = 50.0  # the head always picks this class
    return fileio.save_model(model, path)


def test_evaluate_sizes_confusion_from_model(tmp_path, capsys):
    # a 5-class model on a file holding only classes 0-2, predicting class 4
    model = _gru_checkpoint(tmp_path / "five.rmdl", n_classes=5, favoured=4)
    feats = _features_file(tmp_path / "three.ften", [0, 1, 2, 0, 1, 2, 0])
    out = tmp_path / "evaluate.json"
    code = main(["evaluate", "--model", str(model), "--features", str(feats),
                 "--out", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["confusion"] == [[0, 0, 0, 0, 3], [0, 0, 0, 0, 2], [0, 0, 0, 0, 2],
                                   [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
    assert report["accuracy"] == 0.0
    assert sorted(report["per_class_accuracy"]) == [f"class_{i}" for i in range(5)]


def test_evaluate_rejects_labels_beyond_model(tmp_path, capsys):
    model = _gru_checkpoint(tmp_path / "three.rmdl", n_classes=3, favoured=0)
    feats = _features_file(tmp_path / "five.ften", [0, 1, 2, 3, 4])
    out = tmp_path / "evaluate.json"
    code = main(["evaluate", "--model", str(model), "--features", str(feats),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "3 classes" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_transfer_rejects_labels_beyond_source(tmp_path, capsys):
    source = _gru_checkpoint(tmp_path / "three.rmdl", n_classes=3, favoured=0)
    feats = _features_file(tmp_path / "five.ften", np.repeat(np.arange(5), 4))
    out = tmp_path / "transfer.json"
    code = main(["transfer", "--source", str(source), "--covert", str(feats),
                 "--budgets", "0.3", "--seeds", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "source model predicts 3 classes" in err
    assert "Traceback" not in err
    assert not out.exists()


def _empty_features_file(path, n_features=4, t_len=6):
    tensor = FeatureTensor(
        data=np.zeros((0, t_len, n_features), dtype=np.float32),
        labels=np.zeros(0, dtype=np.int64),
        condition=Condition.COVERT,
        class_names=["class_0"],
    )
    return fileio.write_features(tensor, path)


@pytest.mark.parametrize("command", ["evaluate", "transfer"])
def test_zero_trial_file_is_data_error(tmp_path, capsys, command):
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=3, favoured=0)
    feats = _empty_features_file(tmp_path / "empty.ften")
    assert main(["validate", str(feats)]) == 0  # a well-formed file, just empty
    capsys.readouterr()
    out = tmp_path / f"{command}.json"
    if command == "evaluate":
        argv = ["evaluate", "--model", str(model), "--features", str(feats)]
    else:
        argv = ["transfer", "--source", str(model), "--covert", str(feats),
                "--budgets", "0.3", "--seeds", "2"]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "no trials" in err
    assert "Traceback" not in err
    assert not out.exists()


def _run_expecting_data_error(argv, out, capsys, message):
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "train", "transfer"])
def test_zero_timestep_file_is_data_error(tmp_path, capsys, command):
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    feats = _features_file(tmp_path / "flat.ften", np.repeat(np.arange(5), 10), t_len=0)
    assert main(["validate", str(feats)]) == 0  # a well-formed file, just empty
    capsys.readouterr()
    argv = {
        "evaluate": ["evaluate", "--model", str(model), "--features", str(feats)],
        "train": ["train", "--features", str(feats), "--cv", "2", *TRAIN_OVERRIDES],
        "transfer": ["transfer", "--source", str(model), "--covert", str(feats),
                     "--budgets", "0.3", "--seeds", "2"],
    }[command]
    _run_expecting_data_error(argv, tmp_path / f"{command}.json", capsys, "no timesteps")


@pytest.mark.parametrize("per_class, cv, message", [
    (2, "0", "produced an empty test set"),  # 10 trials of 5 classes
    (3, "5", "class 0 has only 3 trials; needs at least k=5"),
])
def test_file_too_small_to_train_is_data_error(tmp_path, capsys, per_class, cv, message):
    feats = _features_file(tmp_path / "small.ften", np.repeat(np.arange(5), per_class))
    argv = ["train", "--features", str(feats), "--cv", cv, *TRAIN_OVERRIDES]
    _run_expecting_data_error(argv, tmp_path / "train.json", capsys, message)


@pytest.mark.parametrize("per_class, budget, message", [
    (4, "0.1", "budget 0.1 leaves class 0 with no fine-tune trials"),
    (2, "0.8", "budget 0.8 needs 2 trials of class 0, only 1 outside the test set"),
])
def test_file_too_small_for_transfer_budget_is_data_error(tmp_path, capsys, per_class,
                                                          budget, message):
    source = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    feats = _features_file(tmp_path / "small.ften", np.repeat(np.arange(5), per_class))
    argv = ["transfer", "--source", str(source), "--covert", str(feats),
            "--budgets", budget, "--seeds", "2"]
    _run_expecting_data_error(argv, tmp_path / "transfer.json", capsys, message)


@pytest.mark.parametrize("budgets", ["0.3,0.2", "0.9", "abc", ""])
def test_bad_transfer_budgets_are_config_errors(tmp_path, capsys, budgets):
    source = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--source", str(source), "--covert", str(feats),
                 "--budgets", budgets, "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


TINY_SPEC = ("n_classes = 2\ntrials_per_class = 2\nn_channels = 3\n"
             "sample_rate_hz = 250\nepoch_seconds = 0.2\n")

# (command, --set overrides or synth spec lines): each value is out of range
OUT_OF_RANGE = [
    ("train", ["batch_size=0"]),
    ("train", ["max_epochs=0"]),
    ("train", ["validation_fraction=1.5"]),
    ("train", ["merge_mode=avg"]),
    ("train", ["dropout_rates=1.0,0.1"]),
    ("train", ["hidden_units=0,4"]),
    ("train", ["hidden_units=", "dropout_rates="]),
    ("train", ["--cv=1"]),
    ("train", ["--cv=-4"]),
    ("train", ["cv_folds=1"]),
    ("transfer", ["fine_tune_max_epochs=0"]),
    ("preprocess", ["ica_components=99"]),
    ("preprocess", ["ica_exclude=40"]),
    ("preprocess", ["ica_max_iter=0"]),
    ("preprocess", ["ica_tol=0"]),
    ("preprocess", ["epoch_seconds=0"]),
    ("preprocess", ["baseline_ms=0"]),
    ("features", ["env_floor_rel=0"]),
    ("evaluate", ["batch_size=0"]),
    ("evaluate", ["batch_size=-3"]),
    ("synth", ["n_classes=0"]),
    ("synth", ["gap_seconds=0"]),
    ("synth", ["epoch_seconds=0"]),
    ("synth", ["cross_condition_rho=2"]),
    ("synth", ["components_per_class=0"]),  # pure-noise subjects
    ("synth", ["components_per_class=-2"]),
    # found by tests/test_fuzz_cli.py
    ("train", ["beta1=1"]),
    ("train", ["epsilon=0"]),
    ("preprocess", ["epoch_seconds=nan"]),
    ("synth", ["envelope_bandwidth_hz=0"]),
    ("synth", ["envelope_bandwidth_hz=1e-4"]),  # a Gaussian kernel of about 30 MB
]


@pytest.mark.parametrize("command, values", OUT_OF_RANGE,
                         ids=[f"{c}-{'-'.join(v)}" for c, v in OUT_OF_RANGE])
def test_out_of_range_value_is_config_error(workspace, tmp_path, capsys, command, values):
    out = tmp_path / "out"
    if command == "synth":
        spec = tmp_path / "s.kv"
        spec.write_text(TINY_SPEC + "\n".join(values) + "\n")
        argv = ["synth", "--spec", str(spec), "--out", str(out)]
    else:
        feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
        model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
        epochs = EpochSet(data=np.ones((2, 8, 2)), labels=[0, 1], condition=Condition.OVERT,
                          sample_rate_hz=100.0, class_names=["a", "b"])
        inputs = {
            "train": ["--features", str(feats), "--set", "cv_folds=0", *TRAIN_OVERRIDES],
            "transfer": ["--source", str(model), "--covert", str(feats), "--budgets", "0.3",
                         "--seeds", "2"],
            "preprocess": ["--input", str(workspace / "data" / "synthetic_overt.eegr"),
                           *TRAIN_OVERRIDES],
            "features": ["--input", str(fileio.write_epochs(epochs, tmp_path / "e.epoc"))],
            "evaluate": ["--model", str(model), "--features", str(feats)],
        }[command]
        argv = [command, *inputs, "--out", str(out)]
        for value in values:
            argv += [value] if value.startswith("--") else ["--set", value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "transfer"])
def test_report_into_a_missing_directory(tmp_path, capsys, command):
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    out = tmp_path / "new" / "sub" / f"{command}.json"
    argv = {
        "train": ["train", "--features", str(feats), "--cv", "0",
                  "--checkpoint", str(tmp_path / "ckpt" / "m.rmdl"), *TRAIN_OVERRIDES],
        "evaluate": ["evaluate", "--model", str(model), "--features", str(feats)],
        "transfer": ["transfer", "--source", str(model), "--covert", str(feats),
                     "--budgets", "0.3", "--seeds", "2", "--set", "max_epochs=2",
                     "--set", "fine_tune_max_epochs=2"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["kind"] == command


def test_fine_tune_epochs_checked_before_the_body_pass(tmp_path, capsys, monkeypatch):
    body_passes = []
    monkeypatch.setattr(transfer, "head_input_features",
                        lambda *args, **kwargs: body_passes.append(args))
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--source", str(model), "--covert", str(feats), "--budgets", "0.3",
                 "--seeds", "2", "--out", str(out), "--set", "fine_tune_max_epochs=0"]) == 2
    assert "fine_tune_max_epochs must be >= 1, got 0" in capsys.readouterr().err
    assert body_passes == []
    assert not out.exists()


def _preprocess_peak(tmp_path, capsys, sets=()):
    """Traced peak of one preprocess run over the size of its recording."""
    import scipy.signal  # noqa: F401  (imported lazily by preprocess; not part of its peak)

    n_channels, n_samples = 24, 60_000
    rng = np.random.default_rng(0)
    recording = EegRecording(data=rng.laplace(size=(n_channels, n_samples)),
                             sample_rate_hz=250.0,
                             channel_labels=[f"ch{i}" for i in range(n_channels)],
                             markers=[(500 + 2000 * i, i % 2) for i in range(29)])
    array = recording.data.nbytes
    fileio.write_recording(recording, tmp_path / "r.eegr")
    del recording
    argv = ["preprocess", "--input", str(tmp_path / "r.eegr"), "--out", str(tmp_path / "r.epoc"),
            "--set", "sample_rate_hz=250", "--set", "epoch_seconds=0.4",
            "--set", "bandpass_high_hz=60", "--set", "ica_max_iter=3"]
    for value in sets:
        argv += ["--set", value]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "wrote 29 epochs" in capsys.readouterr().out
    return peak / array


def test_preprocess_peak_memory(tmp_path, capsys):
    # each stage's input is freed once the next stage has read it, so the
    # peak is the filtered recording plus about two arrays of its size
    assert _preprocess_peak(tmp_path, capsys) < 3.5


def test_preprocess_filters_over_the_read_data(tmp_path, capsys):
    # both filters write over the reader's float64 copy, one block at a time:
    # the peak measured 2.02 arrays here, 3.02 when each filter returned a new
    # array
    assert _preprocess_peak(tmp_path, capsys) < 2.2


# a component excluded (FastICA and the rebuild) and one dropped (FastICA
# projects onto 23): the rebuild writes over the filtered data, so FastICA
# runs add no more than an array to the peak
@pytest.mark.parametrize("sets", [["ica_exclude=0"], ["ica_components=23"]])
def test_preprocess_peak_memory_with_fastica(tmp_path, capsys, sets):
    assert _preprocess_peak(tmp_path, capsys, sets) < 3.5


def _preprocess_argv(recording_path, out, condition="overt", sets=()):
    argv = ["preprocess", "--input", str(recording_path), "--out", str(out),
            "--condition", condition, "--seed", "3", *TRAIN_OVERRIDES]
    for value in sets:
        argv += ["--set", value]
    return argv


# the workspace subject has 4 channels
@pytest.mark.parametrize("sets, runs_fastica", [
    ([], False),
    (["ica_components=4"], False),
    (["ica_exclude= , "], False),
    (["ica_enabled=0", "ica_exclude=0"], False),
    (["ica_exclude=0"], True),
    (["ica_components=2"], True),
])
def test_preprocess_runs_fastica_only_when_it_can_change_the_data(
        workspace, tmp_path, monkeypatch, sets, runs_fastica):
    def fail(*args, **kwargs):
        raise AssertionError("FastICA ran")

    monkeypatch.setattr(cli, "fastica_decompose", fail)
    argv = _preprocess_argv(workspace / "data" / "synthetic_overt.eegr", tmp_path / "o.epoc",
                            sets=sets)
    if runs_fastica:
        with pytest.raises(AssertionError, match="FastICA ran"):
            main(argv)
    else:
        assert main(argv) == 0


@pytest.mark.parametrize("condition", ["overt", "covert"])
def test_kept_recording_is_within_one_float32_ulp_of_the_ica_round_trip(
        workspace, tmp_path, monkeypatch, condition):
    checked = []
    real = cli.prepare_fastica

    def prepare_and_keep(recording, **ica_args):
        checked.append((recording, ica_args))
        return real(recording, **ica_args)

    monkeypatch.setattr(cli, "prepare_fastica", prepare_and_keep)
    out = tmp_path / "kept.epoc"
    source = workspace / "data" / f"synthetic_{condition}.eegr"
    assert main(_preprocess_argv(source, out, condition)) == 0
    ((filtered, ica_args),) = checked
    # what preprocess did before it kept the recording: decompose and rebuild
    # from every component, with the run's ICA settings
    rebuilt = ica_reconstruct(fastica_decompose(filtered, seed=3, **ica_args), ())
    x = filtered.data
    assert np.abs(rebuilt - x).max() <= 1e-13 * np.abs(x).max()
    epochs, _ = epoch_and_baseline(replace(filtered, data=rebuilt), 0.4,
                                   PIPELINE_DEFAULTS["baseline_ms"],
                                   condition=Condition.parse(condition))
    np.testing.assert_array_max_ulp(fileio.read_epochs(out).data.astype(np.float32),
                                    epochs.data.astype(np.float32), maxulp=1)


@pytest.mark.parametrize("index", [7, -1])
def test_out_of_range_exclusion_fails_before_fastica(workspace, tmp_path, capsys, monkeypatch,
                                                     index):
    def fail(*args, **kwargs):
        raise AssertionError("FastICA ran")

    monkeypatch.setattr(cli, "fastica_decompose", fail)
    argv = _preprocess_argv(workspace / "data" / "synthetic_overt.eegr", tmp_path / "o.epoc",
                            sets=[f"ica_exclude={index}"])
    assert main(argv) == 2
    assert f"component index {index} out of range [0, 4)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case, code, message", [
    ("nan", 3, "sample data holds NaN or infinite values"),
    ("duplicate", 3, "covariance is rank-deficient"),
    ("ica_max_iter=0", 2, "max_iter must be >= 1 and tol positive"),
    ("ica_components=99", 2, "n_components must lie in [1, 4], got 99"),
])
def test_preprocess_fails_alike_with_and_without_fastica(workspace, tmp_path, capsys, case,
                                                         code, message):
    source = workspace / "data" / "synthetic_overt.eegr"
    sets = [case] if "=" in case else []
    if not sets:
        recording = fileio.read_recording(source)
        data = recording.data.copy()
        if case == "nan":
            data[1, data.shape[1] // 2] = np.nan
        else:
            data[1] = data[0]
        source = fileio.write_recording(replace(recording, data=data), tmp_path / "in.eegr")
    errors = []
    for path_sets in ([], ["ica_exclude=0"]):
        assert main(_preprocess_argv(source, tmp_path / "o.epoc", sets=sets + path_sets)) == code
        errors.append(capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if sets else ["in.eegr"])
    assert errors[0] == errors[1]
    assert message in errors[0]
    assert "Traceback" not in errors[0]


def test_synth_subject_must_be_a_bare_name(tmp_path, capsys):
    spec = tmp_path / "s.kv"
    spec.write_text(TINY_SPEC)
    before = set(tmp_path.iterdir())
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d"),
                 "--subject", "../esc"]) == 2
    assert "bare file-name stem" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


def test_bad_test_fraction_is_config_error(tmp_path, capsys):
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    out = tmp_path / "train.json"
    assert main(["train", "--features", str(feats), "--cv", "0", "--set", "test_fraction=1.5",
                 "--out", str(out)]) == 2
    assert "test_fraction must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()



def test_train_on_one_training_trial(tmp_path, capsys):
    # one class of 2 trials: the holdout split leaves a single training trial
    feats = _features_file(tmp_path / "pair.ften", [0, 0])
    out = tmp_path / "train.json"
    assert main(["train", "--features", str(feats), "--cv", "0",
                 "--set", "test_fraction=0.5", "--out", str(out), *TRAIN_OVERRIDES]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["holdout"]["n_test"] == 1


@pytest.mark.parametrize("scratch", [[], ["--no-scratch"]])
def test_transfer_on_one_trial_budget(tmp_path, capsys, scratch):
    # one class of 10 trials: budget 0.1 fine-tunes (and trains scratch
    # baselines) on a single trial
    source = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    feats = _features_file(tmp_path / "one.ften", np.zeros(10, dtype=np.int64))
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--source", str(source), "--covert", str(feats),
                 "--budgets", "0.1", "--seeds", "2", "--out", str(out),
                 "--set", "max_epochs=2", "--set", "fine_tune_max_epochs=2", *scratch]) == 0
    assert "Traceback" not in capsys.readouterr().err
    runs = json.loads(out.read_text())["runs"]
    assert [run["n_finetune"] for run in runs] == [1, 1]
    assert all(("scratch_accuracy" in run) == (not scratch) for run in runs)


def test_non_finite_fine_tune_loss_is_numeric_error(tmp_path, capsys):
    model = build_model(classifier_specs("gru", 4, hidden=(3,), dropout=(0.0,), n_classes=5),
                        seed=0)
    model.layers[1].params["w"][0, 0] = np.nan
    source = fileio.save_model(model, tmp_path / "nan.rmdl")
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    out = tmp_path / "transfer.json"
    assert main(["transfer", "--source", str(source), "--covert", str(feats),
                 "--budgets", "0.4", "--seeds", "2", "--no-scratch", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_keys_name_dataclass_fields():
    # the CLI builds TrainConfig and SynthSpec from the config keys named
    # after their fields
    for field in fields(TrainConfig):
        assert field.name in PIPELINE_DEFAULTS
        assert PIPELINE_DEFAULTS[field.name] == field.default
    # every synth key but gap_seconds has SynthSpec's default, apart from two
    # values the CLI has always synthesized with
    spec_defaults = {field.name: field.default for field in fields(SynthSpec)}
    assert set(SYNTH_DEFAULTS) == set(spec_defaults) | {"gap_seconds"}
    differ = {"components_per_class": 2, "envelope_jitter": 0.2}
    for key, value in SYNTH_DEFAULTS.items():
        if key != "gap_seconds":
            assert value == differ.get(key, spec_defaults[key]), key
    assert all(spec_defaults[key] != value for key, value in differ.items())


def _expect_exit_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    return captured


MALFORMED_JSON = {
    "not_json": b"{not json",
    "not_utf8": b'{"files": []}\xff',
    "not_an_object": b"[1, 2]",
    "file_without_path": b'{"files": [{"sha256": "00"}]}',
    "file_without_sha256": b'{"files": [{"path": "a.eegr"}]}',
    "path_not_a_string": b'{"files": [{"path": 3, "sha256": "00"}]}',
    "files_not_a_list": b'{"files": "a.eegr"}',
    "no_files_key": b'{"kind": "train"}',
}


@pytest.mark.parametrize("content", MALFORMED_JSON.values(), ids=MALFORMED_JSON.keys())
def test_validate_malformed_manifest_is_invalid(tmp_path, capsys, content):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(content)
    captured = _expect_exit_3(["validate", str(manifest)], capsys)
    assert f"{manifest}: INVALID" in captured.out


@pytest.mark.parametrize("name", ["../outside.bin", "absolute", "sub/inner.bin", ".."])
def test_validate_hashes_only_bare_file_names(tmp_path, capsys, monkeypatch, name):
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b"listed")
    (tmp_path / "d" / "sub").mkdir(parents=True)
    (tmp_path / "d" / "sub" / "inner.bin").write_bytes(b"listed")
    name = str(outside) if name == "absolute" else name
    manifest = tmp_path / "d" / "m.json"
    manifest.write_text(json.dumps({"files": [{"path": name,
                                               "sha256": fileio.sha256_file(outside)}]}))
    hashed = []
    monkeypatch.setattr(fileio, "sha256_file", hashed.append)
    captured = _expect_exit_3(["validate", str(manifest)], capsys)
    assert "is not a bare file name" in captured.out
    assert hashed == []


@pytest.mark.parametrize("flag,content", [
    ("--transfer-report", b"{not json"),
    ("--transfer-report", b'{"runs": []}'),
    ("--transfer-report", b'{"summary": {"budget": 0.3}}'),
    ("--transfer-report", b'{"summary": [0.3]}'),
    ("--train-report", b"[]"),
    ("--train-report", b"\xff"),
    ("--train-report", b'{"cv": 5}'),
    ("--train-report", b'{"holdout": [0.5]}'),
    ("--train-report", b'{"cv": {"mean_accuracy": "high"}}'),
    ("--train-report", b'{"holdout": {"holdout_accuracy": 1e999}}'),
    ("--train-report", b'{"model": ["gru"], "cv": {}}'),
])
def test_report_on_malformed_json_is_data_error(tmp_path, capsys, flag, content):
    report = tmp_path / "in.json"
    report.write_bytes(content)
    captured = _expect_exit_3(["report", flag, str(report), "--out-dir", str(tmp_path / "t")],
                              capsys)
    assert str(report) in captured.err


BUDGET = {"budget": 0.2, "transfer_mean": 0.5, "transfer_stdev": 0.1}
SCRATCH = {"scratch_mean": 0.4, "scratch_stdev": 0.05}


@pytest.mark.parametrize("summary, message", [
    ([{"budget": 0.2}, {"budget": 0.3, "transfer_mean": "x", "transfer_stdev": None,
                        "scratch_mean": 0.5}], "entry 0 needs a finite number for transfer_mean"),
    ([BUDGET, {**BUDGET, "transfer_mean": "x"}], "entry 1 needs a finite number for "
                                                  "transfer_mean, got 'x'"),
    ([{**BUDGET, "transfer_stdev": None}], "transfer_stdev, got None"),
    ([{**BUDGET, "budget": True}], "budget, got True"),
    ([{**BUDGET, "transfer_mean": 1e999}], "transfer_mean, got inf"),
    ([{**BUDGET, **SCRATCH}, BUDGET], "entry 1 needs a finite number for scratch_mean"),
    ([BUDGET, {**BUDGET, **SCRATCH}], "entry 0 needs a finite number for scratch_mean"),
    ([{**BUDGET, "scratch_mean": 0.4}], "scratch_stdev, got None"),
], ids=["blank_cells", "text_mean", "null_stdev", "bool_budget", "infinite_mean",
        "scratch_on_entry_0_only", "scratch_on_entry_1_only", "scratch_mean_alone"])
def test_report_malformed_transfer_summary_is_data_error(tmp_path, capsys, summary, message):
    report = tmp_path / "transfer.json"
    report.write_text(json.dumps({"summary": summary}))
    out_dir = tmp_path / "t"
    captured = _expect_exit_3(["report", "--transfer-report", str(report),
                               "--out-dir", str(out_dir)], capsys)
    assert f"{report}: summary entry " in captured.err
    assert message in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--overt-features", "--covert-features"])
def test_report_with_one_feature_file_is_config_error(tmp_path, capsys, flag):
    summary = tmp_path / "transfer.json"
    summary.write_text('{"summary": []}')
    feats = _features_file(tmp_path / "f.ften", [0, 1, 0, 1])
    out_dir = tmp_path / "t"
    assert main(["report", "--transfer-report", str(summary), flag, str(feats),
                 "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "--overt-features" in err and "--covert-features" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("overt_labels,covert_labels,missing", [
    ([0, 1, 2, 0, 1, 2], [0, 1, 0, 1, 0, 1], "covert"),  # covert lacks class_2
    ([0, 2, 0, 2, 0, 2], [0, 1, 2, 0, 1, 2], "overt"),  # overt lacks class_1
    ([0, 1, 0, 1, 0, 1], [0, 1, 2, 0, 1, 2], "overt"),  # class_2 only in covert
], ids=["covert_lacks_last", "overt_lacks_middle", "only_covert_has_last"])
def test_report_class_missing_from_one_file_is_data_error(tmp_path, capsys, overt_labels,
                                                         covert_labels, missing):
    paths = {"overt": _features_file(tmp_path / "overt.ften", overt_labels),
             "covert": _features_file(tmp_path / "covert.ften", covert_labels)}
    out_dir = tmp_path / "t"
    captured = _expect_exit_3(["report", "--overt-features", str(paths["overt"]),
                               "--covert-features", str(paths["covert"]),
                               "--out-dir", str(out_dir)], capsys)
    assert f"{paths[missing]}: no trials of class_" in captured.err
    assert not out_dir.exists()


def test_report_on_one_timestep_features_is_data_error(tmp_path, capsys):
    feats = _features_file(tmp_path / "f.ften", [0, 1, 0, 1], t_len=1)
    captured = _expect_exit_3(["report", "--overt-features", str(feats), "--covert-features",
                               str(feats), "--out-dir", str(tmp_path / "t")], capsys)
    assert "at least 2 samples" in captured.err


def test_validate_missing_path_and_unknown_suffix(tmp_path, capsys):
    other = tmp_path / "notes.txt"
    other.write_text("x")
    captured = _expect_exit_3(["validate", str(tmp_path / "gone.ften"), str(other)], capsys)
    assert f"{tmp_path / 'gone.ften'}: MISSING" in captured.out
    assert f"{other}: unknown file type '.txt'" in captured.out
    assert "validation failed for 2 file(s)" in captured.err


def test_validate_manifest_with_missing_or_changed_file(tmp_path, capsys):
    kept = tmp_path / "kept.bin"
    kept.write_bytes(b"original")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"files": [
        {"path": "gone.bin", "sha256": "00"},
        {"path": "kept.bin", "sha256": fileio.sha256_file(kept)},
    ]}))
    kept.write_bytes(b"changed")
    captured = _expect_exit_3(["validate", str(manifest)], capsys)
    assert f"{manifest}: missing listed file gone.bin" in captured.out
    assert f"{manifest}: checksum mismatch for kept.bin" in captured.out


def test_preprocess_redesigns_filters_at_the_recording_rate(workspace, tmp_path):
    # the recording is at 250 Hz; the default sample_rate_hz is 500
    common = ["--input", str(workspace / "data" / "synthetic_overt.eegr"), "--seed", "3",
              "--set", "epoch_seconds=0.4", "--set", "bandpass_high_hz=60",
              "--set", "ica_max_iter=80"]
    assert PIPELINE_DEFAULTS["sample_rate_hz"] != 250
    assert main(["preprocess", *common, "--out", str(tmp_path / "default.epoc")]) == 0
    assert main(["preprocess", *common, "--out", str(tmp_path / "matched.epoc"),
                 "--set", "sample_rate_hz=250"]) == 0
    assert (tmp_path / "default.epoc").read_bytes() == (tmp_path / "matched.epoc").read_bytes()


@pytest.mark.parametrize("env_seed,argv,message", [
    ("abc", [], "COVERT_DECODE_SEED must be an integer, got 'abc'"),
    ("", ["--set", "foo"], "--set expects key=value, got 'foo'"),
    ("", ["--config", "missing.cfg"], "config file not found: missing.cfg"),
])
def test_bad_seed_or_config_source_is_config_error(workspace, tmp_path, capsys, monkeypatch,
                                                   env_seed, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COVERT_DECODE_SEED", env_seed)  # "" leaves the config seed
    code = main(["preprocess", "--input", str(workspace / "data" / "synthetic_overt.eegr"),
                 "--out", "x.epoc", *argv])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.epoc").exists()


def test_malformed_config_line_names_its_file(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1\nfoo\n")
    assert main(["features", "--input", str(workspace / "overt.epoc"),
                 "--out", str(tmp_path / "x.ften"), "--config", str(cfg)]) == 2
    assert f"{cfg}: line 2: expected key=value, got 'foo'" in capsys.readouterr().err


def test_set_overrides_the_config_file(workspace, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("notch_q = 10\nenv_floor_rel = 1e-9\n")
    out = tmp_path / "x.ften"
    assert main(["features", "--input", str(workspace / "overt.epoc"), "--out", str(out),
                 "--config", str(cfg), "--set", "env_floor_rel=1e-10"]) == 0
    config = json.loads((tmp_path / "x.ften.prov.json").read_text())["config"]
    assert config == {**PIPELINE_DEFAULTS, "notch_q": 10.0, "env_floor_rel": 1e-10}


def _outputs(root):
    """Every file under ``root`` by name: JSON without its timestamp, else bytes."""
    outputs = {}
    for path in root.rglob("*"):
        if path.suffix == ".json":
            outputs[path.name] = json.loads(path.read_text())
            outputs[path.name].pop("timestamp", None)
        else:
            outputs[path.name] = path.read_bytes()
    return outputs


def _echoes(outputs):
    return [value["config"] for value in outputs.values()
            if isinstance(value, dict) and "config" in value]


# each flag that sets a config key, against the --set it stands for
SHORTCUTS = {
    "preprocess": (["--seed", "3"], ["--set", "seed=3"]),
    "train": (["--model", "gru", "--cv", "2", "--seed", "3"],
              ["--set", "model=gru", "--set", "cv_folds=2", "--set", "seed=3"]),
    "transfer": (["--budgets", "0.2,0.3", "--seeds", "3", "--seed", "3"],
                 ["--set", "budgets=0.2,0.3", "--set", "transfer_seeds=3", "--set", "seed=3"]),
}


def _command_inputs(command, workspace, tmp_path):
    """Arguments that run ``command`` on small inputs, writing into the working directory."""
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 8))
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    epochs = EpochSet(data=np.random.default_rng(0).standard_normal((4, 16, 2)),
                      labels=[0, 1, 0, 1], condition=Condition.OVERT, sample_rate_hz=100.0,
                      class_names=["a", "b"])
    return {
        "preprocess": ["--input", str(workspace / "data" / "synthetic_overt.eegr"),
                       "--out", "x.epoc", *TRAIN_OVERRIDES],
        "features": ["--input", str(fileio.write_epochs(epochs, tmp_path / "e.epoc")),
                     "--out", "x.ften"],
        "train": ["--features", str(feats), "--out", "r.json", "--checkpoint", "r.rmdl",
                  *TRAIN_OVERRIDES],
        "evaluate": ["--model", str(model), "--features", str(feats), "--out", "e.json"],
        "transfer": ["--source", str(model), "--covert", str(feats), "--out", "t.json",
                     "--set", "max_epochs=2", "--set", "fine_tune_max_epochs=2"],
    }[command]


@pytest.mark.parametrize("command", SHORTCUTS)
def test_flags_equal_set(workspace, tmp_path, monkeypatch, command):
    # the run and its config echo are those of the --set the flags stand for
    inputs = _command_inputs(command, workspace, tmp_path)
    runs = []
    for i, given in enumerate(SHORTCUTS[command]):
        (tmp_path / str(i)).mkdir()
        monkeypatch.chdir(tmp_path / str(i))
        assert main([command, *inputs, *given]) == 0
        runs.append(_outputs(tmp_path / str(i)))
    assert runs[0] == runs[1]
    assert _echoes(runs[0]) and all(config["seed"] == 3 for config in _echoes(runs[0]))


@pytest.mark.parametrize("command", ["preprocess", "features", "train", "evaluate", "transfer"])
def test_config_echo_holds_the_pipeline_keys(workspace, tmp_path, monkeypatch, command):
    inputs = _command_inputs(command, workspace, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([command, *inputs, "--set", "cv_folds=2"]) == 0
    echoes = _echoes(_outputs(tmp_path))
    assert echoes and all(config.keys() == PIPELINE_DEFAULTS.keys() for config in echoes)
    if command == "evaluate":
        # evaluate's --model is the checkpoint, not the model key
        assert echoes == [{**PIPELINE_DEFAULTS, "cv_folds": 2}]


@pytest.mark.parametrize("value", ["jobs=1", "n_classes=3"])
def test_keys_no_command_reads_are_unknown(tmp_path, capsys, value):
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    out = tmp_path / "r.json"
    assert main(["train", "--features", str(feats), "--out", str(out), "--set", value]) == 2
    assert f"unknown configuration key: {value.split('=')[0]!r}" in capsys.readouterr().err
    assert not out.exists()


def test_seed_precedence(workspace, tmp_path, monkeypatch):
    # --set < COVERT_DECODE_SEED < --seed, and the report echoes the seed used
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COVERT_DECODE_SEED", "7")
    train = ["train", "--features", str(feats), "--cv", "0", "--out", "r.json",
             "--set", "seed=5", *TRAIN_OVERRIDES]
    for flag, seed in (([], 7), (["--seed", "9"], 9)):
        assert main([*train, *flag]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["seed"] == report["holdout"]["seed"] == seed
        assert report["seeds"] == [seed]
    # a command without --seed does not read the variable
    monkeypatch.setenv("COVERT_DECODE_SEED", "abc")
    assert main(["features", *_command_inputs("features", workspace, tmp_path),
                 "--set", "seed=5"]) == 0
    assert json.loads((tmp_path / "x.ften.prov.json").read_text())["config"]["seed"] == 5


def _tree(root):
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_report_checks_every_input_before_writing(tmp_path, capsys):
    train = tmp_path / "train.json"
    train.write_text('{"subject": "s1", "model": "gru", "holdout": {"holdout_accuracy": 0.5}}')
    transfer_report = tmp_path / "transfer.json"
    transfer_report.write_text('{"runs": []}')
    out_dir = tmp_path / "t"
    out_dir.mkdir()
    (out_dir / "accuracy_table.csv").write_bytes(b"an earlier table\r\n")
    before = _tree(tmp_path)
    _expect_exit_3(["report", "--train-report", str(train), "--transfer-report",
                    str(transfer_report), "--out-dir", str(out_dir)], capsys)
    assert _tree(tmp_path) == before


def test_report_two_train_reports_of_one_subject_and_model_is_data_error(tmp_path, capsys):
    # without a "subject" key both files are subject "train", after their stem
    paths = []
    for name, acc in (("s1", 0.5), ("s2", 0.133333)):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "train.json")
        paths[-1].write_text(json.dumps({"model": "gru", "holdout": {"holdout_accuracy": acc}}))
    out_dir = tmp_path / "t"
    captured = _expect_exit_3(["report", "--train-report", str(paths[0]), "--train-report",
                               str(paths[1]), "--out-dir", str(out_dir)], capsys)
    assert f"{paths[1]}: a second gru report for subject 'train'" in captured.err
    assert not out_dir.exists()


def test_report_train_report_without_accuracy_is_data_error(tmp_path, capsys):
    # a transfer report passed as a train report has neither "cv" nor "holdout"
    transfer_report = tmp_path / "transfer.json"
    transfer_report.write_text(json.dumps({"model": "gru", "summary": [], "runs": []}))
    out_dir = tmp_path / "t"
    captured = _expect_exit_3(["report", "--train-report", str(transfer_report),
                               "--out-dir", str(out_dir)], capsys)
    assert f"{transfer_report}: no CV mean or holdout accuracy" in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "transfer"])
def test_two_outputs_at_one_path_rejected_before_work(tmp_path, capsys, monkeypatch, command):
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    model = _gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)
    argv = {
        # the same file under two spellings
        "train": ["train", "--features", str(feats), "--cv", "0", "--out", str(model),
                  "--checkpoint", f"{tmp_path}/./m.rmdl", *TRAIN_OVERRIDES],
        # the CSV goes next to the report, with the suffix .csv
        "transfer": ["transfer", "--source", str(model), "--covert", str(feats),
                     "--budgets", "0.3", "--seeds", "2", "--out", str(tmp_path / "t.csv")],
    }[command]
    monkeypatch.setattr(fileio, "read_features", lambda path: pytest.fail("input read"))
    before = _tree(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "two outputs at one path" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


# each command with an output at the path of a file it reads; two of them
# spell that path another way
CLOBBERED = {
    "preprocess --out": ["preprocess", "--input", "r.eegr", "--out", "./r.eegr",
                         *TRAIN_OVERRIDES],
    "features --out": ["features", "--input", "e.epoc", "--out", "e.epoc"],
    "features --config": ["features", "--input", "e.epoc", "--out", "c.cfg", "--config", "c.cfg"],
    "train --out": ["train", "--features", "f.ften", "--cv", "0", "--out", "f.ften",
                    *TRAIN_OVERRIDES],
    "train --checkpoint": ["train", "--features", "f.ften", "--cv", "0", "--out", "r.json",
                           "--checkpoint", "a_dir/../f.ften", *TRAIN_OVERRIDES],
    "evaluate --out": ["evaluate", "--model", "m.rmdl", "--features", "f.ften", "--out", "m.rmdl"],
    "transfer --out": ["transfer", "--source", "m.rmdl", "--covert", "f.ften", "--budgets", "0.3",
                       "--seeds", "1", "--out", "f.ften"],
    "transfer csv": ["transfer", "--source", "m.rmdl", "--covert", "f.csv", "--budgets", "0.3",
                     "--seeds", "1", "--out", "f.json"],
    "report --out-dir": ["report", "--train-report", "t/accuracy_table.csv", "--out-dir", "t"],
}


@pytest.mark.parametrize("case", CLOBBERED)
def test_output_at_an_input_path_is_config_error(workspace, tmp_path, capsys, monkeypatch, case):
    # before, each command wrote over the file it had read: features on
    # e.epoc left an FTEN file there
    _readable_inputs(tmp_path)
    shutil.copy(workspace / "data" / "synthetic_overt.eegr", tmp_path / "r.eegr")
    shutil.copy(tmp_path / "f.ften", tmp_path / "f.csv")
    (tmp_path / "c.cfg").write_text("seed = 1\n")
    (tmp_path / "t").mkdir()
    (tmp_path / "t" / "accuracy_table.csv").write_text(json.dumps(
        {"model": "gru", "holdout": {"holdout_accuracy": 0.5}}))
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    assert main(CLOBBERED[case]) == 2
    err = capsys.readouterr().err
    assert "it is an input" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command",
                         ["features", "preprocess", "report", "synth", "train", "transfer"])
def test_unwritable_output_is_config_error(tmp_path, capsys, monkeypatch, command):
    # the blocked output is not the first one each command writes
    taken = tmp_path / {"preprocess": "x.epoc.prov.json", "synth": "out/synthetic_manifest.json",
                        "transfer": "t.csv"}.get(command, "taken")
    if command in ("report", "train"):
        taken.write_bytes(b"kept")
    else:
        taken.mkdir(parents=True)
        (taken / "inner.txt").write_bytes(b"kept")
    spec = tmp_path / "s.kv"
    spec.write_text(TINY_SPEC)
    recording = EegRecording(data=np.zeros((2, 100)), sample_rate_hz=100.0,
                             channel_labels=["a", "b"])
    epochs = EpochSet(data=np.ones((2, 8, 2)), labels=[0, 1], condition=Condition.OVERT,
                      sample_rate_hz=100.0, class_names=["a", "b"])
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    summary = tmp_path / "transfer.json"
    summary.write_text('{"summary": []}')
    argv = {
        # an existing directory at the output path
        "features": ["features", "--input", str(fileio.write_epochs(epochs, tmp_path / "e.epoc")),
                     "--out", str(taken)],
        # an existing directory at the provenance sidecar's path
        "preprocess": ["preprocess", "--input",
                       str(fileio.write_recording(recording, tmp_path / "r.eegr")),
                       "--out", str(tmp_path / "x.epoc")],
        # an existing file at the output directory
        "report": ["report", "--transfer-report", str(summary), "--out-dir", str(taken)],
        # an existing directory at the manifest, written after both recordings
        "synth": ["synth", "--spec", str(spec), "--out", str(tmp_path / "out")],
        # an existing file as the report's parent directory; the checkpoint
        # would be saved first
        "train": ["train", "--features", str(feats), "--cv", "0",
                  "--checkpoint", str(tmp_path / "ok.rmdl"), "--out", str(taken / "r.json"),
                  *TRAIN_OVERRIDES],
        # an existing directory at the CSV written beside the report
        "transfer": ["transfer", "--source",
                     str(_gru_checkpoint(tmp_path / "m.rmdl", n_classes=5, favoured=0)),
                     "--covert", str(feats), "--budgets", "0.3", "--out", str(tmp_path / "t.json")],
    }[command]
    for reader in ("read_recording", "read_epochs", "read_features", "load_model"):
        monkeypatch.setattr(fileio, reader, lambda path: pytest.fail(f"input read: {path}"))
    monkeypatch.setattr(synth, "generate_paired", lambda spec: pytest.fail("subject generated"))
    before = _tree(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"cannot write {taken}" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


# every input flag, with the command line that reads it; BAD stands for the
# unreadable path, and every other input is readable
BAD = object()
INPUT_FLAGS = {
    "preprocess --input": ["preprocess", "--input", BAD, "--out", "x.epoc"],
    "features --input": ["features", "--input", BAD, "--out", "x.ften"],
    "train --features": ["train", "--features", BAD, "--out", "r.json"],
    "evaluate --model": ["evaluate", "--model", BAD, "--features", "f.ften", "--out", "e.json"],
    "evaluate --features": ["evaluate", "--model", "m.rmdl", "--features", BAD,
                            "--out", "e.json"],
    "transfer --source": ["transfer", "--source", BAD, "--covert", "f.ften", "--out", "t.json"],
    "transfer --covert": ["transfer", "--source", "m.rmdl", "--covert", BAD, "--out", "t.json"],
    "report --train-report": ["report", "--train-report", BAD, "--out-dir", "t"],
    "report --transfer-report": ["report", "--transfer-report", BAD, "--out-dir", "t"],
    "report --overt-features": ["report", "--overt-features", BAD,
                                "--covert-features", "f.ften", "--out-dir", "t"],
    "report --covert-features": ["report", "--overt-features", "f.ften",
                                 "--covert-features", BAD, "--out-dir", "t"],
    "features --config": ["features", "--input", "e.epoc", "--out", "x.ften", "--config", BAD],
    "synth --spec": ["synth", "--spec", BAD, "--out", "data"],
}


def _readable_inputs(root):
    _features_file(root / "f.ften", np.repeat(np.arange(5), 4))
    _gru_checkpoint(root / "m.rmdl", n_classes=5, favoured=0)
    fileio.write_epochs(EpochSet(data=np.ones((2, 8, 2)), labels=[0, 1],
                                 condition=Condition.OVERT, sample_rate_hz=100.0,
                                 class_names=["a", "b"]), root / "e.epoc")
    (root / "a_file").write_bytes(b"a regular file")
    (root / "a_dir").mkdir()


@pytest.mark.parametrize("where", ["missing", "a_dir", "a_file/under"])
@pytest.mark.parametrize("flag", INPUT_FLAGS)
def test_unreadable_input_names_the_path(tmp_path, capsys, monkeypatch, flag, where):
    # a path that names no file ends in exit 3, or 2 for a config source,
    # before any output is written
    _readable_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    bad = str(tmp_path / where)
    config = flag.endswith(("--config", "--spec"))
    before = _tree(tmp_path)
    assert main([bad if arg is BAD else arg for arg in INPUT_FLAGS[flag]]) == (2 if config else 3)
    err = capsys.readouterr().err
    assert f"{'config' if config else 'input'} file not found: {bad}" in err
    assert "Traceback" not in err
    assert _tree(tmp_path) == before


def test_undecodable_config_is_config_error(tmp_path, capsys, monkeypatch):
    _readable_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ften").write_bytes(b"seed = 1\n\xff\n")
    before = _tree(tmp_path)
    assert main(["evaluate", "--model", "m.rmdl", "--features", "f.ften", "--out", "e.json",
                 "--config", "c.ften"]) == 2
    assert "c.ften: not UTF-8 text" in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_validate_directory_is_invalid(tmp_path, capsys):
    (tmp_path / "adir.ften").mkdir()
    captured = _expect_exit_3(["validate", str(tmp_path / "adir.ften")], capsys)
    assert f"{tmp_path / 'adir.ften'}: INVALID (input file not found" in captured.out


def _not_a_classifier(stack):
    """Layer specs whose widths chain but that no classifier_specs call builds."""
    gru, dense, softmax = classifier_specs("gru", 4, hidden=(3,), dropout=(0.0,), n_classes=5)
    return {
        "sequence_output": [replace(gru, return_sequences=True), dense, softmax],
        "dense_softmax_only": [replace(dense, input_size=4), softmax],
        "two_dense": [gru, replace(dense, size=3), replace(dense, input_size=3), softmax],
        "no_softmax": [gru, dense],
    }[stack]


@pytest.mark.parametrize("command", ["evaluate", "transfer"])
@pytest.mark.parametrize("stack", ["sequence_output", "dense_softmax_only", "two_dense",
                                   "no_softmax"])
def test_checkpoint_that_is_not_a_classifier_is_rejected(tmp_path, capsys, command, stack):
    model = fileio.save_model(build_model(_not_a_classifier(stack), seed=0), tmp_path / "m.rmdl")
    feats = _features_file(tmp_path / "f.ften", np.repeat(np.arange(5), 4))
    argv = {"evaluate": ["evaluate", "--model", str(model), "--features", str(feats)],
            "transfer": ["transfer", "--source", str(model), "--covert", str(feats),
                         "--budgets", "0.3", "--seeds", "1"]}[command]
    before = _tree(tmp_path)
    captured = _expect_exit_3([*argv, "--out", str(tmp_path / "r.json")], capsys)
    assert f"{model}: header does not describe a model" in captured.err
    assert _tree(tmp_path) == before
