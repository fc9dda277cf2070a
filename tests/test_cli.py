"""End-to-end CLI runs on a miniature synthetic subject, exit codes,
determinism of emitted artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from covert_decode import fileio
from covert_decode.cli import main

SYNTH_SPEC = """
# miniature subject: fast enough for tests
n_classes = 5
trials_per_class = 6
n_channels = 4
sample_rate_hz = 250
epoch_seconds = 0.4
noise_sigma = 0.4
"""

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
    root = tmp_path_factory.mktemp("cli")
    spec = root / "subject.kv"
    spec.write_text(SYNTH_SPEC)
    assert main(["synth", "--spec", str(spec), "--out", str(root / "data"),
                 "--seed", "3"]) == 0
    return root


def test_synth_emits_manifest_and_recordings(workspace):
    data = workspace / "data"
    files = sorted(p.name for p in data.iterdir())
    assert "synthetic_manifest.json" in files
    assert "synthetic_overt.eegr" in files
    assert "synthetic_covert.eegr" in files
    manifest = json.loads((data / "synthetic_manifest.json").read_text())
    assert len(manifest["files"]) == 2


def test_preprocess_and_features_chain(workspace):
    root = workspace
    for condition in ("overt", "covert"):
        code = main(
            ["preprocess", "--input", str(root / "data" / f"synthetic_{condition}.eegr"),
             "--out", str(root / f"{condition}.epoc"), "--condition", condition,
             "--seed", "3", *TRAIN_OVERRIDES]
        )
        assert code == 0
        assert (root / f"{condition}.epoc").exists()
        skipped = json.loads((root / f"{condition}.epoc.skipped.json").read_text())
        assert skipped["n_skipped"] == 0
        code = main(
            ["features", "--input", str(root / f"{condition}.epoc"),
             "--out", str(root / f"{condition}.ften"), *TRAIN_OVERRIDES]
        )
        assert code == 0
    overt = fileio.read_features(root / "overt.ften")
    assert overt.n_features == 8  # 4 channels -> 8 feature columns
    assert overt.n_timesteps == 100


def test_feature_run_is_byte_identical(workspace):
    root = workspace
    out2 = root / "overt_again.ften"
    assert main(["features", "--input", str(root / "overt.epoc"),
                 "--out", str(out2), *TRAIN_OVERRIDES]) == 0
    assert out2.read_bytes() == (root / "overt.ften").read_bytes()


def test_train_evaluate_transfer_report(workspace):
    root = workspace
    code = main(
        ["train", "--features", str(root / "overt.ften"), "--model", "bilstm",
         "--cv", "3", "--seed", "1", "--out", str(root / "train.json"),
         "--checkpoint", str(root / "model.rmdl"), *TRAIN_OVERRIDES]
    )
    assert code == 0
    report = json.loads((root / "train.json").read_text())
    assert report["schema"] == 1
    assert report["cv"]["k"] == 3
    assert len(report["cv"]["fold_accuracies"]) == 3
    assert (root / "model.rmdl").exists()
    assert report["config"]["hidden_units"] == "6,4"
    assert report["inputs"][0]["sha256"] == fileio.sha256_file(root / "overt.ften")

    code = main(
        ["evaluate", "--model", str(root / "model.rmdl"),
         "--features", str(root / "covert.ften"),
         "--out", str(root / "eval.json"), *TRAIN_OVERRIDES]
    )
    assert code == 0
    ev = json.loads((root / "eval.json").read_text())
    assert 0.0 <= ev["accuracy"] <= 1.0
    assert len(ev["confusion"]) == 5

    code = main(
        ["transfer", "--source", str(root / "model.rmdl"),
         "--covert", str(root / "covert.ften"), "--budgets", "0.3,0.4",
         "--seeds", "2", "--out", str(root / "transfer.json"),
         "--seed", "0", *TRAIN_OVERRIDES, "--set", "fine_tune_max_epochs=3"]
    )
    assert code == 0
    tr = json.loads((root / "transfer.json").read_text())
    assert len(tr["runs"]) == 4  # 2 budgets x 2 seeds
    assert (root / "transfer.csv").exists()
    for run in tr["runs"]:
        assert run["recurrent_hash_before"] == run["recurrent_hash_after"]

    code = main(
        ["report", "--train-report", str(root / "train.json"),
         "--transfer-report", str(root / "transfer.json"),
         "--overt-features", str(root / "overt.ften"),
         "--covert-features", str(root / "covert.ften"),
         "--out-dir", str(root / "tables")]
    )
    assert code == 0
    tables = {p.name for p in (root / "tables").iterdir()}
    assert {"accuracy_table.csv", "transfer_budgets.csv",
            "envelope_means.csv", "envelope_correlation.csv"} <= tables


def test_report_regeneration_idempotent(workspace):
    root = workspace
    before = (root / "tables" / "transfer_budgets.csv").read_bytes()
    assert main(
        ["report", "--transfer-report", str(root / "transfer.json"),
         "--out-dir", str(root / "tables")]
    ) == 0
    assert (root / "tables" / "transfer_budgets.csv").read_bytes() == before


def test_validate_accepts_good_files(workspace, capsys):
    root = workspace
    code = main(["validate", str(root / "data" / "synthetic_overt.eegr"),
                 str(root / "overt.ften"), str(root / "model.rmdl"),
                 str(root / "data" / "synthetic_manifest.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 4


def test_validate_rejects_tampered_file(workspace, tmp_path):
    bad = tmp_path / "bad.ften"
    bad.write_bytes(b"WHAT" + b"\x00" * 40)
    assert main(["validate", str(bad)]) == 3


def test_missing_input_exit_code_and_message(workspace, capsys):
    code = main(["features", "--input", str(workspace / "nope.epoc"),
                 "--out", str(workspace / "x.ften")])
    assert code == 3
    assert "nope.epoc" in capsys.readouterr().err


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


def test_bad_passband_fails_before_io(workspace, capsys):
    # input path does not even exist: the design error must surface first
    code = main(["preprocess", "--input", str(workspace / "missing.eegr"),
                 "--out", str(workspace / "x.epoc"),
                 "--set", "bandpass_low_hz=80", "--set", "bandpass_high_hz=0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cutoff" in err or "low" in err


def test_unknown_config_key_rejected(workspace, capsys):
    code = main(["features", "--input", str(workspace / "overt.epoc"),
                 "--out", str(workspace / "y.ften"), "--set", "typo_key=1"])
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
