"""Synthetic paired-subject generator."""

import json
import tracemalloc

import numpy as np
import pytest

from covert_decode import fileio
from covert_decode.containers import Condition
from covert_decode.errors import ConfigError, FileFormatError
from covert_decode.features import extract_features
from covert_decode.synth import (
    SynthSpec,
    generate_paired,
    measure_cross_condition_envelope_correlation,
    to_recordings,
    write_manifest,
)


def small_spec(**overrides):
    defaults = dict(n_channels=8, trials_per_class=6, seed=3)
    defaults.update(overrides)
    return SynthSpec(**defaults)


class TestGeneratePaired:
    def test_default_shapes(self):
        spec = small_spec()
        overt, covert, manifest = generate_paired(spec)
        assert overt.data.shape == (30, 1000, 8)
        assert covert.data.shape == (30, 1000, 8)
        assert overt.condition == Condition.OVERT
        assert covert.condition == Condition.COVERT
        np.testing.assert_array_equal(np.bincount(overt.labels), 6)
        assert manifest["n_trials"] == 30

    def test_paper_scale_counts(self):
        spec = SynthSpec(n_channels=4, trials_per_class=80)
        assert spec.n_trials == 400
        assert spec.n_timesteps == 1000

    def test_identical_when_rho_one_no_noise(self):
        spec = small_spec(
            cross_condition_rho=1.0, attenuation=1.0, noise_sigma=0.0, trials_per_class=2
        )
        overt, covert, _ = generate_paired(spec)
        np.testing.assert_array_equal(overt.data, covert.data)

    def test_deterministic(self):
        spec = small_spec()
        a = generate_paired(spec)
        b = generate_paired(spec)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].data, b[1].data)

    def test_labels_balanced_and_shared(self):
        overt, covert, _ = generate_paired(small_spec())
        np.testing.assert_array_equal(overt.labels, covert.labels)

    def test_attenuation_shrinks_covert(self):
        spec = small_spec(noise_sigma=0.0, attenuation=0.5, cross_condition_rho=1.0)
        overt, covert, _ = generate_paired(spec)
        ratio = np.abs(covert.data).mean() / np.abs(overt.data).mean()
        assert ratio == pytest.approx(0.5, abs=0.05)

    def test_rho_tracking_at_defaults(self):
        for rho in (0.3, 0.8):
            spec = SynthSpec(
                n_channels=16, trials_per_class=80, cross_condition_rho=rho, seed=11
            )
            overt, covert, _ = generate_paired(spec)
            rs = np.array(
                list(measure_cross_condition_envelope_correlation(overt, covert).values())
            )
            assert np.all(np.abs(rs - rho) <= 0.15), (rho, rs)

    def test_rho_bounds_validated(self):
        with pytest.raises(ValueError):
            SynthSpec(cross_condition_rho=1.5)
        with pytest.raises(ValueError):
            SynthSpec(attenuation=0.0)

    def test_smoothing_wider_than_100_epochs_rejected(self):
        # sigma is about 18,700 epochs of 50 samples; the kernel would be
        # about 7.5e6 float64 values per smoothed series
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="envelope_bandwidth_hz"):
                SynthSpec(n_classes=1, trials_per_class=1, n_channels=1,
                          epoch_seconds=0.1, envelope_bandwidth_hz=1e-4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_nearest_centroid_floor_low_noise(self):
        spec = SynthSpec(n_channels=16, trials_per_class=20, noise_sigma=0.1, seed=1)
        overt, _, _ = generate_paired(spec)
        env = extract_features(overt).envelope_block().mean(axis=1)
        labels = overt.labels
        correct = 0
        for i in range(len(labels)):
            keep = np.arange(len(labels)) != i
            centroids = np.stack(
                [env[keep & (labels == k)].mean(axis=0) for k in range(5)]
            )
            correct += np.argmin(np.linalg.norm(centroids - env[i], axis=1)) == labels[i]
        assert correct / len(labels) >= 0.9


class TestToRecording:
    def test_markers_and_roundtrip_layout(self):
        spec = small_spec(trials_per_class=2)
        overt, _, _ = generate_paired(spec)
        rec = to_recordings([overt], gap_seconds=0.25, seed=0)[0]
        assert len(rec.markers) == overt.n_trials
        m0, label0 = rec.markers[0]
        assert label0 == overt.labels[0]
        np.testing.assert_array_equal(rec.data[:, m0 : m0 + 1000], overt.data[0].T)

    def test_gap_leaves_baseline_room(self):
        spec = small_spec(trials_per_class=1)
        overt, _, _ = generate_paired(spec)
        rec = to_recordings([overt], gap_seconds=0.2, seed=0)[0]
        assert rec.markers[0][0] >= 50  # 100 ms at 500 Hz


class TestManifest:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = small_spec(trials_per_class=2)
        overt, covert, _ = generate_paired(spec)
        path = write_manifest({"overt": overt, "covert": covert}, tmp_path, subject="s1")
        manifest = json.loads(path.read_text())
        assert len(manifest["files"]) == 2
        for entry in manifest["files"]:
            loaded = fileio.read_epochs(tmp_path / entry["path"])
            original = overt if entry["condition"] == "overt" else covert
            np.testing.assert_array_equal(
                loaded.data, original.data.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(loaded.labels, original.labels)

    def test_manifest_lists_two_files_per_subject(self, tmp_path):
        spec = small_spec(trials_per_class=1)
        overt, covert, _ = generate_paired(spec)
        rec_o = to_recordings([overt], seed=1)[0]
        rec_c = to_recordings([covert], seed=1)[0]
        path = write_manifest({"overt": rec_o, "covert": rec_c}, tmp_path, subject="s2")
        manifest = json.loads(path.read_text())
        assert len(manifest["files"]) == 2
        assert {f["kind"] for f in manifest["files"]} == {"recording"}

    @pytest.mark.parametrize("second", ["recording", "not a dataset"])
    def test_mixed_kinds_write_nothing(self, tmp_path, second):
        overt, covert, _ = generate_paired(small_spec(trials_per_class=1))
        other = to_recordings([covert])[0] if second == "recording" else second
        with pytest.raises(TypeError, match="need all EegRecording or all EpochSet"):
            write_manifest({"overt": overt, "covert": other}, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_tampered_magic_detected(self, tmp_path):
        spec = small_spec(trials_per_class=1)
        overt, covert, _ = generate_paired(spec)
        path = write_manifest({"overt": overt, "covert": covert}, tmp_path)
        manifest = json.loads(path.read_text())
        victim = tmp_path / manifest["files"][0]["path"]
        raw = bytearray(victim.read_bytes())
        raw[:4] = b"XXXX"
        victim.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match=victim.name):
            fileio.read_epochs(victim)
