"""Filter design, zero-phase filtering, and epoching."""

import tracemalloc

import numpy as np
import pytest
from scipy import signal as sp_signal

from covert_decode import preprocessing, threads
from covert_decode.containers import EegRecording
from covert_decode.errors import EpochingError, FilterDesignError
from covert_decode.preprocessing import (
    FilterCoefficients,
    design_butterworth_bandpass,
    design_notch,
    epoch_and_baseline,
    filter_zero_phase,
)


def direct_magnitude(coeffs, freq_hz, fs):
    """Independent |H| oracle: evaluate both polynomials on the unit circle."""
    z_inv = np.exp(-2j * np.pi * freq_hz / fs)
    num = sum(b * z_inv**k for k, b in enumerate(coeffs.numerator))
    den = sum(a * z_inv**k for k, a in enumerate(coeffs.denominator))
    return abs(num / den)


class TestNotchDesign:
    def test_center_attenuation_exceeds_30_db(self):
        coeffs = design_notch(50, 30, 500)
        assert direct_magnitude(coeffs, 50.0, 500) < 0.0316

    def test_unit_dc_gain(self):
        coeffs = design_notch(50, 30, 500)
        assert abs(direct_magnitude(coeffs, 0.0, 500) - 1.0) < 1e-6

    def test_gain_near_nyquist_within_1_db(self):
        coeffs = design_notch(50, 30, 500)
        mag = direct_magnitude(coeffs, 0.9 * 250, 500)
        assert 20 * np.log10(mag) >= -1.0

    def test_center_at_or_above_nyquist_rejected(self):
        with pytest.raises(FilterDesignError):
            design_notch(100, 30, 150)
        with pytest.raises(FilterDesignError):
            design_notch(75, 30, 150)

    def test_stability(self):
        assert design_notch(50, 30, 500).is_stable()


class TestButterworthBandpass:
    def test_band_edges_at_minus_3_db(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        for edge in (0.5, 80.0):
            db = 20 * np.log10(direct_magnitude(coeffs, edge, 500))
            assert -3.5 <= db <= -2.5

    def test_geometric_center_near_unity(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        db = 20 * np.log10(direct_magnitude(coeffs, np.sqrt(0.5 * 80), 500))
        assert db >= -0.1

    def test_stopband_monotone(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        freqs = np.linspace(85, 245, 60)
        mags = [direct_magnitude(coeffs, f, 500) for f in freqs]
        assert all(a >= b - 1e-12 for a, b in zip(mags, mags[1:]))

    def test_reversed_cutoffs_rejected(self):
        with pytest.raises(FilterDesignError):
            design_butterworth_bandpass(4, 80, 0.5, 500)

    def test_stability(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        assert coeffs.is_stable()
        assert np.abs(np.roots(coeffs.denominator)).max() < 1.0

    def test_denominator_normalized(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        assert coeffs.denominator[0] == 1.0


class TestZeroPhaseFilter:
    def test_constant_preserved_by_notch(self):
        coeffs = design_notch(50, 30, 500)
        out = filter_zero_phase(np.full(800, 5.0), coeffs)
        assert out.shape == (800,)
        np.testing.assert_allclose(out, 5.0, atol=1e-6)

    def test_notch_kills_50_hz_tone(self):
        coeffs = design_notch(50, 30, 500)
        t = np.arange(2000) / 500.0
        tone = np.sin(2 * np.pi * 50 * t)
        out = filter_zero_phase(tone, coeffs)
        rms = np.sqrt(np.mean(out[500:1500] ** 2))
        assert rms < 0.01

    def test_too_short_signal_rejected(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        with pytest.raises(EpochingError):
            filter_zero_phase(np.zeros(10), coeffs)

    def test_linearity(self):
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(600)
        y = rng.standard_normal(600)
        lhs = filter_zero_phase(2.5 * x - 1.3 * y, coeffs)
        rhs = 2.5 * filter_zero_phase(x, coeffs) - 1.3 * filter_zero_phase(y, coeffs)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() / scale < 1e-9

    def test_zero_phase_alignment(self):
        # a low-frequency tone inside the passband keeps its phase
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        t = np.arange(4000) / 500.0
        tone = np.cos(2 * np.pi * 10 * t)
        out = filter_zero_phase(tone, coeffs)
        center = slice(1000, 3000)
        shift = np.argmax(np.correlate(out[center], tone[center], mode="same")) - 1000
        assert shift == 0

    def test_multichannel_axis(self):
        coeffs = design_notch(50, 30, 500)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 700))
        out = filter_zero_phase(x, coeffs)
        assert out.shape == x.shape
        np.testing.assert_allclose(out[1], filter_zero_phase(x[1], coeffs), rtol=1e-10)

    @pytest.mark.parametrize(
        "shape, axis, block_bytes",
        [
            ((7, 900), -1, 3 * 900 * 8),  # 3-row blocks: 3 + 3 + 1
            ((5, 900), -1, 1),  # one signal per block
            ((900,), -1, 2**22),  # 1-D: a single signal
            ((900, 6), 0, 4 * 900 * 8),  # filtered along the first axis: 4 + 2
            ((3, 900, 4), 1, 5 * 900 * 8),  # 12 signals across two other axes: 5 + 5 + 2
        ],
    )
    def test_blocked_matches_one_sosfiltfilt_call(self, monkeypatch, shape, axis, block_bytes):
        monkeypatch.setattr(threads, "BLOCK_BYTES", block_bytes)
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        x = np.random.default_rng(2).standard_normal(shape)
        sos = sp_signal.tf2sos(coeffs.numerator, coeffs.denominator)
        padlen = 3 * (max(coeffs.numerator.size, coeffs.denominator.size) - 1)
        want = sp_signal.sosfiltfilt(sos, x, axis=axis, padtype="even", padlen=padlen)
        np.testing.assert_array_equal(filter_zero_phase(x, coeffs, axis=axis), want)

    def test_peaks_at_output_plus_blocks(self):
        # sosfiltfilt holds about three padded copies of what it is given, so
        # filtering in blocks bounds the peak by a few blocks above the output
        coeffs = design_butterworth_bandpass(4, 0.5, 80, 500)
        x = np.random.default_rng(3).standard_normal((16, 250_000))
        tracemalloc.start()
        try:
            out = filter_zero_phase(x, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < x.nbytes + 4 * threads.BLOCK_BYTES


def make_recording(n_channels=2, n_samples=3000, markers=(), fs=500.0, data=None):
    if data is None:
        rng = np.random.default_rng(0)
        data = rng.standard_normal((n_channels, n_samples))
    return EegRecording(
        data=data,
        sample_rate_hz=fs,
        channel_labels=[f"ch{i}" for i in range(n_channels)],
        markers=list(markers),
    )


class TestEpoching:
    def test_window_arithmetic(self):
        rec = make_recording(markers=[(100, 0), (1500, 1)])
        epochs, report = epoch_and_baseline(rec, 2.0, 100.0)
        assert epochs.n_timesteps == 1000
        assert epochs.n_trials == 2
        assert report.n_skipped == 0
        np.testing.assert_array_equal(epochs.labels, [0, 1])

    def test_constant_channel_becomes_zero(self):
        data = np.full((1, 3000), 3.0)
        rec = make_recording(n_channels=1, data=data, markers=[(200, 0)])
        epochs, _ = epoch_and_baseline(rec, 2.0, 100.0)
        np.testing.assert_allclose(epochs.data, 0.0, atol=1e-12)

    def test_marker_too_early_dropped(self):
        rec = make_recording(markers=[(10, 0), (200, 1)])
        epochs, report = epoch_and_baseline(rec, 2.0, 100.0)
        assert epochs.n_trials == 1
        assert report.n_skipped == 1
        assert report.skipped[0]["sample_index"] == 10

    def test_marker_too_late_dropped(self):
        rec = make_recording(markers=[(2500, 2)])
        epochs, report = epoch_and_baseline(rec, 2.0, 100.0)
        assert epochs.n_trials == 0
        assert report.n_skipped == 1
        assert report.skipped[0]["reason"] == "epoch past end"

    def test_baseline_mean_subtracted_exactly(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((3, 4000))
        rec = make_recording(n_channels=3, data=data, markers=[(300, 0), (1800, 4)])
        epochs, _ = epoch_and_baseline(rec, 2.0, 100.0)
        for k, (m, _) in enumerate(rec.markers):
            baseline = data[:, m - 50 : m].mean(axis=1)
            reconstructed = epochs.data[k] + baseline[np.newaxis, :]
            np.testing.assert_allclose(reconstructed, data[:, m : m + 1000].T, atol=1e-9)
            # the recomputed baseline-region mean of the corrected epoch is zero
            corrected_baseline = data[:, m - 50 : m].T - baseline[np.newaxis, :]
            np.testing.assert_allclose(corrected_baseline.mean(axis=0), 0.0, atol=1e-9)

    def test_epoch_count_identity(self):
        markers = [(10, 0), (200, 1), (900, 2), (2600, 3)]
        rec = make_recording(markers=markers)
        epochs, report = epoch_and_baseline(rec, 2.0, 100.0)
        assert epochs.n_trials + report.n_skipped == len(markers)


class TestFilterCoefficients:
    def test_normalization(self):
        c = FilterCoefficients([2.0, 4.0], [2.0, 1.0])
        np.testing.assert_allclose(c.denominator, [1.0, 0.5])
        np.testing.assert_allclose(c.numerator, [1.0, 2.0])

    def test_unstable_design_detected(self):
        c = FilterCoefficients([1.0], [1.0, -1.5])
        assert not c.is_stable()
