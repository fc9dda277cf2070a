"""The analytic-signal transform, envelope/fine-structure features, envelope
correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_decode.containers import Condition, EpochSet, FeatureTensor
from covert_decode.errors import DataError
from covert_decode.features import envelope_correlation, extract_features, hilbert_parts


def hilbert_kernel_oracle(x):
    """O(N^2) circular-convolution oracle for the discrete Hilbert transform.

    The kernel is the inverse DFT of -j*sign(frequency), computed by direct
    summation (no FFT anywhere), then circularly convolved with x.
    """
    n = x.size
    sign = np.zeros(n)
    if n % 2 == 0:
        sign[1 : n // 2] = 1.0
        sign[n // 2 + 1 :] = -1.0
    else:
        sign[1 : (n + 1) // 2] = 1.0
        sign[(n + 1) // 2 :] = -1.0
    kernel = np.zeros(n)
    for idx in range(n):
        angle = 2.0 * np.pi * np.arange(n) * idx / n
        # real part of (1/N) sum_m -j*sign[m] e^{j angle}
        kernel[idx] = (sign * np.sin(angle)).sum() / n
    out = np.zeros(n)
    for t in range(n):
        out[t] = (x * kernel[(t - np.arange(n)) % n]).sum()
    return out


def imag_part(x):
    return hilbert_parts(x)[0]


def env_part(x):
    return hilbert_parts(x)[1]


def tfs_part(x):
    return hilbert_parts(x)[2]


class TestAnalyticSignal:
    def test_integer_bin_cosine_gives_sine(self):
        n = 1000
        for k in (1, 7, 50, 499):
            x = np.cos(2 * np.pi * k * np.arange(n) / n)
            np.testing.assert_allclose(
                imag_part(x), np.sin(2 * np.pi * k * np.arange(n) / n), atol=1e-9
            )

    def test_zero_input_zero_output(self):
        np.testing.assert_array_equal(imag_part(np.zeros(64)), 0.0)

    def test_matches_circular_kernel_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(256)
        np.testing.assert_allclose(imag_part(x), hilbert_kernel_oracle(x), atol=1e-9)

    def test_oracle_odd_length(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(129)
        np.testing.assert_allclose(imag_part(x), hilbert_kernel_oracle(x), atol=1e-9)

    def test_negative_frequencies_vanish(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        spectrum = np.fft.fft(x + 1j * imag_part(x))
        negative = spectrum[101:]
        assert np.abs(negative).max() / np.abs(spectrum).max() < 1e-9

    @pytest.mark.parametrize("n", [4, 5, 128, 129, 1000])
    def test_matches_frozen_fft_path(self, n):
        # the 1-D transform before it shared the batched helper
        x = np.random.default_rng(n).standard_normal(n)
        w = np.zeros(n)
        w[0] = 1.0
        if n % 2 == 0:
            w[1 : n // 2] = 2.0
            w[n // 2] = 1.0
        else:
            w[1 : (n + 1) // 2] = 2.0
        expected = np.fft.ifft(np.fft.fft(x) * w).imag
        np.testing.assert_array_equal(imag_part(x), expected)

    @pytest.mark.parametrize("n", [4, 5, 128, 129, 1000])
    def test_columns_match_1d_calls(self, n):
        # extract_features runs the transform down each trial's (time,
        # channel) block; demo 03 runs it on one series
        block = np.random.default_rng(n).standard_normal((n, 7))
        block[:, 3] = 0.0
        parts = hilbert_parts(block)
        for c in range(block.shape[1]):
            for got, want in zip(parts, hilbert_parts(block[:, c])):
                np.testing.assert_array_equal(got[:, c], want)

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="too short"):
            hilbert_parts(np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
    @pytest.mark.parametrize("n", [4, 5, 64, 1001])
    def test_non_finite_series_rejected(self, bad, n):
        for at in (0, n // 2, n - 1):
            block = np.random.default_rng(n).standard_normal((n, 3))
            block[at, 1] = bad
            with pytest.raises(DataError, match="NaN or infinite"):
                hilbert_parts(block)


class TestEnvelope:
    def test_constant_amplitude_tone(self):
        n = 1000
        x = 2.5 * np.cos(2 * np.pi * 30 * np.arange(n) / n)
        np.testing.assert_allclose(env_part(x), 2.5, atol=1e-9)

    def test_zeros(self):
        np.testing.assert_array_equal(env_part(np.zeros(32)), 0.0)

    def test_amplitude_modulated_tone(self):
        n = 1000
        idx = np.arange(n)
        modulation = 1.0 + 0.5 * np.cos(2 * np.pi * idx / n)
        x = modulation * np.cos(2 * np.pi * 50 * idx / n)
        env = env_part(x)
        central = slice(n // 10, 9 * n // 10)
        np.testing.assert_allclose(env[central], modulation[central], atol=1e-3)

    def test_dominates_signal_magnitude(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(512)
        assert np.all(env_part(x) >= np.abs(x) - 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0), st.integers(min_value=0, max_value=2**31))
    def test_positive_scale_equivariance(self, alpha, seed):
        x = np.random.default_rng(seed).standard_normal(128)
        np.testing.assert_allclose(env_part(alpha * x), alpha * env_part(x), rtol=1e-9)


class TestFineStructure:
    def test_amplitude_removed(self):
        n = 1000
        x = 3.0 * np.cos(2 * np.pi * 40 * np.arange(n) / n)
        np.testing.assert_allclose(
            tfs_part(x), np.cos(2 * np.pi * 40 * np.arange(n) / n), atol=1e-9
        )

    def test_zeros_with_floor(self):
        _, _, tfs = hilbert_parts(np.zeros(16), env_floor_rel=1e-12)
        np.testing.assert_array_equal(tfs, 0.0)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(300)
        _, env, tfs = hilbert_parts(x)
        mask = env > 1e-12 * env.max()
        np.testing.assert_allclose((tfs * env)[mask], x[mask], rtol=1e-12, atol=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal(200) * rng.uniform(0.01, 100)
            tfs = tfs_part(x)
            assert np.all(tfs >= -1.0) and np.all(tfs <= 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.5, max_value=20.0))
    def test_scale_invariance(self, alpha):
        x = np.random.default_rng(13).standard_normal(100)
        np.testing.assert_allclose(tfs_part(alpha * x), tfs_part(x), atol=1e-9)


def make_epochs(data, labels=None, fs=500.0):
    data = np.asarray(data, dtype=np.float64)
    if labels is None:
        labels = np.zeros(data.shape[0], dtype=np.int64)
    n_classes = int(np.max(labels)) + 1 if len(labels) else 1
    return EpochSet(
        data=data,
        labels=labels,
        condition=Condition.OVERT,
        sample_rate_hz=fs,
        class_names=[f"c{i}" for i in range(n_classes)],
    )


class TestExtractFeatures:
    def test_width_doubles(self):
        rng = np.random.default_rng(21)
        epochs = make_epochs(rng.standard_normal((6, 40, 5)))
        tensor = extract_features(epochs)
        assert tensor.data.shape == (6, 40, 10)
        assert tensor.n_channels == 5

    def test_zero_trial(self):
        epochs = make_epochs(np.zeros((1, 8, 1)))
        tensor = extract_features(epochs)
        np.testing.assert_array_equal(tensor.data, 0.0)

    def test_tone_trial_matches_scalar_ops(self):
        n = 64
        tone = 2.0 * np.cos(2 * np.pi * 8 * np.arange(n) / n)
        epochs = make_epochs(tone.reshape(1, n, 1))
        tensor = extract_features(epochs)
        _, env, tfs = hilbert_parts(tone)
        np.testing.assert_array_equal(tensor.data[0, :, 0], env)
        np.testing.assert_array_equal(tensor.data[0, :, 1], tfs)

    def test_envelope_block_nonnegative_tfs_bounded(self):
        rng = np.random.default_rng(22)
        epochs = make_epochs(rng.standard_normal((4, 100, 3)))
        tensor = extract_features(epochs)
        assert np.all(tensor.envelope_block() >= 0.0)
        assert np.all(np.abs(tensor.data[:, :, tensor.n_channels:]) <= 1.0)

    def test_reconstruction_per_trial_channel(self):
        rng = np.random.default_rng(23)
        epochs = make_epochs(rng.standard_normal((3, 80, 4)))
        tensor = extract_features(epochs)
        env = tensor.envelope_block()
        tfs = tensor.data[:, :, tensor.n_channels:]
        np.testing.assert_allclose(env * tfs, epochs.data, atol=1e-9)

    def test_labels_and_metadata_preserved(self):
        rng = np.random.default_rng(24)
        labels = np.array([1, 0, 2])
        epochs = make_epochs(rng.standard_normal((3, 30, 2)), labels=labels)
        tensor = extract_features(epochs)
        np.testing.assert_array_equal(tensor.labels, labels)
        assert tensor.condition == Condition.OVERT
        assert tensor.class_names == epochs.class_names

    def test_empty_rejected(self):
        epochs = make_epochs(np.zeros((0, 10, 2)), labels=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            extract_features(epochs)


class TestEnvelopeCorrelation:
    def test_identical_inputs(self):
        rng = np.random.default_rng(31)
        env = np.abs(rng.standard_normal((100, 4)))
        result = envelope_correlation(env, env)
        np.testing.assert_allclose(result.per_channel_r, 1.0, atol=1e-12)
        assert result.max_r == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        rng = np.random.default_rng(32)
        env = np.abs(rng.standard_normal((80, 3)))
        result = envelope_correlation(env, -env + 10.0)
        np.testing.assert_allclose(result.per_channel_r, -1.0, atol=1e-12)

    def test_zero_variance_flagged(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((50, 2))
        b = a.copy()
        b[:, 1] = 7.0
        result = envelope_correlation(a, b)
        assert result.zero_variance[1]
        assert result.per_channel_r[1] == 0.0
        assert not result.zero_variance[0]

    def test_affine_invariance_positive_slope(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((60, 3))
        b = rng.standard_normal((60, 3))
        base = envelope_correlation(a, b)
        scaled = envelope_correlation(3.0 * a + 2.0, 0.5 * b - 1.0)
        np.testing.assert_allclose(scaled.per_channel_r, base.per_channel_r, atol=1e-9)

    def test_r_within_bounds(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            a = rng.standard_normal((40, 5))
            b = rng.standard_normal((40, 5))
            r = envelope_correlation(a, b).per_channel_r
            assert np.all(r >= -1.0) and np.all(r <= 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            envelope_correlation(np.zeros((10, 2)), np.zeros((10, 3)))


@pytest.mark.parametrize("labels", [[0, 1, 5], [0, -1, 1]])
def test_feature_tensor_rejects_labels_outside_its_classes(labels):
    # the check EpochSet makes: without it, training runs every fold and then
    # fails with an IndexError in confusion_matrix
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        FeatureTensor(data=np.zeros((3, 4, 2), dtype=np.float32), labels=labels,
                      condition=Condition.COVERT, class_names=["a", "b"])
