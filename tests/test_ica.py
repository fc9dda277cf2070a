"""FastICA decomposition, reconstruction, and the artifact heuristic."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import signal as sp_signal

from covert_decode.containers import EegRecording
from covert_decode.errors import DataError, DegenerateInputError
from covert_decode.ica import (
    _symmetric_decorrelation,
    fastica_decompose,
    ica_reconstruct,
    suggest_artifact_components,
)
from covert_decode.rng import substream


def make_recording(data, fs=500.0):
    return EegRecording(
        data=data,
        sample_rate_hz=fs,
        channel_labels=[f"ch{i}" for i in range(data.shape[0])],
    )


def sawtooth_and_noise(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 500.0
    s1 = sp_signal.sawtooth(2 * np.pi * 7 * t)
    s2 = rng.uniform(-1.0, 1.0, n)
    return np.vstack([s1, s2])


def match_abs_correlation(sources, truth):
    """Best |r| of each true source against any recovered component."""
    best = []
    for s_true in truth:
        rs = [abs(np.corrcoef(s_rec, s_true)[0, 1]) for s_rec in sources]
        best.append(max(rs))
    return best


def reference_fastica(x, n_components, max_iter, tol, seed):
    """Frozen allocation-per-sweep FastICA: the oracle for the blocked sweep.

    Returns (unmixing, mixing, sources, channel_means, descriptor).
    """
    n_samples = x.shape[1]
    means = x.mean(axis=1)
    centered = x - means[:, np.newaxis]
    cov = centered @ centered.T / (n_samples - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    sel = slice(0, n_components)
    whitening = (eigvecs[:, sel] / np.sqrt(eigvals[sel])).T
    z = whitening @ centered
    rng = substream(seed, "ica_init")
    w = _symmetric_decorrelation(rng.standard_normal((n_components, n_components)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        wz = w @ z
        g = np.tanh(wz)
        g_prime_mean = (1.0 - g**2).mean(axis=1)
        w_new = (g @ z.T) / n_samples - g_prime_mean[:, np.newaxis] * w
        w_new = _symmetric_decorrelation(w_new)
        delta = np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0))
        w = w_new
        if delta < tol:
            converged = True
            break
    unmixing = w @ whitening
    sources = unmixing @ centered
    mixing = np.linalg.pinv(unmixing)
    descriptor = (
        f"fastica(symmetric, tanh, n_components={n_components}, "
        f"iterations={iterations}, converged={converged}, tol={tol})"
    )
    return unmixing, mixing, sources, means, descriptor


def reference_reconstruct(mixing, sources, means, kept):
    return mixing[:, kept] @ sources[kept, :] + means[:, np.newaxis]


def mixed_non_gaussian(n_channels, n_samples, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / 500.0
    kinds = [
        lambda i: sp_signal.sawtooth(2 * np.pi * (3 + i) * t),
        lambda i: rng.uniform(-1.0, 1.0, n_samples),
        lambda i: rng.laplace(size=n_samples),
        lambda i: np.sign(np.sin(2 * np.pi * (1.5 + 0.7 * i) * t)),
    ]
    sources = np.vstack([kinds[i % len(kinds)](i) for i in range(n_channels)])
    mixing = rng.standard_normal((n_channels, n_channels)) + 2.0 * np.eye(n_channels)
    return mixing @ sources + rng.normal(0.0, 3.0, (n_channels, 1))


def block_rows(n_samples):
    return max(1, 2**20 // (8 * n_samples))


class TestBlockedSweepMatchesReference:
    """The in-place, row-blocked sweep must be bit-identical to the plain one."""

    @pytest.mark.parametrize(
        "n_channels, n_components, n_samples, max_iter, tol, geometry",
        [
            (8, 8, 20000, 12, 1e-12, "ragged"),  # 6-row blocks: 6 + 2
            (8, 5, 40000, 12, 1e-12, "ragged"),  # fewer components than channels: 3 + 2
            (4, 3, 70000, 6, 1e-12, "one_row"),  # wide: each block is a single row
            (8, 6, 2000, 15, 1e-12, "one_block"),  # narrow: one block holds all rows
            (4, 4, 6000, 200, 1e-4, "converges"),  # tol reached before max_iter
        ],
    )
    def test_bit_identical(self, n_channels, n_components, n_samples, max_iter, tol, geometry):
        rows = block_rows(n_samples)
        if geometry == "ragged":
            assert 1 < rows < n_components and n_components % rows
        elif geometry == "one_row":
            assert rows == 1
        elif geometry == "one_block":
            assert rows >= n_components
        x = mixed_non_gaussian(n_channels, n_samples, seed=n_components + n_samples)
        decomp = fastica_decompose(
            make_recording(x), n_components, max_iter=max_iter, tol=tol, seed=11
        )
        unmixing, mixing, sources, means, descriptor = reference_fastica(
            x, n_components, max_iter, tol, seed=11
        )
        assert decomp.descriptor == descriptor
        if geometry == "converges":
            assert "converged=True" in descriptor
            assert f"iterations={max_iter}," not in descriptor
        np.testing.assert_array_equal(decomp.unmixing, unmixing)
        np.testing.assert_array_equal(decomp.mixing, mixing)
        np.testing.assert_array_equal(decomp.sources, sources)
        everything = list(range(n_components))
        np.testing.assert_array_equal(
            ica_reconstruct(decomp, ()), reference_reconstruct(mixing, sources, means, everything)
        )
        np.testing.assert_array_equal(
            ica_reconstruct(decomp, {0}), reference_reconstruct(mixing, sources, means, everything[1:])
        )


class TestDecomposeMemory:
    def test_peaks_at_two_arrays_and_a_block_above_the_input(self):
        # z and g during the sweep, a centered copy and the sources at the end;
        # k x k matrices and Python objects fit in the 64 KiB of slack
        n_channels, n_samples = 8, 40000
        recording = make_recording(mixed_non_gaussian(n_channels, n_samples, seed=2))
        array = recording.data.nbytes
        block = min(block_rows(n_samples), n_channels) * n_samples * 8
        tracemalloc.start()
        try:
            decomp = fastica_decompose(recording, n_channels, max_iter=3, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decomp.sources.shape == (n_channels, n_samples)
        assert peak < 2 * array + block + 2**16


class TestFastIca:
    def test_recovers_mixed_sources(self):
        truth = sawtooth_and_noise()
        mixing = np.array([[1.0, 0.6], [0.4, 1.0]])
        rec = make_recording(mixing @ truth)
        decomp = fastica_decompose(rec, 2, seed=1)
        matches = match_abs_correlation(decomp.sources, truth)
        assert min(matches) > 0.95

    def test_identity_mixing_gives_signed_permutation(self):
        rng = np.random.default_rng(2)
        n = 6000
        t = np.arange(n) / 500.0
        s1 = sp_signal.sawtooth(2 * np.pi * 5 * t)
        s1 = s1 / s1.std()
        s2 = rng.uniform(-np.sqrt(3), np.sqrt(3), n)
        rec = make_recording(np.vstack([s1, s2]))
        decomp = fastica_decompose(rec, 2, seed=2)
        g = decomp.unmixing / np.abs(decomp.unmixing).max(axis=1, keepdims=True)
        for row in np.abs(g):
            ordered = np.sort(row)[::-1]
            assert ordered[1] < 0.1  # off-dominant entries small

    def test_duplicate_channel_degenerate(self):
        truth = sawtooth_and_noise()
        data = np.vstack([truth[0], truth[0]])
        with pytest.raises(DegenerateInputError, match="dimension"):
            fastica_decompose(make_recording(data), 2, seed=0)

    def test_deterministic_under_seed(self):
        truth = sawtooth_and_noise(seed=3)
        rec = make_recording(np.array([[1.0, 0.3], [0.5, 1.0]]) @ truth)
        a = fastica_decompose(rec, 2, seed=7)
        b = fastica_decompose(rec, 2, seed=7)
        np.testing.assert_array_equal(a.unmixing, b.unmixing)
        np.testing.assert_array_equal(a.sources, b.sources)

    def test_sources_mutually_uncorrelated(self):
        rng = np.random.default_rng(4)
        truth = np.vstack(
            [
                sp_signal.sawtooth(2 * np.pi * 9 * np.arange(4000) / 500.0),
                rng.uniform(-1, 1, 4000),
                rng.standard_normal(4000) ** 3,
            ]
        )
        mixing = rng.standard_normal((3, 3)) + np.eye(3)
        decomp = fastica_decompose(make_recording(mixing @ truth), 3, seed=5)
        cov = np.corrcoef(decomp.sources)
        off = np.abs(cov - np.eye(3)).max()
        assert off < 1e-6

    def test_descriptor_reports_convergence(self):
        truth = sawtooth_and_noise()
        rec = make_recording(np.array([[1.0, 0.6], [0.4, 1.0]]) @ truth)
        decomp = fastica_decompose(rec, 2, max_iter=200, tol=1e-4, seed=1)
        assert "converged=True" in decomp.descriptor
        assert "tanh" in decomp.descriptor

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_data_error(self, bad):
        data = np.random.default_rng(0).standard_normal((4, 3000))
        data[2, 1234] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the DataError comes without numpy warnings
            with pytest.raises(DataError, match="NaN or infinite"):
                fastica_decompose(make_recording(data), 4, seed=0)

    def test_invalid_component_count(self):
        rec = make_recording(sawtooth_and_noise())
        with pytest.raises(ValueError):
            fastica_decompose(rec, 3, seed=0)


class TestReconstruction:
    def test_empty_exclusion_round_trip(self):
        truth = sawtooth_and_noise(seed=6)
        mixing = np.array([[1.0, 0.6], [0.4, 1.0]])
        data = mixing @ truth + np.array([[5.0], [-2.0]])
        rec = make_recording(data)
        decomp = fastica_decompose(rec, 2, seed=3)
        recon = ica_reconstruct(decomp, ())
        rel = np.linalg.norm(recon - data) / np.linalg.norm(data)
        assert rel < 1e-6

    def test_exclude_all_returns_means(self):
        truth = sawtooth_and_noise(seed=7)
        data = np.array([[1.0, 0.6], [0.4, 1.0]]) @ truth + np.array([[3.0], [1.0]])
        decomp = fastica_decompose(make_recording(data), 2, seed=4)
        recon = ica_reconstruct(decomp, {0, 1})
        expected = np.tile(data.mean(axis=1)[:, None], (1, data.shape[1]))
        np.testing.assert_allclose(recon, expected, atol=1e-9)

    def test_out_of_range_index_rejected(self):
        decomp = fastica_decompose(make_recording(sawtooth_and_noise()), 2, seed=0)
        with pytest.raises(ValueError):
            ica_reconstruct(decomp, {2})

    def test_planted_blink_removal(self):
        rng = np.random.default_rng(8)
        n = 8000
        t = np.arange(n) / 500.0
        # episodic blink bursts: strongly super-Gaussian
        blink = np.zeros(n)
        for onset in range(250, n - 300, 900):
            blink[onset : onset + 150] += np.hanning(150)
        blink *= 40.0
        background = np.vstack(
            [
                np.sin(2 * np.pi * 10 * t),
                sp_signal.sawtooth(2 * np.pi * 6 * t),
                rng.uniform(-1, 1, n),
            ]
        )
        mixing = np.array(
            [
                [1.0, 0.3, 0.2, 0.1],  # frontal channel: blink-dominated
                [0.05, 1.0, 0.4, 0.2],
                [0.02, 0.3, 1.0, 0.3],
                [0.01, 0.2, 0.5, 1.0],
            ]
        )
        sources = np.vstack([blink, background])
        data = mixing @ sources
        rec = make_recording(data)
        decomp = fastica_decompose(rec, 4, seed=9)
        # find the component most correlated with the planted template
        rs = [abs(np.corrcoef(s, blink)[0, 1]) for s in decomp.sources]
        blink_comp = int(np.argmax(rs))
        assert rs[blink_comp] > 0.95
        cleaned = ica_reconstruct(decomp, {blink_comp})
        rms_before = np.sqrt(np.mean((data[0] - data[0].mean()) ** 2))
        rms_after = np.sqrt(np.mean((cleaned[0] - cleaned[0].mean()) ** 2))
        assert rms_after <= 0.2 * rms_before

        flagged = suggest_artifact_components(decomp, rec, frontal_channels=[0])
        assert blink_comp in flagged
