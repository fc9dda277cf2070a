"""Symmetric FastICA (tanh contrast) for artifact removal.

Component selection is deliberately explicit: :func:`ica_reconstruct` takes
the exclusion set as an argument, and :func:`suggest_artifact_components`
offers an optional frontal-channel correlation heuristic, which flags a
component whose absolute correlation with a listed channel exceeds
``ARTIFACT_CORRELATION`` (0.7). Nothing is removed automatically.
"""

from dataclasses import dataclass

import numpy as np

from . import threads
from .containers import EegRecording
from .errors import ConfigError, DataError, DegenerateInputError
from .rng import substream

_RANK_TOL = 1e-10
# target size of one row block of the elementwise pass, so it stays in cache
_BLOCK_BYTES = 2**20
ARTIFACT_CORRELATION = 0.7  # see the module docstring


@dataclass
class IcaDecomposition:
    """Result of a FastICA run.

    unmixing maps centered channel data to sources; mixing is its
    pseudo-inverse, so ``mixing @ sources + channel_means[:, None]``
    reconstructs the input when nothing is excluded.
    """

    unmixing: np.ndarray
    mixing: np.ndarray
    sources: np.ndarray
    channel_means: np.ndarray
    descriptor: str = ""

    @property
    def n_components(self) -> int:
        return self.unmixing.shape[0]


def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    # W <- (W W^T)^(-1/2) W keeps all rows orthonormal without favoring any
    with threads.one_blas_thread():  # k x k LAPACK (threads module docstring)
        s, u = np.linalg.eigh(w @ w.T)
    s = np.clip(s, 1e-18, None)
    return (u * (1.0 / np.sqrt(s))) @ u.T @ w


def prepare_fastica(recording: EegRecording, n_components: int, max_iter: int, tol: float):
    """FastICA's input checks, and the centered data and whitening basis the
    sweep starts from.

    Returns ``(means, centered, eigvals, eigvecs)``: the channel means, the
    centered channel data and the eigenpairs of the channel covariance in
    descending order. Raises ConfigError for a component count outside
    [1, n_channels], ``max_iter`` below 1 or a non-positive ``tol``; DataError
    if there are fewer samples than channels or the input holds NaN or
    infinite samples; DegenerateInputError if the channel covariance is
    rank-deficient.
    """
    x = recording.data
    n_channels, n_samples = x.shape
    if not 1 <= n_components <= n_channels:
        raise ConfigError(
            f"n_components must lie in [1, {n_channels}], got {n_components}"
        )
    if n_channels > n_samples:
        raise DataError(f"need at least as many samples ({n_samples}) as channels ({n_channels})")
    if max_iter < 1 or tol <= 0:
        raise ConfigError("max_iter must be >= 1 and tol positive")

    # any NaN or inf sample reaches every entry of its channel's row of cov,
    # which is checked at once, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=1)
        centered = x - means[:, np.newaxis]
        cov = centered @ centered.T / (n_samples - 1)
    if not np.isfinite(cov).all():
        raise DataError("recording contains NaN or infinite samples; FastICA needs finite data")
    with threads.one_blas_thread():
        eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    bad = np.flatnonzero(eigvals <= _RANK_TOL * max(eigvals[0], _RANK_TOL))
    if bad.size:
        raise DegenerateInputError(
            f"covariance is rank-deficient: whitened dimension {bad[0]} has "
            f"(near-)zero variance; check for duplicated or constant channels"
        )
    return means, centered, eigvals, eigvecs


def fastica_decompose(
    recording: EegRecording,
    n_components: int,
    max_iter: int = 200,
    tol: float = 1e-4,
    seed: int = 0,
) -> IcaDecomposition:
    """Decompose a recording into independent components.

    Symmetric (parallel) FastICA with the tanh contrast function on whitened
    data. Deterministic for a fixed seed; the descriptor records whether the
    fixed-point iteration converged and after how many sweeps.

    Memory: beyond the input, the sweep holds two k x N float64 arrays, the
    whitened data ``z`` and the contrast buffer ``g`` (k components, N
    samples), and one scratch block of about 1 MiB; the centered input is
    freed once ``z`` is whitened. Nothing is allocated per sweep beyond k x k
    matrices: ``w @ z`` is written into ``g``, and tanh and the mean of its
    derivative run over row blocks of ``g`` in place. The block height
    follows from N alone (``max(1, 2**20 // (8 * N))`` rows) and is not a
    setting; every row is reduced exactly as over the whole array, so the
    result does not depend on it. ``z``, ``g`` and the block are freed before
    the sources, so the call ends holding the sources and a transient
    centered input.

    Raises what :func:`prepare_fastica` raises.
    """
    means, centered, eigvals, eigvecs = prepare_fastica(recording, n_components, max_iter, tol)
    x = recording.data
    n_samples = x.shape[1]
    sel = slice(0, n_components)
    whitening = (eigvecs[:, sel] / np.sqrt(eigvals[sel])).T  # (k, n_channels)
    z = whitening @ centered
    del centered

    rng = substream(seed, "ica_init")
    w = _symmetric_decorrelation(rng.standard_normal((n_components, n_components)))
    g = np.empty_like(z)
    rows = max(1, _BLOCK_BYTES // (g.itemsize * n_samples))
    scratch = np.empty((min(rows, n_components), n_samples))
    g_prime_mean = np.empty(n_components)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.matmul(w, z, out=g)
        for r0 in range(0, n_components, rows):
            blk = g[r0 : r0 + rows]
            np.tanh(blk, out=blk)
            sq = scratch[: blk.shape[0]]
            np.square(blk, out=sq)
            np.subtract(1.0, sq, out=sq)
            sq.mean(axis=1, out=g_prime_mean[r0 : r0 + rows])
        w_new = (g @ z.T) / n_samples - g_prime_mean[:, np.newaxis] * w
        w_new = _symmetric_decorrelation(w_new)
        delta = np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0))
        w = w_new
        if delta < tol:
            converged = True
            break

    unmixing = w @ whitening
    # the loop views blk and sq would otherwise keep g and scratch alive
    del g, z, scratch, blk, sq
    sources = unmixing @ (x - means[:, np.newaxis])
    with threads.one_blas_thread():
        mixing = np.linalg.pinv(unmixing)
    descriptor = (
        f"fastica(symmetric, tanh, n_components={n_components}, "
        f"iterations={iterations}, converged={converged}, tol={tol})"
    )
    return IcaDecomposition(
        unmixing=unmixing,
        mixing=mixing,
        sources=sources,
        channel_means=means,
        descriptor=descriptor,
    )


def check_excluded(excluded, n_components: int) -> set:
    """The component indices ``excluded`` as a set; ConfigError if one lies
    outside [0, n_components). The CLI checks its exclusions here before
    FastICA runs, and :func:`ica_reconstruct` checks them again."""
    excluded = set(int(i) for i in excluded)
    for i in excluded:
        if not 0 <= i < n_components:
            raise ConfigError(f"component index {i} out of range [0, {n_components})")
    return excluded


def ica_reconstruct(decomp: IcaDecomposition, excluded=(), out=None) -> np.ndarray:
    """Rebuild channel data with the given components removed.

    With an empty exclusion set this inverts the decomposition; excluding
    everything leaves only the channel means. ``out``, if given, is a
    C-contiguous float64 (n_channels, n_samples) array that receives the
    result in place of a new one; the result's bits do not depend on it.
    """
    excluded = check_excluded(excluded, decomp.n_components)
    if excluded:
        kept = [i for i in range(decomp.n_components) if i not in excluded]
        data = np.matmul(decomp.mixing[:, kept], decomp.sources[kept, :], out=out)
    else:
        # no fancy-index copies of mixing and the k x N sources
        data = np.matmul(decomp.mixing, decomp.sources, out=out)
    data += decomp.channel_means[:, np.newaxis]
    return data


def suggest_artifact_components(
    decomp: IcaDecomposition,
    recording: EegRecording,
    frontal_channels,
) -> list:
    """Flag components strongly correlated with designated frontal channels.

    A helper for ocular-artifact screening; returns component indices whose
    absolute Pearson correlation with any listed channel exceeds
    ``ARTIFACT_CORRELATION``. Selection remains the caller's decision.
    """
    flagged = []
    centered_sources = decomp.sources - decomp.sources.mean(axis=1, keepdims=True)
    source_norms = np.linalg.norm(centered_sources, axis=1)
    for comp in range(decomp.n_components):
        if source_norms[comp] == 0:
            continue
        for ch in frontal_channels:
            sig = recording.data[int(ch)]
            sig = sig - sig.mean()
            denom = source_norms[comp] * np.linalg.norm(sig)
            if denom == 0:
                continue
            r = float(centered_sources[comp] @ sig / denom)
            if abs(r) > ARTIFACT_CORRELATION:
                flagged.append(comp)
                break
    return flagged
