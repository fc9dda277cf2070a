"""Analytic-signal features: envelope, temporal fine structure, and
cross-condition envelope correlation.

``hilbert_parts`` is the one analytic-signal transform: for every series along
an axis it returns the Hilbert transform (the imaginary part of the analytic
signal), the envelope (its magnitude) and the fine structure (the signal over
the envelope, floored at ``max(env_floor_rel * peak envelope,
ABSOLUTE_ENV_FLOOR)``), so envelope * fine structure reconstructs the input
wherever the envelope clears the floor. ``extract_features`` calls it on each
trial along time.
"""

from dataclasses import dataclass

import numpy as np

from . import threads
from .containers import EpochSet, FeatureTensor
from .errors import ConfigError, DataError

DEFAULT_ENV_FLOOR_REL = 1e-12
ABSOLUTE_ENV_FLOOR = 1e-20


def _analytic_weights(n: int) -> np.ndarray:
    # DC and (for even n) Nyquist bins stay, strictly positive bins double,
    # negative bins vanish: the spectrum becomes one-sided.
    w = np.zeros(n)
    w[0] = 1.0
    if n % 2 == 0:
        w[1 : n // 2] = 2.0
        w[n // 2] = 1.0
    else:
        w[1 : (n + 1) // 2] = 2.0
    return w


def hilbert_parts(x: np.ndarray, axis: int = 0, env_floor_rel: float = DEFAULT_ENV_FLOOR_REL):
    """(Hilbert transform, envelope, fine structure) of every series along
    ``axis`` (batched FFT), each shaped like ``x``.

    The envelope is >= |x|; the fine structure lies in [-1, 1]. Raises
    DataError if a series is shorter than 4 samples, or if its envelope peak is
    not finite: a NaN or infinite sample, or an overflow in the transform,
    makes exactly that series' peak non-finite.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    if n < 4:
        raise DataError(f"series too short for the analytic transform: {n} < 4 samples")
    shape = [1] * x.ndim
    shape[axis] = n
    w = _analytic_weights(n).reshape(shape)
    # a non-finite series is reported below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        imag = np.fft.ifft(np.fft.fft(x, axis=axis) * w, axis=axis).imag
        env = np.hypot(x, imag)
    peak = env.max(axis=axis, keepdims=True)
    if not np.isfinite(peak).all():
        raise DataError("signal contains NaN or infinite samples, or overflows the analytic "
                        "transform; envelope features need finite data")
    floor = np.maximum(env_floor_rel * peak, ABSOLUTE_ENV_FLOOR)
    return imag, env, x / np.maximum(env, floor)


def extract_features(epochs: EpochSet, env_floor_rel: float = DEFAULT_ENV_FLOOR_REL) -> FeatureTensor:
    """Envelope and fine-structure features for every trial and channel.

    Output width doubles the channel count: envelope columns first, then
    fine-structure columns. The fine-structure floor is relative to each
    trial-channel's envelope peak (with a tiny absolute fallback), so silent
    channels map to zeros instead of noise blow-ups. Trials that span at
    least two blocks of ``threads.BLOCK_BYTES`` are split over the package's
    threads (:mod:`covert_decode.threads`), which write into one output; the
    split changes no bits.
    """
    if env_floor_rel <= 0:
        raise ConfigError(f"env_floor_rel must be positive, got {env_floor_rel}")
    if epochs.n_trials == 0:
        raise DataError("cannot extract features from an empty epoch set")

    c = epochs.n_channels
    data = epochs.data
    out = np.empty((epochs.n_trials, epochs.n_timesteps, 2 * c))

    def extract(trials):
        for t in range(trials.start, trials.stop):  # data[t] is (time, channels)
            _, out[t, :, :c], out[t, :, c:] = hilbert_parts(data[t], axis=0,
                                                            env_floor_rel=env_floor_rel)

    parts = threads.block_split(len(data), data[0].nbytes)
    threads.run([(extract, (part,)) for part in parts])
    return FeatureTensor(
        data=out,
        labels=epochs.labels.copy(),
        condition=epochs.condition,
        class_names=list(epochs.class_names),
    )


@dataclass
class EnvelopeCorrelation:
    """Per-channel Pearson correlation between two envelope matrices."""

    per_channel_r: np.ndarray
    max_r: float
    zero_variance: np.ndarray


def envelope_correlation(env_a: np.ndarray, env_b: np.ndarray) -> EnvelopeCorrelation:
    """Column-wise Pearson correlation at zero lag between two (time x
    channel) matrices.

    Zero-variance columns get r = 0 and a flag instead of NaN.
    """
    env_a = np.asarray(env_a, dtype=np.float64)
    env_b = np.asarray(env_b, dtype=np.float64)
    if env_a.shape != env_b.shape:
        raise ValueError(f"shape mismatch: {env_a.shape} vs {env_b.shape}")
    if env_a.ndim != 2 or env_a.shape[0] < 2:
        raise DataError("need a (time x channels) matrix with at least 2 samples")
    a = env_a - env_a.mean(axis=0)
    b = env_b - env_b.mean(axis=0)
    na = np.linalg.norm(a, axis=0)
    nb = np.linalg.norm(b, axis=0)
    zero = (na == 0) | (nb == 0)
    denom = np.where(zero, 1.0, na * nb)
    r = np.einsum("tc,tc->c", a, b) / denom
    r = np.clip(np.where(zero, 0.0, r), -1.0, 1.0)
    return EnvelopeCorrelation(per_channel_r=r, max_r=float(r.max()), zero_variance=zero)
