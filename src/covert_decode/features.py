"""Analytic-signal features: envelope, temporal fine structure, and
cross-condition envelope correlation.

The envelope is the magnitude of the analytic signal; the fine structure is
the signal normalized by its envelope, so envelope * fine structure
reconstructs the input wherever the envelope clears the floor.
"""

from dataclasses import dataclass

import numpy as np

from .containers import EpochSet, FeatureTensor
from .errors import ConfigError, DataError

DEFAULT_ENV_FLOOR_REL = 1e-12
ABSOLUTE_ENV_FLOOR = 1e-20


@dataclass
class AnalyticSignal:
    """Real signal paired with its Hilbert transform (the imaginary part)."""

    real_part: np.ndarray
    imag_part: np.ndarray

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.real_part, self.imag_part)


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


def analytic_signal(x: np.ndarray) -> AnalyticSignal:
    """Analytic signal of a 1-D real vector via the frequency-domain method."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if x.size < 4:
        raise ValueError(f"signal too short for the analytic transform: {x.size} < 4 samples")
    return AnalyticSignal(real_part=x.copy(), imag_part=_analytic_imag_along_time(x, axis=0))


def _analytic_imag_along_time(x: np.ndarray, axis: int) -> np.ndarray:
    """Hilbert transform of every series along ``axis`` (batched FFT)."""
    n = x.shape[axis]
    shape = [1] * x.ndim
    shape[axis] = n
    w = _analytic_weights(n).reshape(shape)
    return np.fft.ifft(np.fft.fft(x, axis=axis) * w, axis=axis).imag


def envelope(x: np.ndarray) -> np.ndarray:
    """Instantaneous amplitude: |x + j H{x}|. Non-negative, >= |x| everywhere."""
    return analytic_signal(x).magnitude()


def fine_structure(x: np.ndarray, env_floor: float = ABSOLUTE_ENV_FLOOR) -> np.ndarray:
    """Signal normalized by its envelope (floored), bounded in [-1, 1]."""
    if env_floor <= 0:
        raise ValueError(f"env_floor must be positive, got {env_floor}")
    x = np.asarray(x, dtype=np.float64)
    env = envelope(x)
    return x / np.maximum(env, env_floor)


def extract_features(epochs: EpochSet, env_floor_rel: float = DEFAULT_ENV_FLOOR_REL) -> FeatureTensor:
    """Envelope and fine-structure features for every trial and channel.

    Output width doubles the channel count: envelope columns first, then
    fine-structure columns. The fine-structure floor is relative to each
    trial-channel's envelope peak (with a tiny absolute fallback), so silent
    channels map to zeros instead of noise blow-ups.
    """
    if env_floor_rel <= 0:
        raise ConfigError(f"env_floor_rel must be positive, got {env_floor_rel}")
    if epochs.n_trials == 0:
        raise DataError("cannot extract features from an empty epoch set")
    if epochs.n_timesteps < 4:
        raise DataError("epochs too short for the analytic transform (need >= 4 samples)")

    x = epochs.data  # (trials, time, channels)
    out = np.empty((epochs.n_trials, epochs.n_timesteps, 2 * epochs.n_channels))
    for t in range(epochs.n_trials):
        trial = x[t]
        imag = _analytic_imag_along_time(trial, axis=0)
        env = np.hypot(trial, imag)
        floor = np.maximum(env_floor_rel * env.max(axis=0), ABSOLUTE_ENV_FLOOR)
        out[t, :, : epochs.n_channels] = env
        out[t, :, epochs.n_channels :] = trial / np.maximum(env, floor)
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
