"""Continuous-signal preprocessing: IIR filter design, zero-phase filtering,
epoching with pre-stimulus baseline correction.

The standard EEG chain here is notch (powerline), Butterworth band-pass,
then epoching; artifact removal lives in :mod:`covert_decode.ica`.
Filtering runs along the last axis, time in a (channels, samples) recording.

``scipy.signal`` is imported inside the functions that use it: loading it
costs more than the rest of the package, and only ``preprocess`` needs it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import threads
from .containers import Condition, EegRecording, EpochSet, default_class_names
from .errors import ConfigError, EpochingError, FilterDesignError


@dataclass
class FilterCoefficients:
    """Digital IIR filter in transfer-function form (b, a), a[0] normalized to 1."""

    numerator: np.ndarray
    denominator: np.ndarray
    design_descriptor: str = ""

    def __post_init__(self):
        self.numerator = np.asarray(self.numerator, dtype=np.float64)
        self.denominator = np.asarray(self.denominator, dtype=np.float64)
        if self.denominator.size == 0 or self.denominator[0] == 0:
            raise FilterDesignError("denominator must have a nonzero leading coefficient")
        if self.denominator[0] != 1.0:
            self.numerator = self.numerator / self.denominator[0]
            self.denominator = self.denominator / self.denominator[0]

    def is_stable(self) -> bool:
        """True when every pole lies strictly inside the unit circle."""
        if self.denominator.size <= 1:
            return True
        return bool(np.all(np.abs(np.roots(self.denominator)) < 1.0))


def magnitude_response(coeffs: FilterCoefficients, freqs_hz, sample_rate_hz: float) -> np.ndarray:
    """|H| evaluated on the unit circle at the given frequencies (direct polynomial evaluation)."""
    freqs_hz = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    z_inv = np.exp(-1j * 2.0 * np.pi * freqs_hz / sample_rate_hz)
    num = np.polyval(coeffs.numerator[::-1], z_inv)
    den = np.polyval(coeffs.denominator[::-1], z_inv)
    return np.abs(num / den)


def _check_stable(coeffs: FilterCoefficients) -> FilterCoefficients:
    if not coeffs.is_stable():
        raise FilterDesignError(f"unstable design: {coeffs.design_descriptor}")
    return coeffs


def design_notch(center_hz: float, quality: float, sample_rate_hz: float) -> FilterCoefficients:
    """Second-order IIR notch; unit gain at DC, deep null at ``center_hz``.

    ``quality`` sets the -3 dB bandwidth (center / quality).
    """
    if sample_rate_hz <= 0:
        raise FilterDesignError(f"sample rate must be positive, got {sample_rate_hz}")
    nyquist = sample_rate_hz / 2.0
    if not 0 < center_hz < nyquist:
        raise FilterDesignError(
            f"notch center {center_hz} Hz must lie in (0, {nyquist}) Hz at fs={sample_rate_hz}"
        )
    if quality <= 0:
        raise FilterDesignError(f"notch quality must be positive, got {quality}")
    from scipy import signal as sp_signal

    b, a = sp_signal.iirnotch(center_hz, quality, fs=sample_rate_hz)
    descriptor = f"notch(center={center_hz}Hz, q={quality}, fs={sample_rate_hz}Hz)"
    return _check_stable(FilterCoefficients(b, a, descriptor))


def design_butterworth_bandpass(
    order: int, low_hz: float, high_hz: float, sample_rate_hz: float
) -> FilterCoefficients:
    """Digital Butterworth band-pass via the bilinear transform with prewarping.

    Each cutoff sits at the -3 dB point; stopband magnitude is monotone.
    """
    if order < 1:
        raise FilterDesignError(f"order must be >= 1, got {order}")
    nyquist = sample_rate_hz / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise FilterDesignError(
            f"cutoffs must satisfy 0 < low < high < {nyquist} Hz, "
            f"got low={low_hz}, high={high_hz} at fs={sample_rate_hz}"
        )
    from scipy import signal as sp_signal

    b, a = sp_signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=sample_rate_hz)
    descriptor = (
        f"butterworth_bandpass(order={order}, low={low_hz}Hz, high={high_hz}Hz, "
        f"fs={sample_rate_hz}Hz)"
    )
    return _check_stable(FilterCoefficients(b, a, descriptor))


def filter_zero_phase(x: np.ndarray, *filters: FilterCoefficients, out=None) -> np.ndarray:
    """Forward-backward filtering of every row (signal along the last axis)
    through each of ``filters`` in turn: zero net phase shift, magnitude the
    product of their |H|^2.

    Transients are suppressed by reflective edge padding of 3x the filter
    order, so the signal must be longer than 3x each filter's coefficient
    count; every filter is checked before any is applied. Application runs on
    second-order sections internally; narrow band-passes put poles close to
    the unit circle, where the direct (b, a) form loses several digits.

    The rows are filtered in blocks of about ``threads.BLOCK_BYTES``: each
    block goes through every filter before the next block starts, and each
    filter's result is written back into the output, so the call holds the
    input, the output and sosfiltfilt's few padded copies of one block for
    one filter. The result is C-ordered: ``out``, if given, is a C-contiguous
    float64 array of ``x``'s shape that receives it in place of a new one,
    and may be ``x`` itself. Each signal is
    filtered on its own, so the result's bits do not depend on the blocks or
    on ``out``. Signals that span at least two blocks are split over the
    package's threads (:mod:`covert_decode.threads`), each filtering its
    rows in blocks of an equal share of the block, so the buffers held at
    once do not grow; the split changes no bits.
    """
    if not filters:
        raise ValueError("filter_zero_phase needs at least one filter")
    x = np.asarray(x, dtype=np.float64)
    from scipy import signal as sp_signal

    stages = []
    for coeffs in filters:
        n_taps = max(coeffs.numerator.size, coeffs.denominator.size)
        if x.shape[-1] <= 3 * n_taps:
            raise EpochingError(
                f"signal length {x.shape[-1]} too short for zero-phase filtering "
                f"(need > {3 * n_taps} samples for {coeffs.design_descriptor or 'this filter'})"
            )
        stages.append((sp_signal.tf2sos(coeffs.numerator, coeffs.denominator), 3 * (n_taps - 1)))
    signals = x.reshape(-1, x.shape[-1])
    if out is None:
        # not empty_like: a Fortran-ordered x would give an out whose rows
        # reshape to a copy, and the result would be lost in it
        out = np.empty(x.shape)
    elif out.shape != x.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    rows_out = out.reshape(signals.shape)
    row_bytes = rows_out.itemsize * rows_out.shape[1]
    parts = threads.block_split(len(rows_out), row_bytes)
    rows = max(1, threads.BLOCK_BYTES // len(parts) // row_bytes)

    def filter_rows(part):
        for r0 in range(part.start, part.stop, rows):
            r1 = min(r0 + rows, part.stop)
            block = signals[r0:r1]
            for sos, padlen in stages:
                rows_out[r0:r1] = sp_signal.sosfiltfilt(sos, block, padtype="even",
                                                        padlen=padlen)
                block = rows_out[r0:r1]

    threads.run([(filter_rows, (part,)) for part in parts])
    return out


@dataclass
class SkippedTrialReport:
    """Trials dropped during epoching because a marker sat too close to an edge."""

    kept: int = 0
    skipped: list = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)

    def to_dict(self) -> dict:
        return {"kept": self.kept, "n_skipped": self.n_skipped, "skipped": list(self.skipped)}


def epoch_and_baseline(
    recording: EegRecording,
    epoch_seconds: float,
    baseline_ms: float,
    condition=Condition.OVERT,
):
    """Cut marker-locked epochs and subtract the pre-stimulus baseline mean.

    For each marker at sample m, the epoch is samples [m, m + T) minus the
    per-channel mean of [m - B, m), with T = round(epoch_seconds * fs) and
    B = round(baseline_ms / 1000 * fs). Markers without enough headroom on
    either side drop their trial into the skipped-trials report instead of
    fabricating padded data.

    Returns (EpochSet, SkippedTrialReport).
    """
    if epoch_seconds <= 0 or baseline_ms <= 0:
        raise ConfigError("epoch_seconds and baseline_ms must be positive")
    fs = recording.sample_rate_hz
    n_timesteps = int(round(epoch_seconds * fs))
    n_baseline = int(round(baseline_ms / 1000.0 * fs))
    if n_timesteps < 1 or n_baseline < 1:
        raise ConfigError("epoch and baseline windows must each span at least one sample")

    data = recording.data
    n_samples = recording.n_samples
    report = SkippedTrialReport()
    onsets = []
    labels = []
    for position, (m, label) in enumerate(recording.markers):
        if m - n_baseline < 0:
            report.skipped.append(
                {"marker_position": position, "sample_index": m, "reason": "baseline before start"}
            )
            continue
        if m + n_timesteps > n_samples:
            report.skipped.append(
                {"marker_position": position, "sample_index": m, "reason": "epoch past end"}
            )
            continue
        onsets.append(m)
        labels.append(label)
    report.kept = len(onsets)

    stacked = np.empty((len(onsets), n_timesteps, recording.n_channels))

    def cut(part):
        for k in range(part.start, part.stop):
            m = onsets[k]
            baseline_mean = data[:, m - n_baseline : m].mean(axis=1)
            np.subtract(data[:, m : m + n_timesteps].T, baseline_mean, out=stacked[k])

    trial_bytes = stacked.itemsize * n_timesteps * recording.n_channels
    threads.run([(cut, (part,)) for part in threads.block_split(len(onsets), trial_bytes)])
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1 if labels.size else 1
    epochs = EpochSet(
        data=stacked,
        labels=labels,
        condition=condition,
        sample_rate_hz=fs,
        class_names=default_class_names(n_classes),
    )
    return epochs, report
