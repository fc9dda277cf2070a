"""Core data containers: continuous recordings, epoched trials, feature tensors."""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class Condition(IntEnum):
    """Speech condition a dataset was recorded under."""

    OVERT = 0
    COVERT = 1

    @classmethod
    def parse(cls, value) -> "Condition":
        if isinstance(value, Condition):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                raise ValueError(f"unknown condition {value!r}; expected overt or covert")
        return cls(int(value))


def default_class_names(n_classes: int) -> list:
    return [f"class_{i}" for i in range(n_classes)]


@dataclass
class EegRecording:
    """Continuous multichannel EEG.

    data is (n_channels, n_samples) in microvolts; markers are
    (sample_index, class_label) pairs marking trial onsets.
    """

    data: np.ndarray
    sample_rate_hz: float
    channel_labels: list
    markers: list = field(default_factory=list)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"recording data must be 2-D, got shape {self.data.shape}")
        n_channels, n_samples = self.data.shape
        if n_channels < 1 or n_samples < 1:
            raise ValueError("recording needs at least one channel and one sample")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        self.channel_labels = [str(c) for c in self.channel_labels]
        if len(self.channel_labels) != n_channels:
            raise ValueError(
                f"{len(self.channel_labels)} channel labels for {n_channels} channels"
            )
        self.markers = [(int(s), int(c)) for s, c in self.markers]
        for s, _ in self.markers:
            if not 0 <= s < n_samples:
                raise ValueError(f"marker sample index {s} outside [0, {n_samples})")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class _Trials:
    """Labeled trials, data (n_trials, n_timesteps, width): the fields and
    checks that epochs and feature tensors share. Subclasses set ``data``'s
    dtype before these checks run."""

    data: np.ndarray
    labels: np.ndarray
    condition: Condition
    class_names: list

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.condition = Condition.parse(self.condition)
        if self.data.ndim != 3:
            raise ValueError(f"trial data must be 3-D, got shape {self.data.shape}")
        if self.labels.shape != (self.data.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0] if self.labels.ndim == 1 else self.labels.shape} "
                f"labels for {self.data.shape[0]} trials"
            )
        self.class_names = [str(c) for c in self.class_names]
        if self.n_trials and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def n_trials(self) -> int:
        return self.data.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.data.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass
class EpochSet(_Trials):
    """Stack of fixed-length labeled trials, (n_trials, n_timesteps, n_channels)."""

    sample_rate_hz: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        super().__post_init__()
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


@dataclass
class FeatureTensor(_Trials):
    """Per-trial feature matrices: envelope block then fine-structure block.

    data is (n_trials, n_timesteps, 2 * n_channels); columns 0..C-1 hold the
    envelope of each source channel, columns C..2C-1 its fine structure.
    """

    def __post_init__(self):
        self.data = np.asarray(self.data)
        super().__post_init__()
        if self.data.shape[2] % 2 != 0:
            raise ValueError("feature width must be even (envelope block + fine-structure block)")

    @property
    def n_features(self) -> int:
        return self.data.shape[2]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2] // 2

    def envelope_block(self) -> np.ndarray:
        return self.data[:, :, : self.n_channels]
