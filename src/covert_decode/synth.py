"""Deterministic synthetic EEG: paired overt/covert epoch sets with
class-specific oscillatory templates and a controllable cross-condition
envelope correlation.

Each class owns a few template components (carrier frequency, slow positive
envelope, channel weight pattern). A covert trial reuses its overt partner's
trial-level jitter but carries an envelope mixed to the requested
correlation, an attenuated amplitude, and extra phase jitter that shrinks as
the correlation approaches 1 (so rho = 1 with no noise reproduces the overt
signal exactly). Envelope shapes are smoothed random walks rather than fixed
bumps, which keeps classes from being separable by a single template value.

At paper scale the work splits over the package's threads
(:mod:`covert_decode.threads`, "Who splits", gives the gates):
``generate_paired`` fills its trials in two contiguous halves, and
``to_recordings`` builds the overt and covert recordings at once. Every
trial and recording draws from its own substreams, so the split changes no
bits; desk-size subjects stay in the calling thread. ``generate_paired``
projects on one BLAS thread, so its bits do not depend on the host's BLAS
thread count either.

``scipy.ndimage`` is imported inside the smoothing function, so that importing
the package (and every command but ``synth``) does not pay for loading it.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio, threads
from .containers import Condition, EegRecording, EpochSet, default_class_names
from .errors import ConfigError
from .features import envelope_correlation, extract_features
from .rng import substream

# trials split over threads only where one trial holds at least this many
# channel-samples and the trials span at least two blocks (measured in
# covert_decode.threads)
_SPLIT_TRIAL_SAMPLES = 2**14
# peak channel weight of every template component
COMPONENT_AMPLITUDE = 3.0


@dataclass
class SynthSpec:
    n_classes: int = 5
    trials_per_class: int = 80
    n_channels: int = 64
    sample_rate_hz: float = 500.0
    epoch_seconds: float = 2.0
    components_per_class: int = 1
    cross_condition_rho: float = 0.8
    attenuation: float = 0.6
    noise_sigma: float = 0.5
    envelope_bandwidth_hz: float = 2.0
    envelope_jitter: float = 0.6
    phase_jitter: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.cross_condition_rho <= 1.0:
            raise ConfigError("cross_condition_rho must lie in [0, 1]")
        if not 0.0 < self.attenuation <= 1.0:
            raise ConfigError("attenuation must lie in (0, 1]")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if min(self.n_classes, self.trials_per_class, self.n_channels,
               self.components_per_class) < 1:
            raise ConfigError("n_classes, trials_per_class, n_channels and "
                              "components_per_class must be positive")
        if self.n_timesteps < 1:
            raise ConfigError("epoch_seconds * sample_rate_hz must round to at least one sample")
        if self.envelope_bandwidth_hz <= 0:
            raise ConfigError("envelope_bandwidth_hz must be positive")
        # the smoothing kernel spans about 8 sigma whatever the epoch length
        if _envelope_sigma_samples(self) > 100 * self.n_timesteps:
            raise ConfigError(f"envelope_bandwidth_hz={self.envelope_bandwidth_hz} smooths over "
                              f"more than 100 epochs of {self.n_timesteps} samples")

    @property
    def class_names(self) -> list:
        return default_class_names(self.n_classes)

    @property
    def n_timesteps(self) -> int:
        return int(round(self.epoch_seconds * self.sample_rate_hz))

    @property
    def n_trials(self) -> int:
        return self.n_classes * self.trials_per_class


def _smooth_standardized(rng, n: int, sigma_samples: float) -> np.ndarray:
    from scipy.ndimage import gaussian_filter1d

    raw = gaussian_filter1d(rng.standard_normal(n), sigma=sigma_samples, mode="wrap")
    raw -= raw.mean()
    sd = raw.std()
    return raw / sd if sd > 0 else raw


def _envelope_sigma_samples(spec: SynthSpec) -> float:
    # Gaussian smoothing whose half-power point sits near the requested bandwidth
    return spec.sample_rate_hz * np.sqrt(2.0 * np.log(2.0)) / (
        2.0 * np.pi * spec.envelope_bandwidth_hz
    )


def _to_positive_envelope(standardized: np.ndarray) -> np.ndarray:
    return np.clip(1.0 + 0.4 * standardized, 0.02, None)


def _orthogonalized(fresh: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Remove the sample projection of fresh onto base and restandardize,
    so mixing weights control the sample correlation exactly."""
    fresh = fresh - (fresh @ base / base.size) * base
    sd = fresh.std()
    return fresh / sd if sd > 0 else fresh


@dataclass
class _Component:
    carrier_hz: float
    phase: float
    weights: np.ndarray
    envelope_overt: np.ndarray
    envelope_covert: np.ndarray
    # standardized template series, kept so per-trial jitter can be projected
    # out of the template subspace (jitter-template sample correlations would
    # otherwise swamp the cross-condition correlation of these short
    # envelopes)
    base_std: np.ndarray = None
    mixed_std: np.ndarray = None


def _build_templates(spec: SynthSpec):
    sigma = _envelope_sigma_samples(spec)
    t = spec.n_timesteps
    templates = []
    for cls in range(spec.n_classes):
        rng = substream(spec.seed, "template", cls)
        components = []
        for comp in range(spec.components_per_class):
            # classes sit under 1 Hz apart within each component band, closer
            # than the envelope bandwidth smears them, so no single carrier
            # frequency gives the class away; carriers stay well above the
            # envelope bandwidth so the analytic envelope is clean
            carrier = 11.0 + 0.8 * cls + 8.0 * comp + rng.uniform(-0.3, 0.3)
            phase = rng.uniform(-np.pi, np.pi)
            # dense positive channel mix: every class loads every channel,
            # classes differ only in the weighting
            weights = np.abs(rng.standard_normal(spec.n_channels)) + 0.1
            weights *= COMPONENT_AMPLITUDE / weights.max()

            base = _smooth_standardized(rng, t, sigma)
            # exact sample correlation: project out the shared part, then mix
            fresh = _orthogonalized(_smooth_standardized(rng, t, sigma), base)
            rho = spec.cross_condition_rho
            mixed = rho * base + np.sqrt(max(0.0, 1.0 - rho**2)) * fresh
            components.append(
                _Component(
                    carrier_hz=carrier,
                    phase=phase,
                    weights=weights,
                    envelope_overt=_to_positive_envelope(base),
                    envelope_covert=_to_positive_envelope(mixed),
                    base_std=base,
                    mixed_std=_orthogonalized(mixed, base),
                )
            )
        templates.append(components)
    return templates


def generate_paired(spec: SynthSpec):
    """Build matched overt/covert epoch sets plus a ground-truth manifest.

    Trial i of a class in the overt set is paired with trial i in the covert
    set: they share envelope/phase jitter, differ by the covert envelope mix,
    amplitude attenuation, correlation-scaled extra phase jitter, and
    independent measurement noise. Fully deterministic for a fixed seed.
    """
    t_axis = np.arange(spec.n_timesteps) / spec.sample_rate_hz
    sigma = _envelope_sigma_samples(spec)
    decorrelation = np.sqrt(max(0.0, 1.0 - spec.cross_condition_rho**2))

    shape = (spec.n_trials, spec.n_timesteps, spec.n_channels)
    overt = np.empty(shape)
    covert = np.empty(shape)
    labels = np.repeat(np.arange(spec.n_classes), spec.trials_per_class)

    def fill(trials):
        for trial in range(trials.start, trials.stop):
            cls, j = divmod(trial, spec.trials_per_class)
            rng_shared = substream(spec.seed, "trial", cls, j)
            rng_extra = substream(spec.seed, "covert_jitter", cls, j)
            overt_sum = np.zeros((spec.n_channels, spec.n_timesteps))
            covert_sum = np.zeros((spec.n_channels, spec.n_timesteps))
            for comp in templates[cls]:
                jit_shared = _smooth_standardized(rng_shared, spec.n_timesteps, sigma)
                jit_shared = _orthogonalized(jit_shared, comp.base_std)
                jit_shared = _orthogonalized(jit_shared, comp.mixed_std)
                jit_fresh = _smooth_standardized(rng_extra, spec.n_timesteps, sigma)
                jit_fresh = _orthogonalized(jit_fresh, comp.base_std)
                jit_fresh = _orthogonalized(jit_fresh, comp.mixed_std)
                jit_fresh = _orthogonalized(jit_fresh, jit_shared)
                # trial-level jitter decorrelates between conditions at the
                # same rate as the template envelopes, so the measured
                # cross-condition correlation tracks rho instead of being
                # inflated by shared jitter
                rho = spec.cross_condition_rho
                # clipped positive so the trial envelope stays a linear
                # function of the template (a sign flip would turn the
                # trial-mean envelope into a curved transform of it)
                jitter_overt = np.clip(1.0 + spec.envelope_jitter * jit_shared, 0.05, None)
                jitter_covert = np.clip(
                    1.0
                    + spec.envelope_jitter * (rho * jit_shared + decorrelation * jit_fresh),
                    0.05,
                    None,
                )
                # uniform per-trial phase: carrier phase carries no class
                # information and cross-component beats cancel out of
                # trial-averaged envelopes
                phase_shift = rng_shared.uniform(-np.pi, np.pi)
                extra_phase = spec.phase_jitter * decorrelation * rng_extra.standard_normal()
                angle = 2.0 * np.pi * comp.carrier_hz * t_axis + comp.phase + phase_shift
                carrier_overt = np.cos(angle)
                carrier_covert = np.cos(angle + extra_phase)
                overt_sum += np.outer(
                    comp.weights, comp.envelope_overt * jitter_overt * carrier_overt
                )
                covert_sum += spec.attenuation * np.outer(
                    comp.weights, comp.envelope_covert * jitter_covert * carrier_covert
                )
            if spec.noise_sigma > 0:
                noise_o = substream(spec.seed, "noise", 0, cls, j)
                noise_c = substream(spec.seed, "noise", 1, cls, j)
                overt_sum += spec.noise_sigma * noise_o.standard_normal(overt_sum.shape)
                covert_sum += spec.noise_sigma * noise_c.standard_normal(covert_sum.shape)
            overt[trial] = overt_sum.T
            covert[trial] = covert_sum.T

    trial_samples = spec.n_timesteps * spec.n_channels
    if trial_samples >= _SPLIT_TRIAL_SAMPLES:
        parts = threads.block_split(spec.n_trials, 2 * 8 * trial_samples)
    else:
        parts = [slice(0, spec.n_trials)]
    # projections on one BLAS thread (threads docstring, "synth"), with the
    # split sized above: inside, the worker count reads 1
    with threads.one_blas_thread():
        templates = _build_templates(spec)
        threads.run([(fill, (part,)) for part in parts])

    common = dict(sample_rate_hz=spec.sample_rate_hz, class_names=spec.class_names)
    overt_set = EpochSet(data=overt, labels=labels, condition=Condition.OVERT, **common)
    covert_set = EpochSet(data=covert, labels=labels.copy(), condition=Condition.COVERT, **common)
    manifest = {
        "schema": 1,
        "seed": spec.seed,
        "n_trials": spec.n_trials,
        "class_names": spec.class_names,
        "cross_condition_rho": spec.cross_condition_rho,
        "attenuation": spec.attenuation,
        "noise_sigma": spec.noise_sigma,
        "carriers_hz": [
            [round(c.carrier_hz, 4) for c in comps] for comps in templates
        ],
    }
    return overt_set, covert_set, manifest


def measure_cross_condition_envelope_correlation(overt: EpochSet, covert: EpochSet) -> dict:
    """Per-class envelope correlation between conditions.

    Envelopes are averaged over each class's trials per condition, then
    correlated per channel; channels vote with weights proportional to their
    envelope variance, so silent channels do not dilute the estimate.
    Returns {class_id: r}.
    """
    env_o = extract_features(overt).envelope_block()
    env_c = extract_features(covert).envelope_block()
    out = {}
    for cls in np.unique(overt.labels):
        sel_o = env_o[overt.labels == cls].mean(axis=0)
        sel_c = env_c[covert.labels == cls].mean(axis=0)
        corr = envelope_correlation(sel_o, sel_c)
        r, zero = corr.per_channel_r, corr.zero_variance
        var_o = sel_o.var(axis=0)
        var_c = sel_c.var(axis=0)
        weights = np.sqrt(var_o * var_c)
        weights[zero] = 0.0
        total = weights.sum()
        out[int(cls)] = float((weights * r).sum() / total) if total > 0 else 0.0
    return out


def to_recordings(epoch_sets, gap_seconds: float = 0.25, seed: int = 0) -> list:
    """Lay each epoch set on a continuous timeline with noise-filled gaps and
    markers. The lead-in and inter-trial gaps leave room for pre-stimulus
    baseline windows; markers point at each trial's first sample.

    Recordings that span at least two blocks of ``threads.BLOCK_BYTES`` are
    built over the package's threads; each draws its gap noise from its own
    condition's substream, so the split changes no bits."""
    gap_and_length = []
    for epochs in epoch_sets:
        gap = int(round(gap_seconds * epochs.sample_rate_hz))
        if gap < 1:
            raise ConfigError("gap_seconds must cover at least one sample")
        gap_and_length.append((gap, gap + epochs.n_trials * (epochs.n_timesteps + gap)))
    # in this thread: np.std's epoch-sized temporary would stay resident in
    # a pool thread's malloc arena
    sigmas = [float(np.std(epochs.data)) * 0.1 for epochs in epoch_sets]
    recordings = [None] * len(epoch_sets)

    def build(indices):
        for k in range(indices.start, indices.stop):
            epochs, (gap, n_samples) = epoch_sets[k], gap_and_length[k]
            rng = substream(seed, "gaps", int(epochs.condition))
            data = rng.standard_normal((epochs.n_channels, n_samples))
            data *= sigmas[k]
            t = epochs.n_timesteps
            markers = []
            for i in range(epochs.n_trials):
                start = gap + i * (t + gap)
                data[:, start : start + t] = epochs.data[i].T
                markers.append((start, int(epochs.labels[i])))
            recordings[k] = EegRecording(
                data=data,
                sample_rate_hz=epochs.sample_rate_hz,
                channel_labels=[f"ch_{i:02d}" for i in range(epochs.n_channels)],
                markers=markers,
            )

    recording_bytes = max((8 * e.n_channels * n for e, (_, n) in zip(epoch_sets, gap_and_length)),
                          default=0)
    parts = threads.block_split(len(epoch_sets), recording_bytes)
    threads.run([(build, (part,)) for part in parts])
    return recordings


def manifest_paths(directory, subject: str, recordings: bool) -> dict:
    """Where :func:`write_manifest` puts ``subject``'s "manifest" and, by
    condition, its data files: ``.eegr`` recordings or else ``.epoc`` epochs."""
    if subject in ("", ".", "..") or Path(subject).name != subject:
        raise ConfigError(f"subject must be a bare file-name stem, got {subject!r}")
    stem = Path(directory) / subject
    suffix = ".eegr" if recordings else ".epoc"
    paths = {c.name.lower(): Path(f"{stem}_{c.name.lower()}{suffix}") for c in Condition}
    return {**paths, "manifest": Path(f"{stem}_manifest.json")}


def write_manifest(
    datasets: dict, directory, subject: str = "synthetic", seed: int = 0, class_names=None
):
    """Write one file per condition plus a JSON manifest describing them.

    ``datasets`` maps condition names to objects of one kind: EegRecording
    objects go to .eegr files, EpochSet objects to .epoc files.
    """
    recordings = all(isinstance(dataset, EegRecording) for dataset in datasets.values())
    wanted = EegRecording if recordings else EpochSet
    for dataset in datasets.values():  # every kind checked before the first write
        if not isinstance(dataset, wanted):
            raise TypeError(f"need all EegRecording or all EpochSet, got {type(dataset).__name__}")
    paths = manifest_paths(directory, subject, recordings)
    conditions = [Condition.parse(name).name.lower() for name in datasets]
    files = []
    for condition, dataset in zip(conditions, datasets.values()):
        if recordings:
            kind, path = "recording", fileio.write_recording(dataset, paths[condition])
        else:
            kind, path = "epochs", fileio.write_epochs(dataset, paths[condition])
            if class_names is None:
                class_names = list(dataset.class_names)
        files.append({"path": path.name, "condition": condition, "kind": kind,
                      "sha256": fileio.sha256_file(path)})
    manifest = {"schema": 1, "subject": subject, "seed": seed, "class_names": class_names,
                "files": files}
    return fileio.dump_json(manifest, paths["manifest"])
