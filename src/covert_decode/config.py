"""Flat key-value run configuration.

``load_config`` returns a plain dict: a defaults table with each source's
``{key: text}`` pairs applied in turn, every value parsed to the type of
its default. Unknown keys are rejected so typos cannot silently fall back
to defaults. Every key is read by some command, and the dict, with each
value a flag gave, is embedded verbatim in every report and ``.prov.json``.
"""

import math
from dataclasses import fields

from . import fileio
from .errors import ConfigError
from .features import DEFAULT_ENV_FLOOR_REL
from .synth import SynthSpec
from .training import TrainConfig

PIPELINE_DEFAULTS = {
    "seed": 0,
    # preprocessing
    "sample_rate_hz": 500.0,
    "notch_hz": 50.0,
    "notch_q": 30.0,
    "bandpass_low_hz": 0.5,
    "bandpass_high_hz": 80.0,
    "bandpass_order": 4,
    "ica_enabled": True,  # when FastICA runs: see cli's docstring
    "ica_components": 0,  # 0 means all channels
    "ica_max_iter": 200,
    "ica_tol": 1e-4,
    "ica_exclude": "",  # comma-separated component indices
    "epoch_seconds": 2.0,
    "baseline_ms": 100.0,
    # features
    "env_floor_rel": DEFAULT_ENV_FLOOR_REL,
    # model
    "model": "bilstm",
    "hidden_units": "512,256",
    "dropout_rates": "0.3,0.2",
    "merge_mode": "concat",
    # training: TrainConfig's fields, with its defaults
    **{f.name: f.default for f in fields(TrainConfig)},
    "cv_folds": 5,
    "test_fraction": 0.2,
    # transfer
    "budgets": "0.15,0.2,0.25,0.3",
    "transfer_seeds": 5,
    "fine_tune_max_epochs": 40,
    "reinit_head": False,
}

# SynthSpec's fields with its defaults, but for two values the CLI has
# always synthesized with: changing either would change every subject the
# CLI writes, or else paper_train's inputs, which come from SynthSpec itself.
SYNTH_DEFAULTS = {
    **{f.name: f.default for f in fields(SynthSpec)},
    "components_per_class": 2,
    "envelope_jitter": 0.2,
    "gap_seconds": 0.25,
}


def _parse_number(kind, text: str):
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_value(key: str, text: str, default):
    try:
        if isinstance(default, bool):
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if isinstance(default, (int, float)):
            return _parse_number(type(default), text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def load_config(defaults: dict, *sources) -> dict:
    """``defaults`` with each ``{key: text}`` source applied in order."""
    cfg = dict(defaults)
    for source in sources:
        for key, text in source.items():
            if key not in defaults:
                raise ConfigError(f"unknown configuration key: {key!r}")
            cfg[key] = _parse_value(key, text, defaults[key])
    return cfg


def parse_list(text, kind, key: str) -> list:
    """Comma-separated finite numbers of ``kind`` (int or float); "" is []."""
    text = str(text).strip()
    try:
        return [_parse_number(kind, part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} list for {key}: {text!r}") from exc


def load_kv_file(path) -> dict:
    """Flat ``key = value`` lines of a UTF-8 file; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(fileio.read_text(path, ConfigError).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected key=value, got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values
