"""Binary file formats and JSON helpers.

All integers are little-endian.

Recording (.eegr):   magic "EEGR", u32 version=1, u32 n_channels,
    u64 n_samples, f64 sample_rate, per-channel label (u32 length + UTF-8),
    u64 marker count, markers as (u64 sample_index, u16 class_id) pairs,
    f32 data row-major channel-by-channel.

Epochs (.epoc):      magic "EPOC", u32 version=1, u32 n_trials,
    u32 n_timesteps, u32 n_channels, u8 condition, f64 sample_rate,
    u32 n_classes, per-class name (u32 length + UTF-8), labels as u16,
    f32 data trial-major.

Features (.ften):    magic "FTEN", u32 version=1, u32 n_trials,
    u32 n_timesteps, u32 n_features, u8 condition, labels as u16,
    f32 data trial-major. (No class-name block; loading synthesizes
    class_0..class_{k-1}.)

Checkpoint (.rmdl):  magic "RMDL", u32 version=1, u32 JSON header length,
    JSON header (layer specs, freeze flags, rng seed), u32 parameter count,
    per parameter: u32 name length + name, u8 ndim, u32 dims, f32 data.
    Save/load round-trips are bit-exact.

Readers compare every size a header declares with the bytes left in the file
before reading, so a corrupt or hostile header raises FileFormatError rather
than attempting a huge read.
"""

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .containers import Condition, EegRecording, EpochSet, FeatureTensor, default_class_names
from .errors import FileFormatError
from .network import LayerSpec, RecurrentModel, build_model

RECORDING_MAGIC = b"EEGR"
EPOCHS_MAGIC = b"EPOC"
FEATURES_MAGIC = b"FTEN"
MODEL_MAGIC = b"RMDL"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_string(fh, text: str):
    raw = text.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # every size comes from the file's own header: compare it with the bytes
    # left before reading, so a corrupt size fails here instead of asking
    # for gigabytes
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise FileFormatError(
            f"{path}: truncated while reading {what} ({n} bytes declared, {left} left)"
        )
    raw = fh.read(n)
    if len(raw) != n:
        raise FileFormatError(f"{path}: truncated while reading {what}")
    return raw


def _read_string(fh, path, what: str) -> str:
    (length,) = struct.unpack("<I", _read_exact(fh, 4, path, f"{what} length"))
    raw = _read_exact(fh, length, path, what)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: {what} is not valid UTF-8") from exc


def _check_magic(fh, magic: bytes, path):
    got = fh.read(4)
    if got != magic:
        raise FileFormatError(
            f"{path}: bad magic {got!r}, expected {magic.decode('ascii')!r}"
        )
    (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
    if version != 1:
        raise FileFormatError(f"{path}: unsupported version {version}")


def write_recording(recording: EegRecording, path) -> Path:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(RECORDING_MAGIC)
        fh.write(struct.pack("<II", 1, recording.n_channels))
        fh.write(struct.pack("<Q", recording.n_samples))
        fh.write(struct.pack("<d", float(recording.sample_rate_hz)))
        for label in recording.channel_labels:
            _write_string(fh, label)
        fh.write(struct.pack("<Q", len(recording.markers)))
        for sample, cls in recording.markers:
            fh.write(struct.pack("<QH", sample, cls))
        fh.write(memoryview(np.ascontiguousarray(recording.data, dtype="<f4")))
    return path


def read_recording(path) -> EegRecording:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, RECORDING_MAGIC, path)
        (n_channels,) = struct.unpack("<I", _read_exact(fh, 4, path, "n_channels"))
        (n_samples,) = struct.unpack("<Q", _read_exact(fh, 8, path, "n_samples"))
        (sample_rate,) = struct.unpack("<d", _read_exact(fh, 8, path, "sample_rate"))
        labels = [_read_string(fh, path, "channel label") for _ in range(n_channels)]
        (n_markers,) = struct.unpack("<Q", _read_exact(fh, 8, path, "marker count"))
        raw = _read_exact(fh, 10 * n_markers, path, "markers")
        markers = list(struct.iter_unpack("<QH", raw))
        raw = _read_exact(fh, 4 * n_channels * n_samples, path, "sample data")
        data = np.frombuffer(raw, dtype="<f4").reshape(n_channels, n_samples)
    try:
        return EegRecording(
            data=data.astype(np.float64),
            sample_rate_hz=sample_rate,
            channel_labels=labels,
            markers=markers,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_epochs(epochs: EpochSet, path) -> Path:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(EPOCHS_MAGIC)
        fh.write(
            struct.pack(
                "<IIIIB",
                1,
                epochs.n_trials,
                epochs.n_timesteps,
                epochs.n_channels,
                int(epochs.condition),
            )
        )
        fh.write(struct.pack("<d", float(epochs.sample_rate_hz)))
        fh.write(struct.pack("<I", epochs.n_classes))
        for name in epochs.class_names:
            _write_string(fh, name)
        fh.write(memoryview(np.ascontiguousarray(epochs.labels, dtype="<u2")))
        fh.write(memoryview(np.ascontiguousarray(epochs.data, dtype="<f4")))
    return path


def read_epochs(path) -> EpochSet:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, EPOCHS_MAGIC, path)
        n_trials, n_timesteps, n_channels, condition = struct.unpack(
            "<IIIB", _read_exact(fh, 13, path, "header")
        )
        (sample_rate,) = struct.unpack("<d", _read_exact(fh, 8, path, "sample_rate"))
        (n_classes,) = struct.unpack("<I", _read_exact(fh, 4, path, "class count"))
        class_names = [_read_string(fh, path, "class name") for _ in range(n_classes)]
        labels = np.frombuffer(
            _read_exact(fh, 2 * n_trials, path, "labels"), dtype="<u2"
        ).astype(np.int64)
        raw = _read_exact(fh, 4 * n_trials * n_timesteps * n_channels, path, "epoch data")
        data = np.frombuffer(raw, dtype="<f4").reshape(n_trials, n_timesteps, n_channels)
    try:
        return EpochSet(
            data=data.astype(np.float64),
            labels=labels,
            condition=Condition(condition),
            sample_rate_hz=sample_rate,
            class_names=class_names,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_features(features: FeatureTensor, path) -> Path:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(FEATURES_MAGIC)
        fh.write(
            struct.pack(
                "<IIIIB",
                1,
                features.n_trials,
                features.n_timesteps,
                features.n_features,
                int(features.condition),
            )
        )
        fh.write(memoryview(np.ascontiguousarray(features.labels, dtype="<u2")))
        fh.write(memoryview(np.ascontiguousarray(features.data, dtype="<f4")))
    return path


def read_features(path) -> FeatureTensor:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, FEATURES_MAGIC, path)
        n_trials, n_timesteps, n_features, condition = struct.unpack(
            "<IIIB", _read_exact(fh, 13, path, "header")
        )
        labels = np.frombuffer(
            _read_exact(fh, 2 * n_trials, path, "labels"), dtype="<u2"
        ).astype(np.int64)
        raw = _read_exact(fh, 4 * n_trials * n_timesteps * n_features, path, "feature data")
        data = np.frombuffer(raw, dtype="<f4").reshape(n_trials, n_timesteps, n_features)
    n_classes = int(labels.max()) + 1 if n_trials else 1
    try:
        return FeatureTensor(
            data=np.array(data, dtype=np.float32),
            labels=labels,
            condition=Condition(condition),
            class_names=default_class_names(n_classes),
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_model(model: RecurrentModel, path) -> Path:
    """Serialize a model checkpoint (parameters stored as f32)."""
    path = Path(path)
    header = {
        "layer_specs": [spec.to_dict() for spec in model.specs],
        "freeze_flags": model.freeze_flags(),
        "rng_seed": model.rng_seed,
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    blocks = model.param_blocks()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", len(header_raw)))
        fh.write(header_raw)
        fh.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            _write_string(fh, name)
            arr32 = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<B", arr32.ndim))
            fh.write(struct.pack(f"<{arr32.ndim}I", *arr32.shape))
            fh.write(memoryview(arr32))
    return path


def load_model(path) -> RecurrentModel:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, MODEL_MAGIC, path)
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4, path, "header length"))
        raw = _read_exact(fh, header_len, path, "header")
        try:
            header = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FileFormatError(f"{path}: header is not valid JSON") from exc
        try:
            specs = [LayerSpec.from_dict(d) for d in header["layer_specs"]]
            model = build_model(specs, seed=header["rng_seed"], dtype=np.float32)
            freeze_flags = [bool(flag) for flag in header["freeze_flags"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: header does not describe a model ({exc!r})") from exc
        if len(freeze_flags) != len(specs):
            raise FileFormatError(
                f"{path}: {len(freeze_flags)} freeze flags for {len(specs)} layers"
            )
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4, path, "parameter count"))
        params = {}
        for _ in range(n_blocks):
            name = _read_string(fh, path, "parameter name")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path, "parameter ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, path, "parameter shape"))
            raw = _read_exact(fh, 4 * math.prod(shape), path, f"parameter {name}")
            params[name] = shape, np.frombuffer(raw, dtype="<f4")
    expected = {name for name, _ in model.param_blocks()}
    if set(params) != expected:
        raise FileFormatError(f"{path}: parameter blocks do not match the layer specs")
    for name, arr in model.param_blocks():
        shape, flat = params[name]
        # compared before reshaping: a corrupt ndim may exceed numpy's limit
        if shape != arr.shape:
            raise FileFormatError(f"{path}: parameter {name} has shape {shape}, "
                                  f"expected {arr.shape}")
        arr[...] = flat.reshape(shape)
    for layer, frozen in zip(model.layers, freeze_flags):
        if layer is not None:
            layer.frozen = frozen
    return model


# ---------------------------------------------------------------------------
# JSON reports and provenance


def dump_json(obj, path) -> Path:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def load_json(path) -> dict:
    """A JSON object from a UTF-8 file; FileFormatError for anything else."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FileFormatError(f"{path}: not a UTF-8 JSON file ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level is not a JSON object")
    return obj


def input_record(path) -> dict:
    return {"path": str(path), "sha256": sha256_file(path)}


def write_provenance(output_path, command: str, inputs, config: dict) -> Path:
    """Sidecar provenance for binary artifacts: hashes of every input plus the
    effective config. Reports embed the same records inline instead."""
    record = {
        "command": command,
        "config": config,
        "inputs": [input_record(p) for p in inputs],
        "output": str(output_path),
    }
    return dump_json(record, str(output_path) + ".prov.json")
