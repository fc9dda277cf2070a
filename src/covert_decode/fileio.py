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
    JSON header (layer specs, freeze flags as JSON booleans, false on a layer
    without parameters, rng seed), u32 parameter count,
    per parameter: u32 name length + name, u8 ndim, u32 dims, f32 data.
    Save/load round-trips are bit-exact. Loading checks each block's name and
    shape against ``network.param_shapes`` of the header's specs before its
    data, so it allocates no more than the file holds.

``.epoc`` and ``.ften`` share one layout, written by ``_write_trials``: the
``<IIIIB`` header (version, the three data dimensions, condition), a block
only ``.epoc`` has (sample rate and class names), then labels and data.
Every reader goes through ``_Reader``, which checks the magic and version
and sizes each read from what it reads: ``unpack`` from the struct format,
``array`` from the dtype and shape, ``string`` from its length prefix. Each
size is compared with the bytes left in the file before the read, so a
corrupt or hostile header raises FileFormatError rather than attempting a
huge read; ``_build`` turns a container's ValueError into one as well.

One read per input; digests from the bytes read; trailing bytes rejected.
A reader given a list (``inputs``) feeds every byte it reads into a sha256
and appends the file's ``{"path", "sha256"}`` record to it, which is what
the commands put in their provenance and reports; a reader given none, as
in ``validate`` and ``report``, hashes nothing. ``finish``, after the last
read, raises FileFormatError when bytes are left over, so the digest is the
file's sha256. ``sha256_file`` is left for files a command wrote (the synth
manifest, the train checkpoint record) and for ``validate``'s manifest
check.

Every writer publishes through ``_publish``: it fills a temporary sibling
(``.<name>.partial``) and ``os.replace`` moves it onto the final name, so a
failed or killed writer never leaves a half-written file there, and a file
already there keeps its bytes. The file gets a plain ``open``'s permissions
(not ``mkstemp``'s 0600). There is no ``fsync``: this covers a failed or
killed process, not a power loss. An OSError while making the directory or
writing or renaming the temporary is a ConfigError naming the output path;
``check_outputs`` finds such paths before a command writes anything.
Sample data goes out through ``_write_f32``, which converts it to f32 a
block of about ``threads.BLOCK_BYTES`` of rows at a time, so a writer holds
no file-sized copy.

The sample data of ``.eegr``, ``.epoc`` and ``.ften`` files is read through
``samples``, straight into an f32 buffer, which rejects a NaN or infinite
value with a DataError naming the file and returns the buffer converted to
the dtype asked for; checkpoint weights are read as they are. Hashed sample
data spanning at least two blocks of ``threads.BLOCK_BYTES`` is hashed in
the pool thread while the calling thread checks and converts it, and the
hash is joined before ``samples`` returns, so the f32 buffer lives no
longer.

Every reader opens its input through ``_open``: no file at the path is "input
file not found", another OSError "cannot read", each a DataError (exit 3) or,
for a config source, a ConfigError (exit 2); ``read_text`` decodes UTF-8.
"""

import csv
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import threads
from .containers import EegRecording, EpochSet, FeatureTensor, default_class_names
from .errors import ConfigError, DataError, FileFormatError
from .network import (RECURRENT_KINDS, LayerSpec, RecurrentModel, classifier_specs, param_shapes,
                      validate_chain)

RECORDING_MAGIC = b"EEGR"
EPOCHS_MAGIC = b"EPOC"
FEATURES_MAGIC = b"FTEN"
MODEL_MAGIC = b"RMDL"
_MARKER = struct.Struct("<QH")


def _open(path, error=DataError):
    """``path`` open for binary reading; ``error`` if that fails (module docstring)."""
    try:
        return open(path, "rb")
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        noun = "config" if error is ConfigError else "input"
        raise error(f"{noun} file not found: {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc


def read_text(path, error=DataError) -> str:
    """The UTF-8 text of ``path``; ``error`` if it cannot be read or decoded."""
    with _open(path, error) as fh:
        try:
            return fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text") from exc


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with _open(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _publish(path, mode: str = "wb"):
    """An open temporary sibling of ``path``, moved onto ``path`` when the
    block finishes and removed if it raises; makes the parent directory."""
    path = Path(path)
    partial = path.parent / f".{path.name}.partial"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(partial, mode, newline=None if "b" in mode else "")
        try:
            with fh:
                yield fh
            os.replace(partial, path)
        except BaseException:
            partial.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def check_outputs(*paths, inputs=()):
    """Reject, before any is written, outputs that ``_publish`` cannot write
    all or that would replace a file the command reads: two at one path, one
    at the path of one of ``inputs``, a directory at one, or a file on one's
    parent path. A None path is an output or input not asked for."""
    read = {Path(p).resolve() for p in inputs if p is not None}
    seen = set()
    for path in (Path(p) for p in paths if p is not None):
        resolved = path.resolve()
        nearest = next((d for d in path.parents if d.exists()), path.parent)
        problem = ("two outputs at one path" if resolved in seen
                   else "it is an input" if resolved in read
                   else "it is a directory" if path.is_dir()
                   else f"{nearest} is not a directory" if not nearest.is_dir() else None)
        if problem:
            raise ConfigError(f"cannot write {path}: {problem}")
        seen.add(resolved)


def _write_f32(fh, data):
    """Write ``data`` row-major as little-endian f32, a block of rows at a time."""
    rows = max(1, threads.BLOCK_BYTES // max(1, 4 * math.prod(data.shape[1:])))
    for r0 in range(0, len(data), rows):
        fh.write(memoryview(np.ascontiguousarray(data[r0 : r0 + rows], dtype="<f4")))


def _pack_string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    """Reads one open file whose every size comes from its own header; with
    a list ``inputs``, feeds each byte it reads into a sha256 and appends
    the file's record to the list in ``finish`` (module docstring)."""

    def __init__(self, fh, path, magic: bytes, inputs=None):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size
        self.inputs = inputs
        self.digest = None if inputs is None else hashlib.sha256()
        got = fh.read(4)
        self._hash(got)
        if got != magic:
            raise FileFormatError(
                f"{path}: bad magic {got!r}, expected {magic.decode('ascii')!r}"
            )
        (version,) = self.unpack("<I", "version")
        if version != 1:
            raise FileFormatError(f"{path}: unsupported version {version}")

    def _check_left(self, n: int, what: str):
        left = self.size - self.fh.tell()
        if n > left:
            raise FileFormatError(
                f"{self.path}: truncated while reading {what} ({n} bytes declared, {left} left)"
            )

    def take(self, n: int, what: str) -> bytes:
        self._check_left(n, what)
        raw = self.fh.read(n)
        if len(raw) != n:
            raise FileFormatError(f"{self.path}: truncated while reading {what}")
        self._hash(raw)
        return raw

    def _hash(self, raw):
        if self.digest is not None:
            self.digest.update(raw)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what: str) -> str:
        (length,) = self.unpack("<I", f"{what} length")
        raw = self.take(length, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{self.path}: {what} is not valid UTF-8") from exc

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        raw = self.take(np.dtype(dtype).itemsize * math.prod(shape), what)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    def samples(self, shape: tuple, what: str, dtype) -> np.ndarray:
        """f32 sample data, read straight into a new buffer and returned as a
        new writable array of ``dtype`` (the buffer itself for float32); a
        DataError if it holds a NaN or infinite value. min and max carry a
        NaN through and are infinite when an infinity is present, so no
        full-size mask is made. A hashed buffer is hashed in the pool thread
        while this thread checks and converts it, when it spans at least two
        blocks and the pool has a thread to spare."""
        self._check_left(4 * math.prod(shape), what)
        data = np.empty(shape, dtype="<f4")
        if self.fh.readinto(data) != data.nbytes:
            raise FileFormatError(f"{self.path}: truncated while reading {what}")
        converted, held = [], [data]

        def check_and_convert():
            if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
                raise DataError(f"{self.path}: {what} holds NaN or infinite values")
            converted.append(data.astype(dtype, copy=False))

        def hash_buffer():
            # popped, so a pool thread holds no reference once the call returns
            self.digest.update(held.pop())

        calls = [(check_and_convert, ())]
        if self.digest is not None:
            calls.append((hash_buffer, ()))
        if len(threads.split(len(calls), data.nbytes > threads.BLOCK_BYTES)) > 1:
            threads.run(calls)
        else:
            for fn, args in calls:
                fn(*args)
        return converted[0]

    def finish(self):
        """Reject bytes after the last read; append the file's record (path
        and sha256) to ``inputs`` when it is a list."""
        left = self.size - self.fh.tell()
        if left:
            raise FileFormatError(f"{self.path}: {left} trailing bytes after the last block")
        if self.inputs is not None:
            self.inputs.append({"path": str(self.path), "sha256": self.digest.hexdigest()})


def _build(path, container, **fields):
    try:
        return container(**fields)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_recording(recording: EegRecording, path) -> Path:
    with _publish(path) as fh:
        fh.write(RECORDING_MAGIC)
        fh.write(struct.pack("<IIQd", 1, recording.n_channels, recording.n_samples,
                             float(recording.sample_rate_hz)))
        for label in recording.channel_labels:
            fh.write(_pack_string(label))
        fh.write(struct.pack("<Q", len(recording.markers)))
        for marker in recording.markers:
            fh.write(_MARKER.pack(*marker))
        _write_f32(fh, recording.data)
    return Path(path)


def read_recording(path, inputs=None) -> EegRecording:
    """The recording at ``path``; its record goes to ``inputs`` (``_Reader``)."""
    path = Path(path)
    with _open(path) as fh:
        r = _Reader(fh, path, RECORDING_MAGIC, inputs)
        n_channels, n_samples, sample_rate = r.unpack("<IQd", "header")
        labels = [r.string("channel label") for _ in range(n_channels)]
        (n_markers,) = r.unpack("<Q", "marker count")
        markers = list(_MARKER.iter_unpack(r.take(_MARKER.size * n_markers, "markers")))
        data = r.samples((n_channels, n_samples), "sample data", np.float64)
        r.finish()
    return _build(path, EegRecording, data=data, sample_rate_hz=sample_rate,
                  channel_labels=labels, markers=markers)


def _write_trials(path, magic: bytes, trials, between: bytes = b"") -> Path:
    """Write the layout ``.epoc`` and ``.ften`` share, ``between`` after the header."""
    with _publish(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<IIIIB", 1, *trials.data.shape, int(trials.condition)))
        fh.write(between)
        fh.write(memoryview(np.ascontiguousarray(trials.labels, dtype="<u2")))
        _write_f32(fh, trials.data)
    return Path(path)


def write_epochs(epochs: EpochSet, path) -> Path:
    between = struct.pack("<dI", float(epochs.sample_rate_hz), epochs.n_classes)
    between += b"".join(_pack_string(name) for name in epochs.class_names)
    return _write_trials(path, EPOCHS_MAGIC, epochs, between)


def read_epochs(path, inputs=None) -> EpochSet:
    """The epochs at ``path``; their record goes to ``inputs`` (``_Reader``)."""
    path = Path(path)
    with _open(path) as fh:
        r = _Reader(fh, path, EPOCHS_MAGIC, inputs)
        n_trials, n_timesteps, n_channels, condition = r.unpack("<IIIB", "header")
        sample_rate, n_classes = r.unpack("<dI", "sample rate and class count")
        class_names = [r.string("class name") for _ in range(n_classes)]
        labels = r.array("<u2", (n_trials,), "labels").astype(np.int64)
        data = r.samples((n_trials, n_timesteps, n_channels), "epoch data", np.float64)
        r.finish()
    return _build(path, EpochSet, data=data, labels=labels,
                  condition=condition, sample_rate_hz=sample_rate, class_names=class_names)


def write_features(features: FeatureTensor, path) -> Path:
    return _write_trials(path, FEATURES_MAGIC, features)


def read_features(path, inputs=None) -> FeatureTensor:
    """The features at ``path``; their record goes to ``inputs`` (``_Reader``)."""
    path = Path(path)
    with _open(path) as fh:
        r = _Reader(fh, path, FEATURES_MAGIC, inputs)
        n_trials, n_timesteps, n_features, condition = r.unpack("<IIIB", "header")
        labels = r.array("<u2", (n_trials,), "labels").astype(np.int64)
        data = r.samples((n_trials, n_timesteps, n_features), "feature data", np.float32)
        r.finish()
    n_classes = int(labels.max()) + 1 if n_trials else 1
    return _build(path, FeatureTensor, data=data, labels=labels,
                  condition=condition, class_names=default_class_names(n_classes))


def save_model(model: RecurrentModel, path) -> Path:
    """Serialize a model checkpoint (parameters stored as f32)."""
    header = {
        "layer_specs": [asdict(spec) for spec in model.specs],
        "freeze_flags": model.freeze_flags(),
        "rng_seed": model.rng_seed,
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    blocks = model.param_blocks()
    with _publish(path) as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<II", 1, len(header_raw)))
        fh.write(header_raw)
        fh.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks:
            arr32 = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(_pack_string(name))
            fh.write(struct.pack(f"<B{arr32.ndim}I", arr32.ndim, *arr32.shape))
            fh.write(memoryview(arr32))
    return Path(path)


def load_model(path, inputs=None) -> RecurrentModel:
    """The checkpoint at ``path``; its record goes to ``inputs`` (``_Reader``)."""
    path = Path(path)
    with _open(path) as fh:
        r = _Reader(fh, path, MODEL_MAGIC, inputs)
        (header_len,) = r.unpack("<I", "header length")
        raw = r.take(header_len, "header")
        try:
            header = json.loads(raw)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FileFormatError(f"{path}: header is not valid JSON") from exc
        try:
            specs = [LayerSpec(**d) for d in header["layer_specs"]]
            validate_chain(specs)  # rejects an empty list before specs[0] is read
            if type(header["rng_seed"]) is not int:
                raise TypeError(f"rng_seed {header['rng_seed']!r} is not an integer")
            freeze_flags = header["freeze_flags"]
            if type(freeze_flags) is not list:
                raise TypeError(f"freeze_flags {freeze_flags!r} is not a list")
            if len(freeze_flags) != len(specs):
                raise ValueError(f"{len(freeze_flags)} freeze flags for {len(specs)} layers")
            for spec, flag in zip(specs, freeze_flags):
                # what save_model writes: a JSON boolean, false on a layer without parameters
                if type(flag) is not bool or (flag and not param_shapes(spec)):
                    raise ValueError(f"freeze flag {flag!r} on a {spec.kind} layer")
            rec = [s for s in specs if s.kind in RECURRENT_KINDS]  # what train builds from them
            if specs != classifier_specs(specs[0].kind, specs[0].input_size, [s.size for s in rec],
                                         [s.dropout_rate for s in rec], specs[-1].size,
                                         specs[0].merge_mode):
                raise ValueError("not a recurrent classifier")
        except (KeyError, TypeError, ValueError) as exc:
            raise FileFormatError(f"{path}: header does not describe a model ({exc!r})") from exc
        shapes = {f"layer{i}.{name}": shape for i, spec in enumerate(specs)
                  for name, shape in param_shapes(spec).items()}
        (n_blocks,) = r.unpack("<I", "parameter count")
        if n_blocks != len(shapes):
            raise FileFormatError(f"{path}: parameter blocks do not match the layer specs")
        params = {}
        for _ in range(n_blocks):
            name = r.string("parameter name")
            (ndim,) = r.unpack("<B", "parameter ndim")
            shape = r.unpack(f"<{ndim}I", "parameter shape")
            if name in params or shape != shapes.get(name):
                raise FileFormatError(f"{path}: parameter block {name!r} of shape {shape} "
                                      f"does not match the layer specs")
            params[name] = r.array("<f4", shape, f"parameter {name}").astype(np.float32)
        r.finish()
    layers = [{name: params[f"layer{i}.{name}"] for name in param_shapes(spec)} or None
              for i, spec in enumerate(specs)]
    model = RecurrentModel(specs, layers, header["rng_seed"])
    for i, frozen in enumerate(freeze_flags):
        if frozen:
            model.set_frozen(i, True)
    return model


# ---------------------------------------------------------------------------
# JSON reports, CSV tables and provenance


def dump_json(obj, path) -> Path:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with _publish(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return Path(path)


def write_csv(rows, path) -> Path:
    """Rows as CSV, each line ended by csv's default ``\\r\\n``."""
    with _publish(path, "w") as fh:
        csv.writer(fh).writerows(rows)
    return Path(path)


def load_json(path) -> dict:
    """A JSON object from a UTF-8 file; a DataError for anything else."""
    try:
        obj = json.loads(read_text(path))
    except json.JSONDecodeError as exc:  # not the DataError read_text raises
        raise FileFormatError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top level is not a JSON object")
    return obj


def write_provenance(output_path, command: str, inputs, config: dict) -> Path:
    """Sidecar provenance for binary artifacts: the input records a reader
    appended to ``inputs`` (path and sha256 of the bytes the command read)
    plus the effective config. Reports embed the same records inline."""
    record = {
        "command": command,
        "config": config,
        "inputs": list(inputs),
        "output": str(output_path),
    }
    return dump_json(record, str(output_path) + ".prov.json")
