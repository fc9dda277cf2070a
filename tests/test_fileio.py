"""Binary format round trips and tamper detection."""

import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from covert_decode import fileio, threads
from covert_decode.cli import main
from covert_decode.containers import Condition, EegRecording, EpochSet, FeatureTensor
from covert_decode.errors import ConfigError, FileFormatError
from covert_decode.network import build_model, classifier_specs


def sample_recording():
    rng = np.random.default_rng(0)
    return EegRecording(
        data=rng.standard_normal((3, 500)).astype(np.float32).astype(np.float64),
        sample_rate_hz=500.0,
        channel_labels=["Fz", "Cz", "Pz"],
        markers=[(10, 0), (200, 4)],
    )


def sample_epochs():
    rng = np.random.default_rng(1)
    return EpochSet(
        data=rng.standard_normal((4, 50, 3)).astype(np.float32).astype(np.float64),
        labels=np.array([0, 1, 2, 1]),
        condition=Condition.COVERT,
        sample_rate_hz=500.0,
        class_names=["a", "b", "c"],
    )


def sample_features():
    rng = np.random.default_rng(2)
    return FeatureTensor(
        data=rng.standard_normal((5, 20, 6)).astype(np.float32),
        labels=np.array([0, 1, 2, 3, 4]),
        condition=Condition.OVERT,
        class_names=[f"k{i}" for i in range(5)],
    )


# Reference writers: every format as it was written with ``tobytes()`` copies
# of each payload. The writers must keep producing exactly these bytes.


def _ref_string(text):
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def reference_recording_bytes(rec):
    out = b"EEGR" + struct.pack("<II", 1, rec.n_channels) + struct.pack("<Q", rec.n_samples)
    out += struct.pack("<d", float(rec.sample_rate_hz))
    out += b"".join(_ref_string(label) for label in rec.channel_labels)
    out += struct.pack("<Q", len(rec.markers))
    out += b"".join(struct.pack("<QH", s, c) for s, c in rec.markers)
    return out + np.ascontiguousarray(rec.data, dtype="<f4").tobytes()


def reference_epochs_bytes(epochs):
    out = b"EPOC" + struct.pack("<IIIIB", 1, epochs.n_trials, epochs.n_timesteps,
                                epochs.n_channels, int(epochs.condition))
    out += struct.pack("<d", float(epochs.sample_rate_hz)) + struct.pack("<I", epochs.n_classes)
    out += b"".join(_ref_string(name) for name in epochs.class_names)
    out += np.ascontiguousarray(epochs.labels, dtype="<u2").tobytes()
    return out + np.ascontiguousarray(epochs.data, dtype="<f4").tobytes()


def reference_features_bytes(features):
    out = b"FTEN" + struct.pack("<IIIIB", 1, features.n_trials, features.n_timesteps,
                                features.n_features, int(features.condition))
    out += np.ascontiguousarray(features.labels, dtype="<u2").tobytes()
    return out + np.ascontiguousarray(features.data, dtype="<f4").tobytes()


def reference_model_bytes(model):
    header = {"layer_specs": [asdict(spec) for spec in model.specs],
              "freeze_flags": model.freeze_flags(), "rng_seed": model.rng_seed}
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    blocks = model.param_blocks()
    out = b"RMDL" + struct.pack("<II", 1, len(header_raw)) + header_raw
    out += struct.pack("<I", len(blocks))
    for name, arr in blocks:
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        out += _ref_string(name) + struct.pack("<B", arr32.ndim)
        out += struct.pack(f"<{arr32.ndim}I", *arr32.shape) + arr32.tobytes()
    return out


class TestRecordingFormat:
    def test_round_trip(self, tmp_path):
        rec = sample_recording()
        path = fileio.write_recording(rec, tmp_path / "r.eegr")
        assert path.read_bytes() == reference_recording_bytes(rec)
        loaded = fileio.read_recording(path)
        np.testing.assert_array_equal(loaded.data, rec.data)
        assert loaded.sample_rate_hz == rec.sample_rate_hz
        assert loaded.channel_labels == rec.channel_labels
        assert loaded.markers == rec.markers

    def test_write_is_idempotent(self, tmp_path):
        rec = sample_recording()
        p1 = fileio.write_recording(rec, tmp_path / "a.eegr")
        p2 = fileio.write_recording(fileio.read_recording(p1), tmp_path / "b.eegr")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.eegr"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FileFormatError, match="bad.eegr"):
            fileio.read_recording(path)

    @pytest.mark.parametrize("suffix", [".eegr", ".epoc", ".ften", ".rmdl"],
                             ids=["eegr", "epoc", "ften", "rmdl"])
    def test_truncated(self, tmp_path, suffix):
        # every strict prefix of a valid file of each format
        path, reader = _sample_files(tmp_path)[suffix]
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            with pytest.raises(FileFormatError, match="bad magic" if n < 4 else "truncated"):
                reader(path)

    def test_unicode_labels(self, tmp_path):
        rec = sample_recording()
        rec.channel_labels = ["Fp1", "Öz", "Pθ"]
        loaded = fileio.read_recording(fileio.write_recording(rec, tmp_path / "u.eegr"))
        assert loaded.channel_labels == rec.channel_labels


class TestEpochsFormat:
    def test_round_trip(self, tmp_path):
        epochs = sample_epochs()
        path = fileio.write_epochs(epochs, tmp_path / "e.epoc")
        assert path.read_bytes() == reference_epochs_bytes(epochs)
        loaded = fileio.read_epochs(path)
        np.testing.assert_array_equal(loaded.data, epochs.data)
        np.testing.assert_array_equal(loaded.labels, epochs.labels)
        assert loaded.condition == Condition.COVERT
        assert loaded.class_names == epochs.class_names
        assert loaded.sample_rate_hz == 500.0


class TestFeatureFormat:
    def test_round_trip(self, tmp_path):
        tensor = sample_features()
        path = fileio.write_features(tensor, tmp_path / "f.ften")
        assert path.read_bytes() == reference_features_bytes(tensor)
        loaded = fileio.read_features(path)
        np.testing.assert_array_equal(loaded.data, tensor.data)
        np.testing.assert_array_equal(loaded.labels, tensor.labels)
        assert loaded.condition == Condition.OVERT
        assert loaded.n_features == 6

    def test_byte_identical_rewrites(self, tmp_path):
        tensor = sample_features()
        p1 = fileio.write_features(tensor, tmp_path / "1.ften")
        p2 = fileio.write_features(tensor, tmp_path / "2.ften")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_names_file(self, tmp_path):
        path = tmp_path / "zz.ften"
        path.write_bytes(b"ABCD" + b"\x00" * 32)
        with pytest.raises(FileFormatError, match="zz.ften"):
            fileio.read_features(path)

    def test_read_holds_the_samples_once(self, tmp_path):
        # 2 MiB of f32 samples are read straight into the returned array: a
        # bytes object plus a copy of it would peak at twice that
        tensor = FeatureTensor(data=np.ones((32, 256, 64), dtype=np.float32),
                               labels=np.arange(32) % 2, condition=Condition.OVERT,
                               class_names=["a", "b"])
        path = fileio.write_features(tensor, tmp_path / "big.ften")
        tracemalloc.start()
        try:
            loaded = fileio.read_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        samples = tensor.data.nbytes
        assert samples <= peak < samples + 2**16
        assert loaded.data.dtype == np.float32 and loaded.data.flags.writeable
        loaded.data[0, 0, 0] = 2.0
        np.testing.assert_array_equal(loaded.data[1:], tensor.data[1:])


class TestSampleWriteBlocks:
    """Writers convert sample data to f32 a block of rows at a time."""

    WRITERS = {
        "eegr": (sample_recording, fileio.write_recording, reference_recording_bytes),
        "epoc": (sample_epochs, fileio.write_epochs, reference_epochs_bytes),
        "ften": (sample_features, fileio.write_features, reference_features_bytes),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    @pytest.mark.parametrize("block_bytes", [1, 1300])
    def test_blocks_keep_the_bytes(self, tmp_path, monkeypatch, kind, block_bytes):
        # one row per block; then two trials per block, the last one short
        make, write, reference = self.WRITERS[kind]
        monkeypatch.setattr(threads, "BLOCK_BYTES", block_bytes)
        value = make()
        assert write(value, tmp_path / f"s.{kind}").read_bytes() == reference(value)

    def test_write_holds_no_file_sized_copy(self, tmp_path, monkeypatch):
        # 2 MiB of f32 samples written in 64 KiB blocks; converting the whole
        # array at once would hold all 2 MiB
        monkeypatch.setattr(threads, "BLOCK_BYTES", 2**16)
        epochs = EpochSet(data=np.zeros((32, 256, 64)), labels=np.zeros(32, dtype=int),
                          condition=Condition.OVERT, sample_rate_hz=500.0, class_names=["a"])
        tracemalloc.start()
        try:
            fileio.write_epochs(epochs, tmp_path / "big.epoc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**18


class TestModelCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        specs = classifier_specs("bilstm", 6, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3)
        # layers 0, 1 and 2 hold parameters; 3 is softmax
        for frozen in [(0,), (), (0, 1, 2)]:
            model = build_model(specs, seed=11)
            for i in frozen:
                model.set_frozen(i, True)
            p1 = fileio.save_model(model, tmp_path / "m1.rmdl")
            assert p1.read_bytes() == reference_model_bytes(model)
            loaded = fileio.load_model(p1)
            p2 = fileio.save_model(loaded, tmp_path / "m2.rmdl")
            assert p1.read_bytes() == p2.read_bytes()
            assert loaded.freeze_flags() == model.freeze_flags()
            assert loaded.rng_seed == model.rng_seed
            for (ka, pa), (kb, pb) in zip(model.param_blocks(), loaded.param_blocks()):
                assert ka == kb
                np.testing.assert_array_equal(pa, pb)

    def test_forward_identical_after_reload(self, tmp_path):
        specs = classifier_specs("bigru", 4, hidden=(4,), dropout=(0.2,), n_classes=2)
        model = build_model(specs, seed=12)
        loaded = fileio.load_model(fileio.save_model(model, tmp_path / "m.rmdl"))
        x = np.random.default_rng(13).standard_normal((3, 7, 4)).astype(np.float32)
        np.testing.assert_array_equal(
            model.forward(x, training=False), loaded.forward(x, training=False)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.rmdl"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            fileio.load_model(path)


def _wide_gru_checkpoint(path, blocks=b"", n_blocks=0):
    """A checkpoint whose header declares a GRU of width 1000 (about 12 MB of
    float32 parameters) followed by ``n_blocks`` and the bytes ``blocks``."""
    specs = classifier_specs("gru", 4, hidden=(1000,), dropout=(0.0,), n_classes=5)
    header = json.dumps({"layer_specs": [asdict(spec) for spec in specs],
                         "freeze_flags": [False] * len(specs), "rng_seed": 0}).encode()
    path.write_bytes(b"RMDL" + struct.pack("<II", 1, len(header)) + header
                     + struct.pack("<I", n_blocks) + blocks)
    return path


class TestCheckpointMemory:
    """A header's layer sizes cost nothing until the file holds the blocks."""

    @pytest.mark.parametrize("blocks,n_blocks", [
        (b"", 0),
        # the first block's name and shape are right, its data is cut short
        (_ref_string("layer0.fw_b") + struct.pack("<BI", 1, 3000) + bytes(16), 5),
    ], ids=["no-blocks", "truncated-block"])
    def test_declared_model_is_not_allocated(self, tmp_path, blocks, n_blocks):
        path = _wide_gru_checkpoint(tmp_path / "wide.rmdl", blocks, n_blocks)
        assert path.stat().st_size < 600
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError):
                fileio.load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("command", ["validate", "evaluate", "transfer"])
    def test_commands_reject_it(self, tmp_path, command):
        model = _wide_gru_checkpoint(tmp_path / "wide.rmdl")
        feats = fileio.write_features(sample_features(), tmp_path / "f.ften")
        argv = {"validate": ["validate", str(model)],
                "evaluate": ["evaluate", "--model", str(model), "--features", str(feats),
                             "--out", str(tmp_path / "e.json")],
                "transfer": ["transfer", "--source", str(model), "--covert", str(feats),
                             "--out", str(tmp_path / "t.json")]}[command]
        assert main(argv) == 3


def _sample_files(tmp_path):
    model = build_model(classifier_specs("gru", 6, hidden=(3,), dropout=(0.0,), n_classes=3),
                        seed=0)
    return {
        ".eegr": (fileio.write_recording(sample_recording(), tmp_path / "s.eegr"),
                  fileio.read_recording),
        ".epoc": (fileio.write_epochs(sample_epochs(), tmp_path / "s.epoc"),
                  fileio.read_epochs),
        ".ften": (fileio.write_features(sample_features(), tmp_path / "s.ften"),
                  fileio.read_features),
        ".rmdl": (fileio.save_model(model, tmp_path / "s.rmdl"), fileio.load_model),
    }


def _rmdl_offset(raw, field):
    (header_len,) = struct.unpack_from("<I", raw, 8)
    count = 12 + header_len
    (name_len,) = struct.unpack_from("<I", raw, count + 4)
    ndim = count + 8 + name_len
    return {"header length": 8, "parameter count": count, "parameter name length": count + 4,
            "parameter ndim": ndim, "parameter dim": ndim + 1}[field]


# (suffix, size field, byte offset in the sample file, struct code); the
# checkpoint's offsets depend on its JSON header and are looked up
SIZE_FIELDS = [
    (".eegr", "n_channels", 8, "<I"),
    (".eegr", "n_samples", 12, "<Q"),
    (".eegr", "channel label length", 28, "<I"),
    (".eegr", "marker count", 46, "<Q"),
    (".epoc", "n_trials", 8, "<I"),
    (".epoc", "n_timesteps", 12, "<I"),
    (".epoc", "n_channels", 16, "<I"),
    (".epoc", "class count", 29, "<I"),
    (".epoc", "class name length", 33, "<I"),
    (".ften", "n_trials", 8, "<I"),
    (".ften", "n_timesteps", 12, "<I"),
    (".ften", "n_features", 16, "<I"),
    (".rmdl", "header length", None, "<I"),
    (".rmdl", "parameter count", None, "<I"),
    (".rmdl", "parameter name length", None, "<I"),
    (".rmdl", "parameter ndim", None, "<B"),
    (".rmdl", "parameter dim", None, "<I"),
]


class TestInflatedSizeFields:
    @pytest.mark.parametrize("how", ["max", "within_file", "plus_one"])
    @pytest.mark.parametrize("suffix,field,offset,code", SIZE_FIELDS,
                             ids=[f"{s[1:]}-{f}" for s, f, _, _ in SIZE_FIELDS])
    def test_only_file_format_error_escapes(self, tmp_path, suffix, field, offset, code,
                                            how):
        path, reader = _sample_files(tmp_path)[suffix]
        raw = bytearray(path.read_bytes())
        if offset is None:
            offset = _rmdl_offset(raw, field)
        width = struct.calcsize(code)
        (old,) = struct.unpack_from(code, raw, offset)
        top = 2 ** (8 * width) - 1
        value = {"max": top, "within_file": min(top, old + (len(raw) - offset) // 3),
                 "plus_one": old + 1}[how]
        struct.pack_into(code, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            reader(path)
        assert main(["validate", str(path)]) == 3


def _edit_rmdl_header(raw, edit):
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len])
    edit(header)
    new = json.dumps(header).encode()
    return raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + header_len :]


def _drop_layer_specs(header):
    del header["layer_specs"]


def _empty_layer_specs(header):
    header["layer_specs"] = []


def _zero_size(header):
    header["layer_specs"][0]["size"] = 0


def _unknown_spec_key(header):
    header["layer_specs"][0]["colour"] = "red"


def _extra_freeze_flag(header):
    header["freeze_flags"].append(True)


def _freeze_flag(index, value):
    def edit(header):
        header["freeze_flags"][index] = value
    return edit


def _freeze_flags_string(header):
    header["freeze_flags"] = "0" * len(header["freeze_flags"])


def _seed(value):
    def edit(header):
        header["rng_seed"] = value
    return edit


def _condition_seven(raw):
    raw[20] = 7  # the u8 condition after magic, version and three u32 sizes
    return raw


def _label_beyond_names(raw):
    (n_classes,) = struct.unpack_from("<I", raw, 29)
    offset = 33
    for _ in range(n_classes):
        offset += 4 + struct.unpack_from("<I", raw, offset)[0]
    struct.pack_into("<H", raw, offset, n_classes)  # first trial's label
    return raw


def _ndim_beyond_numpy(raw):
    # the first parameter keeps its size but declares 65 dims, past numpy's 64
    offset = _rmdl_offset(raw, "parameter ndim")
    ndim = raw[offset]
    raw[offset] = 65
    dims_end = offset + 1 + 4 * ndim
    return raw[:dims_end] + struct.pack(f"<{65 - ndim}I", *[1] * (65 - ndim)) + raw[dims_end:]


# (suffix, how the written sample file is damaged); every case once escaped
# the reader as an untyped exception
BAD_VALUES = [
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _drop_layer_specs)),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _empty_layer_specs)),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _zero_size)),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _unknown_spec_key)),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _extra_freeze_flag)),
    # freeze flags are JSON booleans, and false on layers without parameters
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _freeze_flag(0, "no"))),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _freeze_flag(0, 1))),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _freeze_flag(-1, True))),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _freeze_flags_string)),
    (".rmdl", _ndim_beyond_numpy),
    # the seed must be a JSON integer, not something int() accepts
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _seed("7"))),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _seed(1.5))),
    (".rmdl", lambda raw: _edit_rmdl_header(raw, _seed(True))),
    (".ften", _condition_seven),
    (".epoc", _condition_seven),
    (".epoc", _label_beyond_names),
]
BAD_VALUE_IDS = ["rmdl-no-layer-specs", "rmdl-empty-layer-specs", "rmdl-size-zero", "rmdl-unknown-spec-key",
                 "rmdl-freeze-flags-too-long", "rmdl-freeze-flag-string", "rmdl-freeze-flag-one",
                 "rmdl-frozen-softmax", "rmdl-freeze-flags-string", "rmdl-ndim-beyond-numpy",
                 "rmdl-seed-string",
                 "rmdl-seed-float", "rmdl-seed-bool", "ften-condition-7", "epoc-condition-7",
                 "epoc-label-beyond-class-names"]


class TestBadFieldValues:
    @pytest.mark.parametrize("suffix,damage", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_only_file_format_error_escapes(self, tmp_path, suffix, damage):
        path, reader = _sample_files(tmp_path)[suffix]
        path.write_bytes(bytes(damage(bytearray(path.read_bytes()))))
        with pytest.raises(FileFormatError):
            reader(path)
        assert main(["validate", str(path)]) == 3


class TestTrailingBytes:
    @pytest.mark.parametrize("suffix", [".eegr", ".epoc", ".ften", ".rmdl"])
    def test_validate_rejects_them(self, tmp_path, capsys, suffix):
        # every reader once read past its last block without looking
        path, reader = _sample_files(tmp_path)[suffix]
        path.write_bytes(path.read_bytes() + b"junk!")
        assert main(["validate", str(path)]) == 3
        assert (f"{path}: INVALID ({path}: 5 trailing bytes after the last block)"
                in capsys.readouterr().out)
        with pytest.raises(FileFormatError, match="5 trailing bytes"):
            reader(path)


class TestJsonHelpers:
    def test_dump_is_deterministic(self, tmp_path):
        obj = {"b": 2, "a": [1.5, {"z": True, "y": None}]}
        p1 = fileio.dump_json(obj, tmp_path / "1.json")
        p2 = fileio.dump_json(obj, tmp_path / "2.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_provenance_records_hashes(self, tmp_path):
        # the record a reader appends holds the sha256 of the bytes it read
        data = fileio.write_features(sample_features(), tmp_path / "input.ften")
        out = tmp_path / "out.bin"
        out.write_bytes(b"result")
        inputs = []
        fileio.read_features(data, inputs)
        prov_path = fileio.write_provenance(out, "features", inputs, {"seed": 1})
        prov = fileio.load_json(prov_path)
        assert prov["inputs"] == [{"path": str(data), "sha256": fileio.sha256_file(data)}]
        assert prov["command"] == "features"


class Unprintable:
    def __str__(self):
        raise RuntimeError("interrupted mid-file")


class TestPublishing:
    """Every writer fills a temporary sibling and renames it into place."""

    @staticmethod
    def _write(suffix, path):
        model = build_model(classifier_specs("gru", 6, hidden=(3,), dropout=(0.0,),
                                             n_classes=3), seed=1)
        return {
            ".eegr": lambda: fileio.write_recording(sample_recording(), path),
            ".epoc": lambda: fileio.write_epochs(sample_epochs(), path),
            ".ften": lambda: fileio.write_features(sample_features(), path),
            ".rmdl": lambda: fileio.save_model(model, path),
            ".csv": lambda: fileio.write_csv([["a", "b"], [1, Unprintable()]], path),
        }[suffix]()

    @pytest.mark.parametrize("suffix", [".eegr", ".epoc", ".ften", ".rmdl", ".csv"])
    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch, suffix):
        target = tmp_path / f"old{suffix}"
        target.write_bytes(b"earlier contents")
        real = np.ascontiguousarray

        def fail_on_float_data(arr, dtype=None):
            # labels and header are written by now; the f32 payload is not
            if dtype == "<f4":
                raise RuntimeError("interrupted mid-file")
            return real(arr, dtype=dtype)

        monkeypatch.setattr(fileio.np, "ascontiguousarray", fail_on_float_data)
        with pytest.raises(RuntimeError, match="interrupted mid-file"):
            self._write(suffix, target)
        assert target.read_bytes() == b"earlier contents"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    @pytest.mark.parametrize("suffix", [".eegr", ".epoc", ".ften", ".rmdl"])
    def test_writer_returns_the_final_path(self, tmp_path, suffix):
        target = tmp_path / "sub" / f"new{suffix}"
        assert self._write(suffix, str(target)) == target
        assert [p.name for p in target.parent.iterdir()] == [target.name]

    def test_plain_open_permissions(self, tmp_path):
        plain = tmp_path / "plain.json"
        with open(plain, "w"):
            pass
        published = fileio.dump_json({}, tmp_path / "published.json")
        assert published.stat().st_mode == plain.stat().st_mode

    def test_csv_and_json_line_endings(self, tmp_path):
        table = fileio.write_csv([["x", "y"], [1, None], ["a,b", 0.5]], tmp_path / "t.csv")
        assert table.read_bytes() == b'x,y\r\n1,\r\n"a,b",0.5\r\n'
        assert fileio.dump_json({"a": 1}, tmp_path / "r.json").read_bytes() == b'{\n  "a": 1\n}\n'

    @pytest.mark.parametrize("blocker", ["directory at the path", "file as the parent"])
    def test_unwritable_path_is_config_error(self, tmp_path, blocker):
        if blocker == "directory at the path":
            target = tmp_path / "taken"
            target.mkdir()
        else:
            (tmp_path / "taken").write_bytes(b"kept")
            target = tmp_path / "taken" / "r.json"
        with pytest.raises(ConfigError, match=f"cannot write {target}"):
            fileio.dump_json({"a": 1}, target)
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert target.is_dir() or (tmp_path / "taken").read_bytes() == b"kept"

    @pytest.mark.parametrize("outputs, problem", [
        (["dir"], "it is a directory"),
        (["file/r.json"], "file is not a directory"),
        (["file/new/r.json"], "file is not a directory"),
        (["new/r.json", "new/../new/./r.json"], "two outputs at one path"),
    ])
    def test_check_outputs_before_any_write(self, tmp_path, outputs, problem):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_bytes(b"kept")
        # a file to replace, missing directories and an output not asked for pass
        fileio.check_outputs(tmp_path / "file", tmp_path / "new" / "sub" / "r.json", None)
        with pytest.raises(ConfigError, match=f"cannot write {tmp_path}/.*: .*{problem}"):
            fileio.check_outputs(tmp_path / "ok.json", *(tmp_path / p for p in outputs))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
