"""The readers' input digests, hashed inline and in the pool thread.

A reader given a list feeds the bytes it reads into a sha256; sample data
spanning at least two blocks (``threads.BLOCK_BYTES``) is hashed in the pool
thread while the calling thread checks and converts it. Here the block is
shrunk so that small files span several blocks, and the worker count is
forced to 1 and to 2 (``conftest.workers``). CI also runs this file on two
OpenBLAS threads.
"""

import hashlib
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from covert_decode import fileio, threads
from covert_decode.containers import EegRecording
from covert_decode.errors import DataError

from conftest import needs_blas_calls
from test_cli import _file_with
from test_fileio import _sample_files

SUFFIXES = [".eegr", ".epoc", ".ften", ".rmdl"]


@needs_blas_calls
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_reader_digest_is_the_file_sha256(tmp_path, workers, monkeypatch, suffix, n_workers):
    monkeypatch.setattr(threads, "BLOCK_BYTES", 64)
    path, reader = _sample_files(tmp_path)[suffix]
    runs = workers(n_workers)
    inputs = []
    reader(path, inputs)
    assert inputs == [{"path": str(path), "sha256": fileio.sha256_file(path)}]
    # checkpoints have no sample block; the others hash theirs in the pool at 2
    assert runs == ([2] if n_workers == 2 and suffix != ".rmdl" else [])


@needs_blas_calls
@pytest.mark.parametrize("n_workers", [1, 2])
def test_samples_under_the_gate_hash_inline(tmp_path, workers, n_workers):
    path, reader = _sample_files(tmp_path)[".ften"]
    runs = workers(n_workers)
    reader(path, [])
    assert runs == []


@needs_blas_calls
@pytest.mark.parametrize("suffix", SUFFIXES)
def test_a_reader_given_no_list_hashes_nothing(tmp_path, workers, monkeypatch, suffix):
    # validate and report read without a record: no digest, no pool thread
    monkeypatch.setattr(threads, "BLOCK_BYTES", 64)
    path, reader = _sample_files(tmp_path)[suffix]
    monkeypatch.setattr(fileio, "hashlib", None)
    runs = workers(2)
    reader(path)
    assert runs == []


class SlowDigest:
    """A sha256 whose updates of more than the header's bytes take a while
    and record the thread they ran in and when they finished."""

    log = []

    def __init__(self):
        self.inner = hashlib.sha256()

    def update(self, data):
        if len(memoryview(data).cast("B")) > 64:
            time.sleep(0.2)
            self.log.append((threading.current_thread() is threading.main_thread(),
                             time.perf_counter()))
        self.inner.update(data)

    def hexdigest(self):
        return self.inner.hexdigest()


@needs_blas_calls
@pytest.mark.parametrize("suffix", [".eegr", ".epoc", ".ften"])
def test_data_error_comes_after_the_pool_hash(tmp_path, workers, monkeypatch, suffix):
    path = _file_with(tmp_path, suffix, np.nan)
    monkeypatch.setattr(threads, "BLOCK_BYTES", 64)
    monkeypatch.setattr(fileio, "hashlib", SimpleNamespace(sha256=SlowDigest))
    SlowDigest.log = []
    runs = workers(2)
    reader = {".eegr": fileio.read_recording, ".epoc": fileio.read_epochs,
              ".ften": fileio.read_features}[suffix]
    with pytest.raises(DataError, match="NaN or infinite"):
        reader(path, [])
    raised = time.perf_counter()
    assert runs == [2]
    (in_main, finished), = SlowDigest.log
    assert not in_main and finished <= raised


@needs_blas_calls
@pytest.mark.parametrize("n_workers", [1, 2])
def test_recording_float32_buffer_is_gone_when_the_reader_returns(tmp_path, workers,
                                                                   monkeypatch, n_workers):
    # 8 x 32768 samples: a 1 MiB f32 buffer converted to a 2 MiB float64
    # array; the buffer is hashed in the pool at 2 workers
    monkeypatch.setattr(threads, "BLOCK_BYTES", 2**18)
    data = np.random.default_rng(0).standard_normal((8, 32768))
    path = fileio.write_recording(EegRecording(data=data, sample_rate_hz=250.0,
                                               channel_labels=list("abcdefgh")),
                                  tmp_path / "r.eegr")
    runs = workers(n_workers)
    tracemalloc.start()
    try:
        recording = fileio.read_recording(path, [])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs == ([2] if n_workers == 2 else [])
    f32, f64 = data.size * 4, recording.data.nbytes
    assert f32 + f64 <= peak < f32 + f64 + 2**16
    assert f64 <= current < f64 + 2**16
