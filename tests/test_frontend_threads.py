"""The front end's thread splits against one worker, bit for bit, and the
package's BLAS pin.

``filter_zero_phase`` splits its signal rows, ``epoch_and_baseline`` and
``extract_features`` their trials over the package's threads when the input
spans at least two blocks.
Here the block size (``threads.BLOCK_BYTES``) is shrunk so that small
inputs span several blocks, and the worker count (``threads.worker_count``)
is forced to 1 for the reference run and to 2 for the split run; every
output must match exactly (``assert_array_equal``). CI also runs this file
on two OpenBLAS threads.
"""

import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from covert_decode import features, ica, preprocessing, threads
from covert_decode.containers import Condition, EegRecording, EpochSet, default_class_names
from covert_decode.errors import DataError

from conftest import needs_blas_calls

N_SAMPLES = 120
ROW_BYTES = 8 * N_SAMPLES


def signals(n_rows):
    return np.random.default_rng(n_rows).standard_normal((n_rows, N_SAMPLES))


def epoch_set(n_trials, n_time=16, n_channels=3):
    data = np.random.default_rng(n_trials).standard_normal((n_trials, n_time, n_channels))
    return EpochSet(data=data, labels=np.arange(n_trials) % 2, condition=Condition.OVERT,
                    sample_rate_hz=100.0, class_names=default_class_names(2))


@needs_blas_calls
class TestFilterSplit:
    @pytest.mark.parametrize("n_rows, n_blocks", [(2, 1), (4, 2), (13, 7)])
    def test_matches_one_worker(self, workers, monkeypatch, n_rows, n_blocks):
        # two rows per block; a split worker's blocks are a half share, one
        # row, so each worker of the 7-block case filters several blocks
        monkeypatch.setattr(threads, "BLOCK_BYTES", 2 * ROW_BYTES)
        assert -(-n_rows // 2) == n_blocks
        coeffs = preprocessing.design_butterworth_bandpass(4, 2.0, 30.0, 250.0)
        x = signals(n_rows)
        workers(1)
        one = preprocessing.filter_zero_phase(x, coeffs)
        runs = workers(2)
        two = preprocessing.filter_zero_phase(x, coeffs)
        assert runs == [1 if n_blocks == 1 else 2]
        assert_array_equal(one, two)


@needs_blas_calls
class TestFilterChain:
    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_matches_one_call_per_filter(self, workers, monkeypatch, n_workers, in_place):
        # seven blocks of two signals: each block goes through both filters
        # before the next one starts
        monkeypatch.setattr(threads, "BLOCK_BYTES", 2 * ROW_BYTES)
        notch = preprocessing.design_notch(50.0, 30.0, 250.0)
        bandpass = preprocessing.design_butterworth_bandpass(4, 2.0, 30.0, 250.0)
        x = signals(13)
        workers(1)
        want = preprocessing.filter_zero_phase(preprocessing.filter_zero_phase(x, notch), bandpass)
        runs = workers(n_workers)
        out = x if in_place else None
        got = preprocessing.filter_zero_phase(x, notch, bandpass, out=out)
        assert runs == [n_workers]
        assert (got is x) == in_place
        assert_array_equal(got, want)


@needs_blas_calls
class TestEpochSplit:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_matches_one_worker(self, workers, monkeypatch, n_workers):
        # two trials of 20 x 3 per block; the first and last markers lack
        # headroom and are skipped, the six kept ones split
        monkeypatch.setattr(threads, "BLOCK_BYTES", 2 * 8 * 20 * 3)
        data = np.random.default_rng(5).standard_normal((3, 200))
        markers = [(2, 0)] + [(10 + 25 * i, i % 2) for i in range(6)] + [(190, 1)]
        recording = EegRecording(data=data, sample_rate_hz=100.0,
                                 channel_labels=["a", "b", "c"], markers=markers)
        workers(1)
        want, want_report = preprocessing.epoch_and_baseline(recording, 0.2, 50.0)
        runs = workers(n_workers)
        got, report = preprocessing.epoch_and_baseline(recording, 0.2, 50.0)
        assert runs == [n_workers]
        assert report.to_dict() == want_report.to_dict()
        assert [s["marker_position"] for s in report.skipped] == [0, 7]
        assert got.data.shape == (6, 20, 3)
        assert_array_equal(got.data, want.data)
        assert_array_equal(got.labels, want.labels)
        m = markers[1][0]
        assert_array_equal(got.data[0], data[:, m : m + 20].T - data[:, m - 5 : m].mean(axis=1))


@needs_blas_calls
class TestFeatureSplit:
    @pytest.mark.parametrize("n_trials", [1, 2, 5])
    def test_matches_one_worker(self, workers, monkeypatch, n_trials):
        # one trial per block, so two or more trials split
        epochs = epoch_set(n_trials)
        monkeypatch.setattr(threads, "BLOCK_BYTES", epochs.data[0].nbytes)
        workers(1)
        one = features.extract_features(epochs)
        runs = workers(2)
        two = features.extract_features(epochs)
        assert runs == [1 if n_trials == 1 else 2]
        assert_array_equal(one.data, two.data)
        assert_array_equal(one.labels, two.labels)

    def test_nan_trial_in_the_pool_half_raises_the_same_error(self, workers, monkeypatch):
        epochs = epoch_set(4)
        epochs.data[3, 5, 1] = np.nan  # trials 2 and 3 go to the pool thread
        monkeypatch.setattr(threads, "BLOCK_BYTES", epochs.data[0].nbytes)
        failed_in = []
        hilbert_parts = features.hilbert_parts

        def recording(x, **kwargs):
            try:
                return hilbert_parts(x, **kwargs)
            except DataError:
                failed_in.append(threading.current_thread() is threading.main_thread())
                raise

        monkeypatch.setattr(features, "hilbert_parts", recording)
        messages = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(DataError) as raised:
                features.extract_features(epochs)
            messages.append(str(raised.value))
        assert failed_in == [True, False]
        assert messages[0] == messages[1]
        assert "NaN or infinite" in messages[0]


@needs_blas_calls
def test_desk_sizes_stay_in_the_calling_thread(workers):
    # the desk workload's subject: 16 channels of 15,022 samples at 250 Hz,
    # 80 trials of 125 samples
    runs = workers(2)
    coeffs = preprocessing.design_notch(50.0, 30.0, 250.0)
    recording = EegRecording(data=np.zeros((16, 15022)), sample_rate_hz=250.0,
                             channel_labels=[f"c{i}" for i in range(16)],
                             markers=[(100 + 180 * i, i % 5) for i in range(80)])
    preprocessing.filter_zero_phase(recording.data, coeffs, coeffs, out=recording.data)
    preprocessing.epoch_and_baseline(recording, 0.5, 200.0)
    features.extract_features(epoch_set(80, n_time=125, n_channels=16))
    # the paper-scale front end splits all three: 64 channels of 67,625
    # samples, 60 trials of 1000 x 64
    assert threads.block_split(64, 8 * 67625) == [slice(0, 32), slice(32, 64)]
    assert len(threads.block_split(60, 8 * 1000 * 64)) == 2
    assert runs == [1, 1, 1]


@needs_blas_calls
class TestOneBlasThread:
    def test_restores_the_count_when_the_body_raises(self):
        get_threads, set_threads = threads._blas_thread_calls()
        saved = get_threads()
        set_threads(2)
        try:
            with pytest.raises(RuntimeError, match="body failed"):
                with threads.one_blas_thread():
                    assert get_threads() == 1
                    raise RuntimeError("body failed")
            assert get_threads() == 2
        finally:
            set_threads(saved)

    def test_no_op_without_blas_calls(self, monkeypatch):
        get_threads, set_threads = threads._blas_thread_calls()
        saved = get_threads()
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
        set_threads(2)
        try:
            with threads.one_blas_thread():
                assert get_threads() == 2
            assert get_threads() == 2
        finally:
            set_threads(saved)

    def test_fastica_lapack_calls_run_on_one_thread(self, monkeypatch):
        # the covariance eigh, each decorrelation's eigh and the mixing pinv
        get_threads, set_threads = threads._blas_thread_calls()
        saved = get_threads()
        seen = []
        for name in ("eigh", "pinv"):
            call = getattr(np.linalg, name)

            def recording(*args, _name=name, _call=call, **kwargs):
                seen.append((_name, get_threads()))
                return _call(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        rng = np.random.default_rng(0)
        rec = EegRecording(data=rng.laplace(size=(4, 400)), sample_rate_hz=100.0,
                           channel_labels=["a", "b", "c", "d"])
        set_threads(2)
        try:
            ica.fastica_decompose(rec, 4, max_iter=3, tol=1e-12)
            assert get_threads() == 2
        finally:
            set_threads(saved)
        names = [name for name, _ in seen]
        # one covariance eigh, the initial decorrelation, one per sweep, pinv
        assert names == ["eigh"] * 5 + ["pinv"]
        assert {n for _, n in seen} == {1}
