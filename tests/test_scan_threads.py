"""The two-thread scan path against the one-thread path, bit for bit.

A layer's eval scan splits its slots over two threads when one step's
recurrent GEMM is large enough (``network.SCAN_THREAD_FLOPS``) and numpy's
OpenBLAS lets it pin BLAS to one thread meanwhile; training scans stay in the
calling thread. Here both gates are forced: SCAN_THREAD_FLOPS is 0 and the
package's worker count (``threads.worker_count``) is patched, so small shapes
take the threaded path. Every output, loss, gradient and Adam-updated
parameter must match the one-worker run exactly (``assert_array_equal``). CI
also runs this file on two OpenBLAS threads, where the one-worker reference
runs its GEMMs on two BLAS threads and each worker on one.
"""

import os
import threading

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from covert_decode import network, threads
from covert_decode.network import (
    LayerSpec,
    RecurrentLayer,
    backward_models,
    build_model,
    classifier_specs,
    cross_entropy_mean,
    forward_models,
    init_params,
)
from covert_decode.optim import init_adam
from covert_decode.rng import substream
from covert_decode.training import _predict_proba_models, predict_proba, train_step

from conftest import needs_blas_calls


@pytest.mark.skipif("OPENBLAS_NUM_THREADS" not in os.environ,
                    reason="runs where the BLAS thread count is set")
def test_blas_thread_calls_found():
    # where OPENBLAS_NUM_THREADS is set (as in CI), a numpy whose OpenBLAS
    # thread calls are not found fails here instead of skipping every test
    # below, which would also leave every scan on one thread unnoticed
    assert threads._blas_thread_calls() is not None


def recorded_splits(monkeypatch):
    """The (start, stop) ranges of every later ``threads.split``."""
    splits = []
    split = threads.split

    def recorded(*args):
        parts = split(*args)
        splits.append([(part.start, part.stop) for part in parts])
        return parts

    monkeypatch.setattr(threads, "split", recorded)
    return splits


@pytest.fixture
def slot_splits(monkeypatch):
    """``slot_splits(n)`` makes every later scan split over ``min(n, slots)``
    threads, whatever its size; returns the ranges of every later
    ``threads.split`` (``recorded_splits``)."""
    splits = recorded_splits(monkeypatch)
    monkeypatch.setattr(network, "SCAN_THREAD_FLOPS", 0)

    def use(n):
        monkeypatch.setattr(threads, "worker_count", lambda n_slots: min(n, n_slots))
        splits.clear()
        return splits

    return use


def dlogits(probs, y):
    d = probs.copy()
    d[np.arange(len(y)), y] -= 1.0
    return d / len(y)


def model_run(kind, n_batch, frozen):
    """Training probabilities, loss and gradients of one step, the
    parameters after two Adam steps, and eval probabilities."""
    specs = classifier_specs(kind, 3, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3)
    model = build_model(specs, seed=1)
    if frozen:
        model.set_frozen(0, True)
    rng = np.random.default_rng(n_batch)
    x = rng.standard_normal((n_batch, 7, 3)).astype(np.float32)
    y = rng.integers(0, 3, n_batch)
    probs = forward_models([model], [x], training=True, rngs=[substream(2, "dropout")])[0]
    out = {"probs": probs, "loss": np.array(cross_entropy_mean(probs, y))}
    backward_models([model], [dlogits(probs, y)])
    out.update(model.collect_grads())
    model.zero_grads()
    state = init_adam(model.trainable_params(), learning_rate=0.01)
    steps = [train_step(model, x, y, state, substream(3, "dropout")) for _ in range(2)]
    out["steps"] = np.array(steps)
    out.update({f"after.{k}": v.copy() for k, v in model.trainable_params().items()})
    out["eval"] = predict_proba(model, x, 2)
    return out


def assert_runs_equal(one, two):
    assert sorted(one) == sorted(two)
    for key in one:
        assert_array_equal(one[key], two[key], err_msg=key)


@needs_blas_calls
class TestModelsMatchOneWorker:
    @pytest.mark.parametrize("kind", ["bilstm", "bigru"])
    @pytest.mark.parametrize("n_batch", [1, 5])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_bidirectional_model(self, slot_splits, kind, n_batch, frozen):
        slot_splits(1)
        one = model_run(kind, n_batch, frozen)
        splits = slot_splits(2)
        two = model_run(kind, n_batch, frozen)
        assert [(0, 1), (1, 2)] in splits  # fw and bw on separate threads
        assert_runs_equal(one, two)

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm"])
    @pytest.mark.parametrize("n_models", [4, 3])
    def test_stacked_models(self, slot_splits, monkeypatch, kind, n_models):
        # four unidirectional models split 2 + 2, three split 1 + 2; eval
        # passes project one-step blocks, several per worker
        monkeypatch.setattr(threads, "BLOCK_BYTES", 1)
        specs = classifier_specs(kind, 3, hidden=(5, 4), dropout=(0.3, 0.2), n_classes=3)
        rng = np.random.default_rng(4)
        xs = [rng.standard_normal((4, 6, 3)).astype(np.float32) for _ in range(n_models)]
        ys = [rng.integers(0, 3, 4) for _ in range(n_models)]
        x_eval = rng.standard_normal((9, 6, 3)).astype(np.float32)
        # equally many trials, so every model's eval pass shares one scan
        subsets = [rng.permutation(9)[:8] for _ in range(n_models)]

        def run():
            models = [build_model(specs, seed=m) for m in range(n_models)]
            models[-1].set_frozen(0, True)
            rngs = [substream(m, "dropout") for m in range(n_models)]
            probs = forward_models(models, xs, training=True, rngs=rngs)
            backward_models(models, [dlogits(p, y) for p, y in zip(probs, ys)])
            out = {f"probs{m}": p for m, p in enumerate(probs)}
            for m, model in enumerate(models):
                out.update({f"{m}.{k}": g for k, g in model.collect_grads().items()})
            evals = _predict_proba_models(models, x_eval, subsets, 4)
            out.update({f"eval{m}": p for m, p in enumerate(evals)})
            return out

        slot_splits(1)
        one = run()
        splits = slot_splits(2)
        two = run()
        n_slots = n_models * (2 if kind.startswith("bi") else 1)
        assert [(0, n_slots // 2), (n_slots // 2, n_slots)] in splits
        assert_runs_equal(one, two)

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_layer_outputs(self, slot_splits, kind, return_sequences):
        spec = LayerSpec(kind=kind, input_size=3, size=4, return_sequences=return_sequences)
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal((5, 8, 3)).astype(np.float32) for _ in range(3)]
        layers = [RecurrentLayer(spec, init_params(spec, substream(m, "init"))) for m in range(3)]
        slot_splits(1)
        one = RecurrentLayer.forward_slots(layers, xs)
        splits = slot_splits(2)
        two = RecurrentLayer.forward_slots(layers, xs)
        n_slots = 3 * layers[0].n_dir  # 3 + 3 or 1 + 2
        assert splits == [[(0, n_slots // 2), (n_slots // 2, n_slots)]]
        for a, b in zip(one, two):
            assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", ["lstm", "gru", "bilstm", "bigru"])
    def test_workers_allocate_nothing(self, slot_splits, monkeypatch, kind):
        # every buffer an eval scan's threads touch comes from the calling
        # thread (module docstring, "Threads"): record each np.empty, np.zeros
        # and np.empty_like call made in network, with its thread
        calls = []

        class RecordingNumpy:
            def __getattr__(self, name):
                value = getattr(np, name)
                if name not in ("empty", "zeros", "empty_like"):
                    return value

                def recorded(*args, **kwargs):
                    calls.append((name, threading.current_thread()))
                    return value(*args, **kwargs)

                return recorded

        spec = LayerSpec(kind=kind, input_size=3, size=4)
        layers = [RecurrentLayer(spec, init_params(spec, substream(m, "init"))) for m in range(2)]
        xs = [np.ones((3, 6, 3), dtype=np.float32) for _ in layers]
        splits = slot_splits(2)
        monkeypatch.setattr(network, "np", RecordingNumpy())
        scan = RecurrentLayer._scan
        scan_threads = []

        def recording(self, *args):
            scan_threads.append(threading.current_thread())
            return scan(self, *args)

        monkeypatch.setattr(RecurrentLayer, "_scan", recording)
        RecurrentLayer.forward_slots(layers, xs)
        assert len(splits) == 1 and len(splits[0]) == 2
        assert threading.current_thread() in scan_threads
        assert len(set(scan_threads)) == 2
        assert calls and all(thread is threading.current_thread() for _, thread in calls)

    def test_training_scans_stay_in_the_calling_thread(self, slot_splits, monkeypatch):
        calls = []
        scan = RecurrentLayer._scan

        def recording(self, blocks, buf, slots, keep_cache):
            calls.append((keep_cache, threading.current_thread() is threading.main_thread()))
            return scan(self, blocks, buf, slots, keep_cache)

        monkeypatch.setattr(RecurrentLayer, "_scan", recording)
        slot_splits(2)
        model_run("bilstm", 5, frozen=False)
        assert (True, True) in calls and (False, False) in calls
        assert all(main for keep_cache, main in calls if keep_cache)


@needs_blas_calls
class TestWorkerCount:
    def test_small_scans_stay_on_one_thread(self, monkeypatch):
        splits = recorded_splits(monkeypatch)
        monkeypatch.setattr(threads, "worker_count", lambda n_slots: 2)
        # a desk-scale step (H = 32) is far below the gate; both layers of
        # paper_train's eval passes (batch 128, H = 512 and 256) reach it
        for n_layers, n_batch, kind, size in [(8, 128, "lstm", 32), (1, 128, "bilstm", 512),
                                              (1, 128, "bigru", 256), (1, 128, "bilstm", 128),
                                              (1, 32, "bilstm", 256)]:
            spec = LayerSpec(kind=kind, input_size=1, size=size)
            shapes = network.param_shapes(spec).items()
            layers = [RecurrentLayer(spec, {k: np.zeros(v, np.float32) for k, v in shapes})
                      for _ in range(n_layers)]
            RecurrentLayer.forward_slots(layers, [np.zeros((n_batch, 1, 1))] * n_layers)
        assert [len(parts) for parts in splits] == [1, 2, 2, 1, 1]

    def test_bounded_by_slots_cores_and_blas_threads(self, monkeypatch):
        blas = threads._blas_thread_calls()
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: (lambda: 8, blas[1]))
        assert threads.worker_count(1) == 1
        assert threads.worker_count(6) == min(2, len(os.sched_getaffinity(0)))
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: (lambda: 1, blas[1]))
        assert threads.worker_count(6) == 1

    def test_one_thread_without_blas_calls(self, monkeypatch):
        monkeypatch.setattr(threads, "_blas_thread_calls", lambda: None)
        assert threads.worker_count(4) == 1


@needs_blas_calls
class TestWorkerThreads:
    def test_blas_on_one_thread_while_workers_run(self, slot_splits, monkeypatch):
        get_threads, set_threads = threads._blas_thread_calls()
        saved = get_threads()
        seen = []
        scan = RecurrentLayer._scan

        def recording(self, *args):
            seen.append(get_threads())
            return scan(self, *args)

        monkeypatch.setattr(RecurrentLayer, "_scan", recording)
        spec = LayerSpec(kind="bigru", input_size=3, size=4)
        layer = RecurrentLayer(spec, init_params(spec, substream(0, "init")))
        set_threads(2)
        try:
            slot_splits(1)
            layer.forward(np.ones((2, 5, 3), dtype=np.float32))
            slot_splits(2)
            layer.forward(np.ones((2, 5, 3), dtype=np.float32))
            assert get_threads() == 2
        finally:
            set_threads(saved)
        assert seen == [2, 1, 1]

    @pytest.mark.parametrize("failing_start", [0, 1])
    def test_exception_reaches_caller_and_blas_threads_restored(
            self, slot_splits, monkeypatch, failing_start):
        # the slot range starting at 0 runs in the calling thread, the other
        # in the pool thread
        get_threads, set_threads = threads._blas_thread_calls()
        saved = get_threads()
        scan = RecurrentLayer._scan

        def failing(self, blocks, buf, slots, keep_cache):
            if slots.start == failing_start:
                raise RuntimeError(f"scan of slots from {slots.start} failed")
            return scan(self, blocks, buf, slots, keep_cache)

        monkeypatch.setattr(RecurrentLayer, "_scan", failing)
        slot_splits(2)
        spec = LayerSpec(kind="bilstm", input_size=3, size=4)
        layer = RecurrentLayer(spec, init_params(spec, substream(0, "init")))
        x = np.ones((2, 5, 3), dtype=np.float32)
        set_threads(2)
        try:
            with pytest.raises(RuntimeError, match=f"slots from {failing_start} failed"):
                layer.forward(x)
            assert get_threads() == 2
            monkeypatch.setattr(RecurrentLayer, "_scan", scan)
            layer.forward(x)  # the pool still works after a failure
            assert get_threads() == 2
        finally:
            set_threads(saved)
        pool_threads = [t for t in threading.enumerate() if t.name.startswith("covert-decode")]
        assert len(pool_threads) <= threads.MAX_WORKERS - 1
