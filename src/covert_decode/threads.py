"""One thread pool for the package: independent rows, trials or scan slots
run on the calling thread and at most one pool thread at once.

``split(n_items, gate)`` gives each worker a contiguous slice where the
caller's gate holds; ``block_split`` gates on the items spanning at least two
blocks of BLOCK_BYTES (4 MiB), the package's one working-set block (filter
rows, eval projections, float32 writes; a split worker takes a share of it).

Who splits:
  eval scans      a layer's slots, in two contiguous groups, when one step's
                  recurrent GEMM of one slot, 2*B*H*G*H FLOP, reaches
                  ``network.SCAN_THREAD_FLOPS`` (2**25). On one bidirectional
                  layer's eval scan (T = 100, B 8..256, H 64..512, 2 cores),
                  two threads were faster in 16 of 19 shapes at or above it
                  (median -10 %), about even between 2**23 FLOP and it, and
                  slower in 21 of 23 below 2**23. At paper width every eval
                  scan (batch 128) reaches it, no desk-scale one does.
                  Training scans stay in the calling thread, since at batch
                  32 the split gained nothing
  filtering       ``preprocessing.filter_zero_phase``'s signal rows, when
                  they span at least two blocks
  features        ``features.extract_features``' trials, when they span at
                  least two blocks; the workers write into the caller's
                  output
  init QRs        ``network.init_params``' per-gate QR factorizations of a
                  recurrent layer's weights, in two contiguous halves, when
                  the width H reaches ``network.INIT_QR_THREAD_WIDTH`` (128);
                  the workers write into the caller's float64 weights. On a
                  2-vCPU Xeon with OpenBLAS 0.3.31, eight (H, H) float64 QRs
                  took (best of 15) 0.90 ms on one thread and 0.99 ms split
                  at H = 64, 7.3 and 5.2 ms at 128, 32 and 23 ms at 256, and
                  211 and 108 ms at 512; on two OpenBLAS threads, unsplit,
                  they took 1.2, 19, 46 and 227 ms
  synth           ``synth.generate_paired``'s trials, in two contiguous
                  halves, when one trial holds at least
                  ``synth._SPLIT_TRIAL_SAMPLES`` (2**14) channel-samples and
                  the trials span at least two blocks; and
                  ``synth.to_recordings``' overt and covert recordings, when
                  they span at least two blocks. Each trial and recording
                  draws from its own substreams and writes only its own rows.
                  ``generate_paired`` projects with BLAS dot products, which
                  OpenBLAS threads above 10,000 elements with other bits, so
                  they run inside ``one_blas_thread`` on every host, split or
                  not (the split is sized first: the worker count reads the
                  BLAS thread count).
                  130 trials of 64 channels, median of 9 in each of two sweeps
                  on a 2-vCPU Xeon, ms:

                      channel-samples per trial   one thread   split
                      6,400 (paper_train)         104-106      128-153
                      9,600                       124-148      134-174
                      12,800                      156-187      154-164
                      25,600                      242-257      190-242
                      64,000 (paper_frontend)     547-622      330-455

                  The paper-scale recording pair (64 x 67,625 samples each)
                  took 191-239 ms on one thread and 132-140 ms split

Desk-size recordings, feature sets and models stay under every gate, so they
run in the calling thread and never start the pool thread.

The worker count is min(MAX_WORKERS, items, usable cores, BLAS threads at
call time). While the workers run, OpenBLAS is held to one thread, so they
need as many cores as threads; OPENBLAS_NUM_THREADS=1 therefore keeps
everything on one thread, and so does a numpy whose OpenBLAS thread calls
cannot be found. Each row, trial, slot and QR block gets the operations it
gets on one thread, so a split changes no bits (for the scans, as long as
BLAS gives a GEMM row the same bits on one thread as on several, which the
merged eval chunks already rely on; for the init QRs, as long as LAPACK's QR
does).
scipy's ``sosfilt`` loop, numpy's FFT and its ufuncs release the
interpreter lock, which is what lets two workers gain.

Memory: an eval scan's calling thread allocates every buffer its threads
touch, and the threads only write into them, so no scan memory lands in a
per-thread malloc arena; the scan threads call only the scan internals and
``network.sigmoid``. A front-end worker does allocate: scipy's and the FFT's
temporaries, for one block at a time (a share of a filter block, or one
trial), land in the pool thread's arena and stay there for reuse; at paper
scale the process peaked 6 to 8 MB higher than on one thread. So do numpy's
QR temporaries for the init QRs: after synth, features and a BiLSTM and a
BiGRU 512/256 were built, RSS read 153 MB with the QRs split against 139 MB
unsplit (138 MB split with MALLOC_ARENA_MAX=1), and the arena keeps them
resident through training. synth's workers allocate one trial's temporaries
at a time; a recording's gap-noise draw (34.6 MB at paper scale) is above
glibc's 32 MiB mmap limit and goes back to the system when freed. An
epoch-sized temporary is not: with ``np.std(epochs.data)`` (30.7 MB) in the
pool thread, RSS after the paper-scale ``synth`` command read 118 MB and its
peak 242 MB, so ``to_recordings`` takes each recording's spread in the
calling thread. With that, RSS after ``paper_frontend``'s set-up (that
command, in one process) reads 86.8-87.0 MB unsplit and 87.7-88.8 MB split,
with peaks of 211.4-211.5 and 212.2-213.2 MB.

Small LAPACK calls that do not split run inside ``one_blas_thread``: on a
2-vCPU Xeon with OpenBLAS 0.3.31, a 64 x 64 ``eigh`` took about 47 ms on two
fresh OpenBLAS threads and 0.5 ms on one, with the same bits.
"""

import contextlib
import functools
import os

MAX_WORKERS = 2
BLOCK_BYTES = 2**22


@functools.cache
def _blas_thread_calls():
    """numpy's OpenBLAS ``(get, set)`` thread-count functions, or None.

    Looked up on first use, not at import, through numpy's extension module,
    whose symbol scope holds the OpenBLAS it links.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


def worker_count(n_items):
    """How many threads work on ``n_items`` independent items may use: at
    most MAX_WORKERS, one per item, core and BLAS thread; 1 when numpy's
    OpenBLAS thread calls cannot be found."""
    blas = _blas_thread_calls()
    if blas is None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(MAX_WORKERS, n_items, cores or 1, blas[0]()))


def split(n_items, gate=True):
    """Contiguous, nearly equal slices of ``range(n_items)``: one per worker
    (``worker_count``) where ``gate`` holds, else one."""
    parts = worker_count(n_items) if gate else 1
    return [slice(n_items * i // parts, n_items * (i + 1) // parts) for i in range(parts)]


def block_split(n_items, item_bytes):
    """``split`` gated on the items, ``item_bytes`` each, spanning at least
    two blocks of BLOCK_BYTES."""
    return split(n_items, n_items > max(1, BLOCK_BYTES // max(1, item_bytes)))


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread in the body and restore the count it had,
    also when the body raises; does nothing where the thread calls cannot be
    found."""
    blas = _blas_thread_calls()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


_pool = None


def run(calls):
    """Run ``calls``, (function, args) pairs over disjoint items, at once:
    the first in this thread, the others in the pool, with OpenBLAS on one
    thread until every call has returned. An exception in any call is raised
    here, after all have finished."""
    if len(calls) == 1:
        fn, args = calls[0]
        fn(*args)
        return
    import concurrent.futures

    global _pool
    if _pool is None:
        _pool = concurrent.futures.ThreadPoolExecutor(MAX_WORKERS - 1,
                                                      thread_name_prefix="covert-decode")
    with one_blas_thread():
        futures = [_pool.submit(fn, *args) for fn, args in calls[1:]]
        try:
            fn, args = calls[0]
            fn(*args)
        finally:
            concurrent.futures.wait(futures)
    for future in futures:
        future.result()
