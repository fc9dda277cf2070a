"""Recurrent weight initialisation split over the package's threads, bit for
bit against one worker.

``init_params`` draws each gate's Gaussian block in order and runs the
blocks' QR factorizations afterwards, split over the package pool when the
layer's width reaches ``network.INIT_QR_THREAD_WIDTH``. Here the worker count
(``threads.worker_count``) is forced to 1 for the reference, left at its
default, and forced to 2; every parameter must match exactly
(``assert_array_equal``). CI also runs this file on two OpenBLAS threads,
where the one-worker reference runs its QRs on two BLAS threads and each
worker on one.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from covert_decode import network
from covert_decode.network import (
    RECURRENT_KINDS,
    LayerSpec,
    build_model,
    classifier_specs,
    init_params,
)
from covert_decode.rng import substream

DEFAULT = None  # workers(DEFAULT) keeps the package's worker count


def blocks_of(model):
    return [(key, arr.copy()) for key, arr in model.param_blocks()]


@pytest.mark.parametrize("kind", RECURRENT_KINDS)
def test_paper_width_split_matches_one_worker(kind, workers):
    specs = classifier_specs(kind, 128, hidden=(512, 256), dropout=(0.3, 0.2))
    built = {}
    for n in (1, DEFAULT, 2):
        runs = workers(n)
        built[n] = blocks_of(build_model(specs, seed=5))
        if n == 1:
            assert set(runs) == {1}
        elif n == 2:
            # both recurrent layers reach the width gate and split
            assert runs.count(2) == 2
    for n in (DEFAULT, 2):
        for (ka, pa), (kb, pb) in zip(built[1], built[n], strict=True):
            assert ka == kb
            assert_array_equal(pa, pb, err_msg=ka)


@pytest.mark.parametrize("kind", RECURRENT_KINDS)
@pytest.mark.parametrize("hidden", [(64, 32), (32, 16)])
def test_desk_width_stays_in_the_calling_thread(kind, hidden, workers):
    specs = classifier_specs(kind, 32, hidden=hidden, dropout=(0.3, 0.2))
    for n in (DEFAULT, 2):
        runs = workers(n)
        build_model(specs, seed=3)
        assert runs and max(runs) == 1


@pytest.mark.parametrize("kind", ["lstm", "bigru"])
def test_width_gate(kind, workers):
    # the first width that splits, and the one below it, against the
    # per-gate loop written out: Gaussian blocks drawn in parameter order,
    # one QR each, sign-corrected
    for h in (network.INIT_QR_THREAD_WIDTH - 1, network.INIT_QR_THREAD_WIDTH):
        spec = LayerSpec(kind, 8, h)
        runs = workers(2)
        params = init_params(spec, substream(7, "init"))
        assert runs == [2 if h >= network.INIT_QR_THREAD_WIDTH else 1]
        rng = substream(7, "init")
        limit = np.sqrt(6.0 / (8 + h))
        for name, arr in params.items():
            if name.endswith("wx"):
                want = rng.uniform(-limit, limit, size=arr.shape)
            elif name.endswith("wh"):
                want = np.empty(arr.shape)
                for g in range(0, arr.shape[1], h):
                    q, r = np.linalg.qr(rng.standard_normal((h, h)))
                    want[:, g : g + h] = q * np.sign(np.diag(r))
            else:
                continue
            assert_array_equal(arr, want.astype(np.float32), err_msg=name)


def test_split_weights_are_orthogonal(workers):
    workers(2)
    spec = LayerSpec("bilstm", 128, 512)
    params = init_params(spec, substream(2, "init"), np.float64)
    for direction in ("fw", "bw"):
        wh = params[f"{direction}_wh"]
        for g in range(0, wh.shape[1], spec.size):
            block = wh[:, g : g + spec.size]
            np.testing.assert_allclose(block.T @ block, np.eye(spec.size), rtol=0, atol=1e-12)
