"""Synthesis split over the package's threads, bit for bit against one worker.

``generate_paired`` fills its trials in two contiguous halves when one trial
holds at least ``synth._SPLIT_TRIAL_SAMPLES`` channel-samples and the trials
span at least two blocks (``threads.BLOCK_BYTES``); ``to_recordings`` builds
the two recordings of a pair at once when they span at least two blocks.
Here the gates are shrunk so that small subjects split, and the worker count
(``threads.worker_count``) is forced to 1 for the reference run and to 2 for
the split run; every output must match exactly (``assert_array_equal``, or
the written bytes). ``generate_paired``'s bits also must not depend on the
BLAS thread count. CI also runs this file on two OpenBLAS threads.
"""

import hashlib
import os
import threading

import pytest
from numpy.testing import assert_array_equal

from covert_decode import synth, threads
from covert_decode.cli import main
from covert_decode.config import SYNTH_DEFAULTS
from covert_decode.synth import SynthSpec, generate_paired, to_recordings

from conftest import needs_blas_calls


def spec(**overrides):
    # 3 x 3 = 9 trials: the split halves hold 4 and 5
    values = dict(n_classes=3, trials_per_class=3, n_channels=3, sample_rate_hz=100.0,
                  epoch_seconds=0.3, seed=7)
    return SynthSpec(**{**values, **overrides})


@pytest.fixture
def small_gates(monkeypatch):
    """Every trial passes the size gate, and one trial or one recording
    fills a block, so two or more of them split."""
    monkeypatch.setattr(synth, "_SPLIT_TRIAL_SAMPLES", 1)

    def block_bytes(n_bytes):
        monkeypatch.setattr(threads, "BLOCK_BYTES", n_bytes)

    return block_bytes


def trial_bytes(s):
    return 2 * 8 * s.n_timesteps * s.n_channels


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("noise_sigma", [0.5, 0.0])
def test_generate_paired_split_matches_one_worker(workers, small_gates, components,
                                                  noise_sigma):
    s = spec(components_per_class=components, noise_sigma=noise_sigma)
    small_gates(trial_bytes(s))
    outputs = []
    for n in (1, 2):
        runs = workers(n)
        outputs.append(generate_paired(s))
        assert runs == [n]
    (overt_1, covert_1, manifest_1), (overt_2, covert_2, manifest_2) = outputs
    assert_array_equal(overt_1.data, overt_2.data)
    assert_array_equal(covert_1.data, covert_2.data)
    assert_array_equal(overt_1.labels, overt_2.labels)
    assert manifest_1 == manifest_2


def test_recording_pair_split_matches_one_worker(workers, small_gates):
    overt, covert, _ = generate_paired(spec())
    small_gates(8 * overt.n_channels)  # far below one recording
    built = []
    for n in (1, 2):
        runs = workers(n)
        built.append(to_recordings([overt, covert], gap_seconds=0.1, seed=4))
        assert runs == [n]
    for one, two in zip(*built, strict=True):
        assert_array_equal(one.data, two.data)
        assert one.markers == two.markers
        assert one.channel_labels == two.channel_labels


@pytest.mark.parametrize("emit", ["recordings", "epochs"])
def test_cmd_synth_writes_the_same_bytes_on_one_and_two_workers(workers, small_gates,
                                                                tmp_path, emit):
    subject = tmp_path / "subject.kv"
    subject.write_text("n_classes = 3\ntrials_per_class = 3\nn_channels = 3\n"
                       "sample_rate_hz = 100\nepoch_seconds = 0.3\n")
    small_gates(2 * 8 * 30 * 3)  # one trial; a recording spans several
    written = []
    for n in (1, 2):
        runs = workers(n)
        out = tmp_path / str(n)
        assert main(["synth", "--spec", str(subject), "--out", str(out), "--seed", "3",
                     "--emit", emit]) == 0
        # the trials, then the recording pair
        assert runs == ([n, n] if emit == "recordings" else [n])
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    assert len(written[0]) == 3


@pytest.mark.parametrize("subject", [
    # perfbench's desk_protocol subject, through the CLI
    {"n_channels": 16, "trials_per_class": 16, "sample_rate_hz": 250, "epoch_seconds": 0.5},
    # tests/test_cli.py's workspace subject
    {"n_classes": 5, "trials_per_class": 6, "n_channels": 4, "sample_rate_hz": 250,
     "epoch_seconds": 0.4, "noise_sigma": 0.4},
])
def test_desk_and_cli_test_subjects_stay_in_the_calling_thread(workers, tmp_path, subject):
    spec_file = tmp_path / "subject.kv"
    spec_file.write_text("".join(f"{key} = {value}\n" for key, value in subject.items()))
    runs = workers(2)
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "data")]) == 0
    assert runs and max(runs) == 1


def test_paper_train_subject_stays_in_the_calling_thread(workers):
    # perfbench's paper_train subject: 130 trials of 100 x 64, 6,400
    # channel-samples each, below the trial gate
    runs = workers(2)
    overt, _, _ = generate_paired(SynthSpec(n_channels=64, sample_rate_hz=500.0,
                                            epoch_seconds=0.2, trials_per_class=26, seed=1))
    assert overt.data[0].size < synth._SPLIT_TRIAL_SAMPLES
    assert runs == [1]


@pytest.mark.parametrize("n_timesteps", [10_000, 10_001])
def test_trials_longer_than_a_one_thread_blas_dot_split_too(workers, small_gates, n_timesteps):
    # OpenBLAS threads a dot product above 10,000 elements, but the
    # projections run on one BLAS thread, split or not
    s = spec(n_classes=1, trials_per_class=2, n_channels=1, epoch_seconds=n_timesteps / 100)
    small_gates(trial_bytes(s))
    outputs = []
    for n in (1, 2):
        runs = workers(n)
        outputs.append(generate_paired(s))
        assert runs == [n]
    assert_array_equal(outputs[0][0].data, outputs[1][0].data)
    assert_array_equal(outputs[0][1].data, outputs[1][1].data)


@needs_blas_calls
@pytest.mark.parametrize("n_timesteps", [10_001, 20_000])
def test_long_trials_get_the_same_bits_on_one_and_two_blas_threads(n_timesteps):
    # the host's BLAS thread count does not reach the projections' dot
    # products; at 4 trials of 2 channels nothing splits
    s = SynthSpec(n_classes=2, trials_per_class=2, n_channels=2, sample_rate_hz=500.0,
                  epoch_seconds=n_timesteps / 500, seed=0)
    assert s.n_timesteps == n_timesteps
    get_threads, set_threads = threads._blas_thread_calls()
    saved = get_threads()
    digests = []
    try:
        for n in (1, 2):
            set_threads(n)
            assert get_threads() == n
            overt, covert, _ = generate_paired(s)
            digests.append(hashlib.sha256(overt.data.tobytes() + covert.data.tobytes()).digest())
    finally:
        set_threads(saved)
    assert digests[0] == digests[1]


@needs_blas_calls
def test_the_split_is_sized_before_blas_is_held_to_one_thread(workers, small_gates):
    # generate_paired holds BLAS to one thread for its projections; the
    # package's worker count, read inside that, would always be 1
    s = spec()
    small_gates(trial_bytes(s))
    get_threads, set_threads = threads._blas_thread_calls()
    saved = get_threads()
    set_threads(2)
    try:
        runs = workers(None)
        generate_paired(s)
        assert get_threads() == 2
    finally:
        set_threads(saved)
    assert runs == [min(2, len(os.sched_getaffinity(0)))]


def test_paper_frontend_subject_splits_both(workers):
    # perfbench's paper_frontend subject: SYNTH_DEFAULTS with 60 trials of
    # 1000 x 64, and two recordings of 64 x 67,625 samples
    workers(2)
    n_samples = SYNTH_DEFAULTS["n_channels"] * 1000
    assert n_samples >= synth._SPLIT_TRIAL_SAMPLES
    assert len(threads.block_split(60, 2 * 8 * n_samples)) == 2
    assert len(threads.block_split(2, 8 * 64 * 67625)) == 2


def test_error_in_the_pool_half_reaches_the_caller(workers, small_gates, monkeypatch):
    s = spec()
    small_gates(trial_bytes(s))
    failed_in = []
    substream = synth.substream

    def failing(seed, *names):
        if names == ("noise", 1, 2, 2):  # the last trial, in the pool half
            failed_in.append(threading.current_thread() is threading.main_thread())
            raise MemoryError("cannot draw the covert noise")
        return substream(seed, *names)

    monkeypatch.setattr(synth, "substream", failing)
    messages = []
    for n in (1, 2):
        workers(n)
        with pytest.raises(MemoryError) as raised:
            generate_paired(s)
        messages.append(str(raised.value))
    assert failed_in == [True, False]
    assert messages == ["cannot draw the covert noise"] * 2
