"""Fixtures shared by the thread-split tests."""

import pytest

from covert_decode import threads

needs_blas_calls = pytest.mark.skipif(
    threads._blas_thread_calls() is None, reason="numpy's OpenBLAS thread calls not found")


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` lets every later split use up to ``n`` threads (the
    package default for ``None``); returns the list of call counts that
    ``threads.run`` receives."""
    runs = []
    run, worker_count = threads.run, threads.worker_count

    def recorded(calls):
        runs.append(len(calls))
        return run(calls)

    monkeypatch.setattr(threads, "run", recorded)

    def use(n):
        count = worker_count if n is None else (lambda n_items: min(n, n_items))
        monkeypatch.setattr(threads, "worker_count", count)
        runs.clear()
        return runs

    return use
