"""The process executor's workers: one shared request pipe, one reply pipe.

A unit's call is written to the request pipe, the first free worker
runs it, and its answer (or error) comes back through the reply pipe to
the caller's future; a worker that dies breaks the pool.
"""

import os
import threading
import time

import pytest

from repro.serve import ProcessExecutor, fork_available
from repro.serve.procpool import WorkerDied

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process executor requires fork"
)


def _pid(_=None) -> int:
    return os.getpid()


def _fail(message: str):
    raise ValueError(message)


def _exit(code: int):
    os._exit(code)


def _unpicklable():
    return threading.Lock()


@pytest.fixture
def executor():
    pool = ProcessExecutor(None, 2)
    try:
        yield pool
    finally:
        pool.shutdown()


def test_calls_run_in_the_workers(executor):
    pids = {executor._workers.call(_pid) for _ in range(20)}
    assert os.getpid() not in pids
    assert pids <= {p.pid for p in executor._workers.processes}
    assert executor.n_live_workers == 2


def test_a_worker_error_re_raises_in_the_parent(executor):
    with pytest.raises(ValueError, match="boom"):
        executor._workers.call(_fail, "boom")
    with pytest.raises(RuntimeError, match="worker reply failed"):
        executor._workers.call(_unpicklable)
    assert executor.n_live_workers == 2  # both workers still serve
    assert executor._workers.call(_pid) != os.getpid()


def test_a_dead_worker_breaks_the_pool(executor):
    """As with ``ProcessPoolExecutor``: the unit a dead worker held fails,
    and so does every unit after it, each with ``WorkerDied``, which the
    engine fails over like any unit error."""
    with pytest.raises(WorkerDied):
        executor._workers.call(_exit, 3)
    with pytest.raises(WorkerDied):
        executor._workers.call(_pid)
    # The exit closes the worker's pipes a moment before it can be reaped.
    deadline = time.monotonic() + 5.0
    while executor.n_live_workers != 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert executor.n_live_workers == 1


def test_queued_units_wait_for_the_first_free_worker(executor):
    """More units than workers: every unit is answered, by either worker."""
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(executor._workers.call(_pid)))
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
    assert len(results) == 8
    assert os.getpid() not in results


def test_shutdown_stops_every_worker():
    pool = ProcessExecutor(None, 2)
    processes = list(pool._workers.processes)
    pool.shutdown()
    assert not any(process.is_alive() for process in processes)
    assert pool.n_live_workers == 0
