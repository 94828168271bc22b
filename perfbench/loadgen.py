"""The load generators: a closed loop and an open loop.

Each client (or sender) is a thread in the calling process.
``execute(client, op, due)`` performs one operation and returns its
:class:`~perfbench.workloads.Record`; latency is timed from ``due``.

* Closed loop: an op is due when its client's previous op returned, so
  latency also counts the generator's own time to make the op, and
  ``start - due`` measures that overhead.
* Open loop: ops fall due on a fixed schedule whether or not earlier ones
  have returned, and a few sender threads send them in due order.  When
  every sender is busy, due ops wait: ``start - due`` is how late the
  generator ran, and that wait counts in each op's latency.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass
class LoadResult:
    records: list
    wall_s: float  # from the window's start until the last op in flight finished
    rebuilds: list = field(default_factory=list)
    samples: list = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _run(n_threads: int, body: Callable) -> LoadResult:
    """Run ``body(thread, records_out)`` on ``n_threads`` threads and
    gather their records, ordered by start."""
    records: list = []
    lock = threading.Lock()
    start = time.perf_counter()

    def thread_main(c: int) -> None:
        mine: list = []
        body(c, mine)
        with lock:
            records.extend(mine)

    threads = [threading.Thread(target=thread_main, args=(c,), name=f"perfbench-client-{c}") for c in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda r: r.start)
    return LoadResult(records, time.perf_counter() - start)


def closed_loop(n_clients: int, next_op: Callable, execute: Callable, seconds: float) -> LoadResult:
    """Each client sends its next op when the previous one returns, until
    ``seconds`` have passed; ops in flight at the deadline complete."""
    deadline = time.perf_counter() + seconds

    def client(c: int, out: list) -> None:
        while True:
            due = time.perf_counter()
            if due >= deadline:
                return
            out.append(execute(c, next_op(c), due))

    return _run(n_clients, client)


def open_loop(n_senders: int, rate: float, next_op: Callable, execute: Callable, seconds: float) -> LoadResult:
    """Op ``i`` falls due ``i / rate`` seconds into the window; the first
    free sender takes the next op in due order and sends it at its due
    time, or at once if it is already late.  Ops due before ``seconds``
    are all sent; ``next_op()`` yields the single op stream."""
    start = time.perf_counter()
    lock = threading.Lock()
    taken = [0]

    def sender(c: int, out: list) -> None:
        while True:
            with lock:
                due = start + taken[0] / rate
                if due >= start + seconds:
                    return
                taken[0] += 1
                op = next_op()
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            out.append(execute(c, op, due))

    return _run(n_senders, sender)


def backlog_max(records: Sequence) -> int:
    """Most ops ever due but not yet sent, seen at each send (0 for a
    closed loop, where an op falls due only as its client sends it)."""
    dues = np.sort([r.due for r in records])
    starts = np.sort([r.start for r in records])
    if not len(starts):
        return 0
    due_by = np.searchsorted(dues, starts, side="right")
    started_before = np.arange(len(starts))
    return int(max(0, (due_by - started_before - 1).max()))
