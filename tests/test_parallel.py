"""The thread map that grid cells and mcd prediction blocks run on."""

import os
import sys
import threading

from rulkit.parallel import run_indexed, usable_cpus


def test_every_index_runs_once_under_frequent_thread_switches():
    calls = []

    def task(i):
        calls.append(i)
        return i * i

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_indexed(task, 300, 8)  # more threads than CPUs
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(300)]
    assert sorted(calls) == list(range(300))
    assert threading.active_count() == threads  # every helper is joined


def test_tasks_get_the_callers_cpus_divided_among_the_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    assert run_indexed(lambda i: usable_cpus(), 2, 2) == [2, 2]
    assert run_indexed(lambda i: usable_cpus(), 8, 3) == [1] * 8
    # a map inside a task divides that task's share again
    assert run_indexed(lambda i: run_indexed(lambda j: usable_cpus(), 2, 2), 2, 2) == [[1, 1]] * 2
    assert usable_cpus() == 4
