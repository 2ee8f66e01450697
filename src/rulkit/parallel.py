"""Independent tasks on every usable CPU.

``run_indexed``, rulkit's one thread scheduler, computes tasks 0..n-1 on
the calling thread and helper threads, each thread taking the next unstarted
index. On several threads each task runs in a fresh copy of the caller's
context: a new thread does not inherit context variables, and numpy's
``errstate`` is one. In that copy ``usable_cpus()`` returns the caller's CPUs
divided among the threads, so a task that starts threads of its own (mcd
prediction inside a grid cell) does not oversubscribe the CPUs. On one
thread the tasks run in order in the caller's own context, with no set-up.

The helpers are plain threads, one fewer than the workers, because the
calling thread takes tasks too: each thread that allocates gets its own
malloc arena, and an arena keeps its high-water mark after its thread ends.

BLAS adds no threads of its own: ``import rulkit`` runs ``pin_blas_threads``,
which sets every loaded OpenBLAS to one thread for the whole process.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
from threading import Event, Lock, Thread
from typing import Callable, Optional

# The CPUs each task of the enclosing run_indexed may use; None outside one.
_cpu_share: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "rulkit_cpu_share", default=None
)


def usable_cpus() -> int:
    """CPUs the calling code may run on: its share inside a ``run_indexed``
    task, else this process's affinity mask where the platform has one, else
    the machine's count."""
    share = _cpu_share.get()
    if share is not None:
        return share
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_indexed(task: Callable[[int], object], n: int, workers: int) -> list:
    """``[task(0), ..., task(n - 1)]``, computed on ``min(workers, n)`` threads.

    On one thread that is the plain loop, in the caller's own context.
    Otherwise the calling thread and ``min(workers, n) - 1`` helper threads
    each take the next unstarted index until none is left, and every task
    runs in a fresh copy of the caller's context in which ``usable_cpus()``
    is the caller's count divided by the thread count (at least 1). Once a
    task raises, no thread starts another; the running ones finish, and the
    exception of the lowest failing index is raised. Indices are taken in
    order, so for deterministic tasks that is the exception the loop raises.
    """
    workers = max(1, min(workers, n))
    if workers == 1:
        return [task(i) for i in range(n)]
    base = contextvars.copy_context()
    base.run(_cpu_share.set, max(1, usable_cpus() // workers))
    results: list = [None] * n
    errors: dict = {}
    indices = itertools.count()
    lock = Lock()
    stop = Event()

    def work():
        while not stop.is_set():
            with lock:
                i = next(indices)
            if i >= n:
                return
            try:
                results[i] = base.copy().run(task, i)
            except BaseException as exc:  # re-raised below, once every thread is joined
                errors[i] = exc
                stop.set()

    helpers = [Thread(target=work) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def pin_blas_threads():
    """Set every OpenBLAS this process has loaded to one thread, so that
    ``run_indexed`` is the only source of parallelism: numpy's, whose
    routines rulkit calls, and scipy's when scipy was imported first.
    Nothing changes when ``OPENBLAS_NUM_THREADS`` is set, which then wins, or
    where ``/proc/self/maps`` or a known thread-count symbol is missing."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for symbol in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break
