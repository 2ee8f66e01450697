"""The thread map that grid cells and mcd prediction blocks run on, and the
BLAS thread policy that ``import rulkit`` sets."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rulkit
from rulkit.parallel import run_indexed, usable_cpus

# Prints each loaded OpenBLAS's thread count, by file name, before and after
# ``import rulkit``; numpy and scipy load theirs first.
_BLAS_COUNTS = """
import ctypes, json, os
import numpy, scipy.linalg

def counts():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                found[os.path.basename(path)] = getter()
                break
    return found

before = counts()
import rulkit
print(json.dumps([before, counts()]))
"""


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


@pytest.mark.parametrize("pinned", [None, "2"])
def test_import_sets_every_openblas_to_one_thread_unless_the_variable_is_set(pinned):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if pinned is not None:
        env["OPENBLAS_NUM_THREADS"] = pinned
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(rulkit.__file__).parents[1]), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _BLAS_COUNTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, after = json.loads(out)
    if not before:
        pytest.skip("no OpenBLAS with a thread-count symbol is loaded")
    assert after == (before if pinned else dict.fromkeys(before, 1))
