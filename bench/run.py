"""Run one rulkit benchmark workload and print its metrics.

    python3 bench/run.py --workload fit --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: rulkit is imported from ``src/``
there and nowhere else. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics and writes the spans to ``.bench_run/trace-<workload>-s<seed>.jsonl``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS threads are pinned so repeats are byte-identical and timings do not
# depend on how many cores the scheduler happens to grant.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_sources(root: Path = ROOT):
    """Import rulkit from ``root/src``; raise if the checkout has no sources."""
    src = root / "src"
    if not (src / "rulkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rulkit sources under {src}")
    sys.path.insert(0, str(src))
    import rulkit

    if Path(rulkit.__file__).resolve().parent != (src / "rulkit").resolve():
        raise ImportError(f"rulkit was imported from {rulkit.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fit", "score", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None, out_root: Path = ROOT / ".bench_run") -> int:
    """Run the workload ``argv`` names; ``sizes`` defaults to the full benchmark."""
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    try:
        use_checkout_sources()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads  # imports numpy, so only after the thread pinning

    env = workloads.environment(ROOT)
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    work_dir = out_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                work_dir, sizes or workloads.FULL)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        trace_path = out_root / f"trace-{args.workload}-s{args.seed}.jsonl"
        workloads.write_trace(trace_path, env, outcome)
        print(f"spans written to {trace_path}")
    for name, m in outcome.metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
