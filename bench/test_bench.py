"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench -q

Every workload runs untraced and traced through ``run.main`` on a tiny fleet
with tiny models. The test checks that each printed metric is declared in
BENCHMARK.json with its unit, and that the written spans nest: self times are
non-negative and no child span outlasts its parent.
"""

import json

import pytest

import run

run.use_checkout_sources()
import workloads  # noqa: E402  (needs the checkout's sources on the path)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _main(capsys, out_root, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY, out_root=out_root) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_declared_with_their_units(capsys, tmp_path, workload, trace):
    result = json.loads(_main(capsys, tmp_path, workload, trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if name.endswith(".self_s"):
            assert m["value"] >= 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(capsys, tmp_path, workload):
    _main(capsys, tmp_path, workload, 1)
    lines = (tmp_path / f"trace-{workload}-s3.jsonl").read_text().splitlines()
    assert "environment" in json.loads(lines[0])
    spans = [json.loads(line) for line in lines[1:]]
    assert spans
    by_pass: dict = {}
    for s in spans:
        by_pass.setdefault(s["pass"], []).append(s)
    for trace in by_pass.values():
        children_s = [0.0] * len(trace)
        for s in trace:
            assert s["end"] >= s["start"]
            if s["parent"] >= 0:
                parent = trace[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
                children_s[s["parent"]] += s["end"] - s["start"]
        for s, inner in zip(trace, children_s):
            assert (s["end"] - s["start"]) - inner >= -1e-9, s


def test_checkout_without_sources_is_refused(tmp_path):
    with pytest.raises(FileNotFoundError):
        run.use_checkout_sources(tmp_path)
