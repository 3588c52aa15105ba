"""The harness agrees with BENCHMARK.json, and spans turn into the right self times.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_nests_spans_and_runs_hooks():
    tracer = tracing.Tracer()
    seen = []
    inner = tracer.span("exactnum.inner", lambda x: x + 1, lambda args, result: seen.append((args, result)))
    outer = tracer.span("scan.outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert seen == [((3,), 4)]
    (outer_name, o0, o1, o_parent), (inner_name, i0, i1, i_parent) = tracer.spans
    assert (outer_name, o_parent, inner_name, i_parent) == ("scan.outer", -1, "exactnum.inner", 0)
    assert o0 <= i0 <= i1 <= o1


def test_layer_metrics_from_spans():
    spans = [
        ["cli.main", 0, 100, -1],
        ["scan.scan_records", 10, 90, 0],
        ["screen.screen_block", 20, 50, 1],
        ["exactnum.ln_ball", 60, 70, 1],
        ["scan.confirm_exact", 75, 80, 1],
    ]
    m = tracing.layer_metrics(spans, {"screen.flags": 4}, wall_s=125e-9)
    assert set(m) | {"trace.overhead_s"} == {name for name, _unit in tracing.PER_LAYER}
    assert m["cli.s"] == pytest.approx(20e-9)
    assert m["scan.self_s"] == pytest.approx(40e-9)  # 80 - 45 of children, plus confirm_exact
    assert m["screen.s"] == pytest.approx(30e-9)
    assert m["exactnum.ln_s"] == pytest.approx(10e-9)
    assert (m["screen.flags"], m["scan.exact_calls"], m["scan.settled"]) == (4, 1, 3)
    assert m["scan.settled_ratio"] == pytest.approx(0.75)
    # cli.main's own 20 of 100 ns is not covered, nor are the 25 ns outside any span
    assert m["trace.coverage"] == pytest.approx(0.64)


def test_unwrapped_code_lowers_coverage():
    # the same entry call, once with its 60 ns of work in a wrapped layer and
    # once in code that is not wrapped, which counts as the entry's self time
    wrapped = [["construct.certify", 0, 100, -1], ["exactnum.ln_ball", 20, 80, 0]]
    unwrapped = [["construct.certify", 0, 100, -1]]
    assert tracing.layer_metrics(wrapped, {}, wall_s=100e-9)["trace.coverage"] == pytest.approx(0.6)
    assert tracing.layer_metrics(unwrapped, {}, wall_s=100e-9)["trace.coverage"] == 0
