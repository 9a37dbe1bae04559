"""Tests of the time-to-legitimacy benchmark (``perfbench/run.py``).

They drive the benchmark's own functions on tiny workloads, so they stay
fast: metric names and counts, the nonpositive-timing guard, a budget too
small to converge, and the traced composition reproducing ``run_protocol``.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads(bench.SPEC_FILE.read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "mdst_sync": bench.Workload(
        protocol="mdst", scheduler="synchronous", initial="isolated",
        backend="object", instances=(bench.Instance("wheel", 8, 1),
                                     bench.Instance("erdos_renyi_sparse", 8, 2))),
    "mdst_async_array": bench.Workload(
        protocol="mdst", scheduler="random", initial="corrupted",
        backend="array", instances=(bench.Instance("erdos_renyi_sparse", 8, 3),)),
    "pif_array": bench.Workload(
        protocol="pif_max_degree", scheduler="synchronous", initial="isolated",
        backend="array", instances=(bench.Instance("powerlaw_cm", 64, 1),)),
}


def _run(workload, trace, **kwargs):
    return bench.run_benchmark(workload, seed=7, seconds=0.0, trace=trace,
                               setup_reps=1, min_passes=1, **kwargs)


def test_metric_names_and_counts():
    end_to_end, per_layer = SPEC["end_to_end"], SPEC["per_layer"]
    names = [m["name"] for m in end_to_end + per_layer]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert {"time_to_legit_norm_s", "setup_s"} <= {m["name"] for m in end_to_end}
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    assert max(m["bound"] for m in end_to_end) == next(
        m["bound"] for m in end_to_end if m["name"] == "setup_s")
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("value", [0.0, -1e-9, -3.0, math.nan, math.inf, -math.inf])
def test_nonpositive_timing_fails_hard(value):
    with pytest.raises(bench.BenchmarkError):
        bench.positive("t", value)


def test_layer_split_refuses_a_zero_span():
    spans = bench.Spans()
    for name in ("graphs.generate_s", "protocols.build_s", "protocols.init_s",
                 "sim.round_s", "sim.monitor.key_s", "sim.monitor.eval_s",
                 "sim.enabled_events_s"):
        spans.samples[name] = [0.001]
    spans.samples["protocols.init_s"] = [0.0]
    with pytest.raises(bench.BenchmarkError, match="protocols.init_s"):
        bench.layer_split(spans, 1.0, [])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_reported_and_outputs_verified(name):
    values = {}
    for trace in (False, True):
        outcome = _run(TINY[name], trace)
        assert outcome["correct"] and outcome["failed"] == 0
        metrics = bench.metrics_block(SPEC, outcome["values"], trace)
        listed = SPEC["per_layer" if trace else "end_to_end"]
        assert list(metrics) == [m["name"] for m in listed]
        values.update(outcome["values"])
    assert values["legit_frac"] == 1.0
    assert values["rounds_to_legit"] > 0 and values["messages_to_legit"] > 0
    assert values["trace.wall_s"] > values["sim.round_s"]


def test_calibration_brackets_every_instance(monkeypatch):
    ticks = iter([0.15, 0.45, 0.15])
    monkeypatch.setattr(bench, "calibration_seconds", lambda: next(ticks))
    workload = TINY["mdst_sync"]
    assert bench.untraced_pass(workload, workload.instances,
                               calibrate=True).calibrations == (0.15, 0.45, 0.15)
    assert bench.untraced_pass(workload, workload.instances).calibrations == ()


def test_normalised_seconds():
    # Calibrations averaging half the reference time double the wall.
    half = 0.5 * bench.CALIB_REF_S
    assert bench.normalised_seconds(3.0, [0.5 * half, 1.5 * half, half]) \
        == pytest.approx(6.0)
    assert 0.0 < bench.calibration_seconds() < 60.0


def test_too_small_budget_counts_failures():
    starved = bench.Workload(protocol="mdst", scheduler="synchronous",
                             initial="isolated", backend="object",
                             instances=(bench.Instance("erdos_renyi_sparse", 12, 1),),
                             max_rounds=3)
    lines = []
    outcome = _run(starved, False, log=lines.append)
    assert not outcome["correct"]
    assert outcome["attempted"] == 2 and outcome["failed"] == 2
    assert outcome["values"]["legit_frac"] == 0.0
    assert any("not confirmed legitimate" in line for line in lines)


def test_spanning_tree_check():
    import networkx as nx
    cycle, complete = nx.cycle_graph(4), nx.complete_graph(4)
    assert bench.spanning_tree_problem(cycle, {(0, 1), (1, 2), (2, 3)}) is None
    assert "not a graph edge" in bench.spanning_tree_problem(cycle, {(0, 1), (1, 2), (1, 3)})
    assert "closes a cycle" in bench.spanning_tree_problem(complete, {(0, 1), (1, 2), (0, 2)})
    assert "tree edges" in bench.spanning_tree_problem(cycle, {(0, 1)})
