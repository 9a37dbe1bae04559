"""The benchmark harness fails on broken timings and unmatched records.

Stub timers only -- nothing here runs a simulation -- plus a check that
every committed ``BENCH_*.json`` carries a smoke guard for the smoke
workload its benchmark runs today.
"""

from __future__ import annotations

import importlib
import json

import pytest

import _harness
from _harness import (HIGHER, LOWER, BenchmarkError, check_guard, guard,
                      marginal, rate, timed, write_record)

FINGERPRINT = {"task": "stub", "n": 8}


def test_marginal_median_and_iqr():
    # warm-up 0.1 s every trial; full runs 0.4, 0.6, 0.5 s -> 0.3, 0.5, 0.4
    full = iter([0.4, 0.6, 0.5])
    row = marginal(lambda budget: 0.1 if budget == 2 else next(full),
                   warmup=2, window=4)
    assert row["seconds"] == 0.4
    assert row["seconds_iqr"] == 0.2
    assert row["rounds_per_sec"] == 10.0
    assert row["ms_per_round"] == 100.0


@pytest.mark.parametrize("t_full", [0.2, 0.1])
def test_marginal_raises_when_full_run_is_not_slower(t_full):
    with pytest.raises(BenchmarkError, match="not more than"):
        marginal({2: 0.2, 6: t_full}.get, warmup=2, window=4)


def test_timed_raises_on_nonpositive_duration():
    with pytest.raises(BenchmarkError):
        timed(lambda: {"build_seconds": 0.0})


@pytest.mark.parametrize("seconds", [0.0, -1.0])
def test_rate_raises_on_nonpositive_seconds(seconds):
    with pytest.raises(BenchmarkError):
        rate([{"rounds": 10, "seconds": seconds}])


def test_rate_sums_rounds_over_seconds():
    assert rate([{"rounds": 10, "seconds": 1.0},
                 {"rounds": 30, "seconds": 1.0}]) == 20.0


def _record(tmp_path, name, values, better):
    path = tmp_path / "BENCH_stub.json"
    write_record(path, {"smoke_guard": {name: guard(FINGERPRINT, values,
                                                    better)}})
    return path


def test_guard_floor_for_rates(tmp_path):
    path = _record(tmp_path, "stub", {"rounds_per_sec": 100.0}, HIGHER)
    check_guard(path, "stub", FINGERPRINT, {"rounds_per_sec": 20.0}, HIGHER)
    with pytest.raises(pytest.fail.Exception, match="floor"):
        check_guard(path, "stub", FINGERPRINT, {"rounds_per_sec": 19.9},
                    HIGHER)


def test_guard_ceiling_for_seconds(tmp_path):
    path = _record(tmp_path, "stub", {"total_seconds": 0.1}, LOWER)
    check_guard(path, "stub", FINGERPRINT, {"total_seconds": 0.5}, LOWER)
    with pytest.raises(pytest.fail.Exception, match="ceiling"):
        check_guard(path, "stub", FINGERPRINT, {"total_seconds": 0.51}, LOWER)


def test_guard_fails_on_missing_record(tmp_path):
    with pytest.raises(pytest.fail.Exception, match="REPRO_BENCH_RECORD=1"):
        check_guard(tmp_path / "BENCH_none.json", "stub", FINGERPRINT,
                    {"rounds_per_sec": 1.0}, HIGHER)
    path = _record(tmp_path, "other", {"rounds_per_sec": 1.0}, HIGHER)
    with pytest.raises(pytest.fail.Exception, match="REPRO_BENCH_RECORD=1"):
        check_guard(path, "stub", FINGERPRINT, {"rounds_per_sec": 1.0},
                    HIGHER)


@pytest.mark.parametrize("fingerprint, values", [
    ({"task": "stub", "n": 16}, {"rounds_per_sec": 1.0}),
    (FINGERPRINT, {"other/combo": 1.0}),
])
def test_guard_fails_on_mismatched_record(tmp_path, fingerprint, values):
    path = _record(tmp_path, "stub", {"rounds_per_sec": 1.0}, HIGHER)
    with pytest.raises(pytest.fail.Exception, match="REPRO_BENCH_RECORD=1"):
        check_guard(path, "stub", fingerprint, values, HIGHER)


def test_write_record_merges_sections_and_guards(tmp_path):
    path = _record(tmp_path, "first", {"rounds_per_sec": 1.0}, HIGHER)
    write_record(path, {"runs": [1], "smoke_guard": {
        "second": guard(FINGERPRINT, {"total_seconds": 1.0}, LOWER)}})
    data = json.loads(path.read_text())
    assert set(data["smoke_guard"]) == {"first", "second"}
    assert data["runs"] == [1] and "unix_time" in data


@pytest.mark.parametrize("module", [
    "test_bench_kernel_throughput", "test_bench_scaling", "test_bench_churn",
    "test_bench_adversary", "test_bench_protocols"])
def test_committed_records_guard_the_current_smoke_workload(module):
    bench = importlib.import_module(module)
    guards = json.loads(bench.OUTPUT_PATH.read_text()).get("smoke_guard", {})
    for name, fingerprint in bench.SMOKE_GUARDS.items():
        entry = guards.get(name, {})
        assert entry.get("workload") == fingerprint, (
            f"{bench.OUTPUT_PATH.name} has no guard {name!r} for the current "
            "smoke workload; re-record with REPRO_BENCH_RECORD=1")
        assert entry["guard_factor"] == _harness.GUARD_FACTOR
