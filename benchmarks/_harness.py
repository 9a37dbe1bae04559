"""The one record/smoke/guard harness of the throughput benchmarks.

``test_bench_kernel_throughput.py``, ``test_bench_scaling.py``,
``test_bench_churn.py``, ``test_bench_adversary.py`` and
``test_bench_protocols.py`` each keep only their workload, its smoke
fingerprint, their own gates and their payload fields; everything they
share lives here.

Two modes, chosen once by :data:`RECORD`:

* smoke (default) -- what plain ``pytest`` and CI run.  Each benchmark
  runs a small fixed workload, asserts its own gates (convergence,
  survival, ...) and compares its timing against the ``smoke_guard``
  section of its committed ``BENCH_*.json`` through :func:`check_guard`:
  a rate more than :data:`GUARD_FACTOR` x below the recorded one, or a
  duration more than :data:`GUARD_FACTOR` x above it, fails.  A record
  that is missing or was made for another smoke workload fails too, so
  a guard can never pass by not running.  Smoke mode never writes.
* record (``REPRO_BENCH_RECORD=1``) -- the full workload, plus a fresh
  smoke measurement stored as the guard; :func:`write_record` merges the
  result into the committed JSON.

Every timing is measured, never clamped: a nonpositive duration, or a
two-budget marginal whose longer run was not slower than its warm-up,
raises :class:`BenchmarkError` instead of becoming a plausible number.
Repeated measurements (:func:`timed`, :func:`marginal`) store the median
of :data:`TRIALS` trials with their interquartile range beside it.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping

import pytest

from repro.runtime.engine import SweepEngine
from repro.runtime.spec import RunSpec

#: Record mode: refresh the committed ``BENCH_*.json`` instead of guarding
#: against it.  The only switch of the harness.
RECORD = os.environ.get("REPRO_BENCH_RECORD", "") == "1"

#: Directory holding the committed ``BENCH_*.json`` records.
ROOT = Path(__file__).resolve().parent.parent

#: Trials behind every :func:`timed` / :func:`marginal` median.
TRIALS = 3

#: Smoke fails only beyond this factor of the committed value (absorbs
#: machine-to-machine variation; a tripwire, not a strict gate).
GUARD_FACTOR = 5.0

HIGHER = "higher"
LOWER = "lower"


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a trustworthy number."""


def run_specs(specs: Iterable[RunSpec]) -> List[Dict[str, object]]:
    """Rows of ``specs`` executed serially through the sweep engine, uncached."""
    engine = SweepEngine(workers=1, cache=None)
    return [outcome.row for outcome in engine.execute(list(specs))]


def _positive(name: str, seconds: float) -> float:
    if not seconds > 0:
        raise BenchmarkError(f"{name} measured {seconds!r} s; a duration "
                             "must be positive")
    return seconds


def rate(rows: List[Mapping[str, object]], rounds_key: str = "rounds") -> float:
    """Aggregate rounds/sec: total ``rounds_key`` over total ``seconds``."""
    seconds = _positive("aggregate", sum(float(row["seconds"]) for row in rows))
    return round(sum(int(row[rounds_key]) for row in rows) / seconds, 2)


def timed(sample: Callable[[], Mapping[str, float]]) -> Dict[str, float]:
    """Median and IQR over :data:`TRIALS` calls of ``sample``.

    ``sample`` returns named durations in seconds; each name maps to its
    median, and ``<name>_iqr`` to the spread between the quartiles (with
    three trials, between the fastest and the slowest).
    """
    trials = [sample() for _ in range(TRIALS)]
    out: Dict[str, float] = {}
    for name in trials[0]:
        values = [_positive(name, trial[name]) for trial in trials]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = round(statistics.median(values), 4)
        out[f"{name}_iqr"] = round(q3 - q1, 4)
    return out


def marginal(run: Callable[[int], float], warmup: int,
             window: int) -> Dict[str, object]:
    """Marginal cost of ``window`` rounds after a ``warmup``-round prefix.

    ``run(budget)`` executes exactly ``budget`` rounds and returns its
    seconds.  Subtracting the warm-up run cancels what both runs share --
    graph and network construction, initial-policy installation, cold
    caches -- so the rate reflects steady per-round cost.
    """
    def sample() -> Dict[str, float]:
        t_warm = _positive(f"{warmup}-round warm-up", run(warmup))
        t_full = run(warmup + window)
        if t_full <= t_warm:
            raise BenchmarkError(
                f"{warmup + window}-round run took {t_full} s, not more than "
                f"its {warmup}-round warm-up ({t_warm} s): the window is "
                "below the timing noise")
        return {"seconds": t_full - t_warm}

    row: Dict[str, object] = {"warmup_rounds": warmup, "measured_rounds": window}
    row.update(timed(sample))
    row["rounds_per_sec"] = rate([row], "measured_rounds")
    row["ms_per_round"] = round(1000.0 * float(row["seconds"]) / window, 3)
    return row


def guard(fingerprint: Mapping[str, object], values: Mapping[str, float],
          better: str) -> Dict[str, object]:
    """One ``smoke_guard`` entry, as record mode stores it."""
    return {"workload": dict(fingerprint), "better": better,
            "guard_factor": GUARD_FACTOR, "values": dict(values)}


def check_guard(path: Path, name: str, fingerprint: Mapping[str, object],
                values: Mapping[str, float], better: str) -> None:
    """Compare smoke ``values`` with the committed guard ``name`` in ``path``.

    ``better`` is :data:`HIGHER` for rates (the recorded value divided by
    :data:`GUARD_FACTOR` is a floor) and :data:`LOWER` for durations (the
    recorded value times the factor is a ceiling).
    """
    rerecord = f"re-record with REPRO_BENCH_RECORD=1 ({path.name})"
    committed = (json.loads(path.read_text()).get("smoke_guard", {})
                 if path.exists() else {})
    entry = committed.get(name)
    if entry is None:
        pytest.fail(f"smoke guard {name!r}: no committed record; {rerecord}")
    if (entry["workload"] != dict(fingerprint) or entry["better"] != better
            or set(entry["values"]) != set(values)):
        pytest.fail(f"smoke guard {name!r}: the committed record was made "
                    f"for another smoke workload; {rerecord}")
    for key, current in values.items():
        recorded = float(entry["values"][key])
        if better == HIGHER:
            word, limit = "floor", recorded / GUARD_FACTOR
            ok = current >= limit
        else:
            word, limit = "ceiling", recorded * GUARD_FACTOR
            ok = current <= limit
        print(f"smoke guard ({name} {key}): current {current}, recorded "
              f"{recorded}, {word} {round(limit, 4)}")
        if not ok:
            pytest.fail(f"smoke guard ({name} {key}): {current} is past the "
                        f"{word} {round(limit, 4)}, {GUARD_FACTOR}x the "
                        f"committed {recorded} in {path.name}")


def write_record(path: Path, updates: Mapping[str, object]) -> None:
    """Merge ``updates`` into the committed record at ``path``.

    Sections other benchmarks in the same file wrote survive, and so do
    their ``smoke_guard`` entries: ``updates["smoke_guard"]`` is merged
    per guard name.  Stamps ``unix_time``.
    """
    data: Dict[str, object] = json.loads(path.read_text()) if path.exists() else {}
    guards = dict(data.get("smoke_guard", {}))
    guards.update(updates.get("smoke_guard", {}))
    data.update(updates)
    data["smoke_guard"] = guards
    data["unix_time"] = int(time.time())
    path.write_text(json.dumps(data, indent=2) + "\n")
