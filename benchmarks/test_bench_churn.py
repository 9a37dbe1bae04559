"""Churn benchmark: recovery and throughput under live topology churn.

The paper's motivating networks (P2P overlays, wireless/sensor deployments)
change topology at runtime, and self-stabilization is exactly the property
that makes that survivable: after any transient disruption -- including
node/edge churn -- the protocol re-converges to a legitimate MDST of the
*mutated* graph.  This suite drives the dynamic-topology subsystem through
the runtime engine (``churn`` task) over three scale-free/ad-hoc graph
families at several churn rates, and reports

* **recovery**: whether every run re-converged after its last topology
  event, and the mean gap (in rounds) between the last applied event and
  the convergence round;
* **throughput**: simulated rounds per wall-clock second on the churned
  workload (the mutation paths are on the kernel's hot structures, so a
  regression here means the incremental invalidation went quadratic).

Smoke mode runs one small rate x n=16 workload; record mode runs the full
rate x family matrix and writes ``BENCH_churn.json``.  Re-convergence is
asserted in both modes.  Modes and guard: see ``_harness.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from _harness import (HIGHER, RECORD, ROOT, check_guard, guard, rate,
                      run_specs, write_record)
from repro.runtime.spec import RunSpec

OUTPUT_PATH = ROOT / "BENCH_churn.json"

#: The churn workload: families x churn rates, one seed, synchronous
#: scheduler, isolated cold start.  Every spec schedules CHURN_EVENTS
#: topology events starting after round CHURN_START, one every
#: ``round(1/rate)`` rounds; the round budget leaves room to re-converge
#: after the last event even at the slowest rate.
FAMILIES: Tuple[str, ...] = ("erdos_renyi_sparse", "random_geometric",
                             "barabasi_albert")
CHURN_RATES: Tuple[float, ...] = (0.02, 0.05, 0.1)
N = 32
CHURN_EVENTS = 8
CHURN_START = 40
MAX_ROUNDS = 3000
SEED = 11

#: Smoke workload: small, fast, fixed -- the guard compares like for like.
SMOKE_N = 16
SMOKE_RATE = 0.05
SMOKE_EVENTS = 3
SMOKE_MAX_ROUNDS = 2000


def _workload_fingerprint(n: int, rates: Tuple[float, ...], events: int,
                          max_rounds: int) -> Dict[str, object]:
    return {
        "families": list(FAMILIES),
        "n": n,
        "churn_rates": list(rates),
        "churn_events": events,
        "churn_start": CHURN_START,
        "max_rounds": max_rounds,
        "seed": SEED,
        "scheduler": "synchronous",
        "initial": "isolated",
        "task": "churn",
    }


SMOKE_GUARDS = {"churn": _workload_fingerprint(
    SMOKE_N, (SMOKE_RATE,), SMOKE_EVENTS, SMOKE_MAX_ROUNDS)}


def _checked_rows(n: int, rates: Tuple[float, ...], events: int,
                  max_rounds: int) -> List[Dict[str, object]]:
    """Run the workload and assert every run re-converged after its churn."""
    rows = run_specs(
        RunSpec(task="churn", family=family, n=n, seed=SEED,
                scheduler="synchronous", initial="isolated",
                max_rounds=max_rounds, churn_rate=churn_rate,
                churn_start=CHURN_START, churn_events=events)
        for family in FAMILIES for churn_rate in rates)
    for row in rows:
        assert row["converged"], (
            f"{row['family']} at rate {row['churn_rate']} failed to "
            f"re-converge ({row['churn_applied']} events applied)")
        assert row["churn_applied"] + row["churn_skipped"] == events
    return rows


def _mean_recovery(rows: List[Dict[str, object]]) -> Optional[float]:
    """Mean rounds from the last applied event to convergence (None: no gap)."""
    gaps = [int(row["recovery_rounds"]) for row in rows
            if row.get("recovery_rounds") is not None]
    return round(sum(gaps) / len(gaps), 1) if gaps else None


def test_churn_recovery_throughput():
    smoke_rows = _checked_rows(SMOKE_N, (SMOKE_RATE,), SMOKE_EVENTS,
                               SMOKE_MAX_ROUNDS)
    values = {"rounds_per_sec": rate(smoke_rows)}
    print()
    print(f"churn throughput (smoke): {values['rounds_per_sec']} rounds/sec "
          f"over {len(smoke_rows)} instances (n={SMOKE_N}, rate={SMOKE_RATE}), "
          f"mean recovery {_mean_recovery(smoke_rows)} rounds")
    if not RECORD:
        check_guard(OUTPUT_PATH, "churn", SMOKE_GUARDS["churn"], values, HIGHER)
        return

    rows = _checked_rows(N, CHURN_RATES, CHURN_EVENTS, MAX_ROUNDS)
    by_rate = {r: [row for row in rows if row["churn_rate"] == r]
               for r in CHURN_RATES}
    write_record(OUTPUT_PATH, {
        "benchmark": "churn_recovery_throughput",
        "mode": "record",
        "workload": _workload_fingerprint(N, CHURN_RATES, CHURN_EVENTS,
                                          MAX_ROUNDS),
        "runs": rows,
        "rounds_per_sec_by_rate": {str(r): rate(by_rate[r])
                                   for r in CHURN_RATES},
        "rounds_per_sec": rate(rows),
        "mean_recovery_rounds_by_rate": {str(r): _mean_recovery(by_rate[r])
                                         for r in CHURN_RATES},
        "all_reconverged": True,
        "smoke_guard": {"churn": guard(SMOKE_GUARDS["churn"], values, HIGHER)},
    })
    print(f"churn throughput (record): {rate(rows)} rounds/sec "
          f"aggregate -> {OUTPUT_PATH.name}")
    for r in CHURN_RATES:
        print(f"  rate={r}: {rate(by_rate[r])} rounds/sec, "
              f"mean recovery {_mean_recovery(by_rate[r])} rounds")
