"""Cross-protocol benchmark: every registry entry through the one engine.

The unified protocol registry's payoff is that one runtime stack drives
every protocol; this suite proves it *stays* true by sweeping the three
registered protocols (``mdst``, ``spanning_tree``, ``pif_max_degree``)
across two graph families through the ``throughput`` task, and reports

* **coverage**: every registry entry executes on the same kernel, same
  scheduler, same workload instances -- a new protocol that breaks the
  generic runner fails here before anything else;
* **throughput**: simulated rounds per wall-clock second per protocol (the
  substrate protocols are far lighter than full MDST, so their columns
  double as a ceiling on what the kernel itself can deliver).

Smoke mode runs the three protocols on one small family; record mode runs
the full protocol x family matrix at n=32 and writes
``BENCH_protocols.json``.  Substrate-protocol convergence is asserted in
both modes (they stabilize in O(n) rounds; full MDST runs against the
round budget and reports convergence as data).  Modes and guard: see
``_harness.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from _harness import (HIGHER, RECORD, ROOT, check_guard, guard, rate,
                      run_specs, write_record)
from repro.runtime.spec import RunSpec

OUTPUT_PATH = ROOT / "BENCH_protocols.json"

#: The recorded workload: every registered protocol x two graph families,
#: one seed, synchronous scheduler, isolated cold start.
PROTOCOLS_SWEPT: Tuple[str, ...] = ("mdst", "spanning_tree", "pif_max_degree")
FAMILIES: Tuple[str, ...] = ("erdos_renyi_sparse", "random_geometric")
N = 32
MAX_ROUNDS = 400
SEED = 11

#: Substrate protocols must converge inside the budget in every mode; the
#: full MDST protocol at n=32 legitimately runs out the budget.
MUST_CONVERGE: Tuple[str, ...] = ("spanning_tree", "pif_max_degree")

#: Smoke workload: small, fast, fixed -- the guard compares like for like.
SMOKE_N = 16
SMOKE_FAMILIES: Tuple[str, ...] = ("erdos_renyi_sparse",)
SMOKE_MAX_ROUNDS = 240


def _workload_fingerprint(n: int, families: Tuple[str, ...],
                          max_rounds: int) -> Dict[str, object]:
    return {
        "protocols": list(PROTOCOLS_SWEPT),
        "families": list(families),
        "n": n,
        "max_rounds": max_rounds,
        "seed": SEED,
        "scheduler": "synchronous",
        "initial": "isolated",
        "task": "throughput",
    }


SMOKE_GUARDS = {"protocols": _workload_fingerprint(
    SMOKE_N, SMOKE_FAMILIES, SMOKE_MAX_ROUNDS)}


def _protocol_of(row: Dict[str, object]) -> str:
    # default-protocol rows keep their historical shape (no key)
    return str(row.get("protocol", "mdst"))


def _checked_rows(n: int, families: Tuple[str, ...],
                  max_rounds: int) -> List[Dict[str, object]]:
    """Run the workload; assert coverage and substrate convergence."""
    rows = run_specs(RunSpec(task="throughput", protocol=protocol,
                             family=family, n=n, seed=SEED,
                             scheduler="synchronous", initial="isolated",
                             max_rounds=max_rounds)
                     for family in families for protocol in PROTOCOLS_SWEPT)
    assert {_protocol_of(r) for r in rows} == set(PROTOCOLS_SWEPT)
    for row in rows:
        if _protocol_of(row) in MUST_CONVERGE:
            assert row["converged"], (
                f"{_protocol_of(row)} failed to converge on {row['family']} "
                f"(n={row['n']}, budget {row['max_rounds']} rounds)")
    return rows


def test_cross_protocol_throughput():
    smoke_rows = _checked_rows(SMOKE_N, SMOKE_FAMILIES, SMOKE_MAX_ROUNDS)
    values = {"rounds_per_sec": rate(smoke_rows)}
    print()
    print(f"cross-protocol throughput (smoke): {values['rounds_per_sec']} "
          f"rounds/sec over {len(smoke_rows)} instances (n={SMOKE_N})")
    for row in smoke_rows:
        print(f"  {_protocol_of(row):<15} {row['family']}: "
              f"{row['rounds_per_sec']} rounds/sec, "
              f"converged={row['converged']}")
    if not RECORD:
        check_guard(OUTPUT_PATH, "protocols", SMOKE_GUARDS["protocols"],
                    values, HIGHER)
        return

    rows = _checked_rows(N, FAMILIES, MAX_ROUNDS)
    by_protocol = {
        protocol: rate([r for r in rows if _protocol_of(r) == protocol])
        for protocol in PROTOCOLS_SWEPT}
    write_record(OUTPUT_PATH, {
        "benchmark": "cross_protocol_throughput",
        "mode": "record",
        "workload": _workload_fingerprint(N, FAMILIES, MAX_ROUNDS),
        "runs": rows,
        "rounds_per_sec_by_protocol": by_protocol,
        "rounds_per_sec": rate(rows),
        "substrate_protocols_converged": True,
        "smoke_guard": {"protocols": guard(SMOKE_GUARDS["protocols"], values,
                                           HIGHER)},
    })
    print(f"cross-protocol throughput (record): {rate(rows)} "
          f"rounds/sec aggregate -> {OUTPUT_PATH.name}")
    for protocol in PROTOCOLS_SWEPT:
        print(f"  {protocol:<15} {by_protocol[protocol]} rounds/sec")
