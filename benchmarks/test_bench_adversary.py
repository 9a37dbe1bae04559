"""Adversary benchmark: recovery and survival under channel/node adversaries.

Self-stabilization promises recovery from *any* transient disruption, not
just the worst-case initial configuration the experiments start from.  This
suite drives every registered protocol through the runtime engine
(``adversary`` task) against the adversary roster -- message loss,
duplication, reordering, crash-recover node faults and bounded Byzantine
windows -- at two intensities each, and reports per protocol x model x
intensity:

* **survival verdict**: whether the run re-converged within the budget
  (``recovered`` / ``not_recovered``).  Permanent faults are *expected* to
  defeat protocols whose legitimacy predicate judges the whole
  configuration; such combinations are listed in
  ``EXPECTED_NOT_RECOVERED`` and anything else failing is a regression.
* **recovery rounds**: the gap between the last scheduled adversary event
  and the convergence round (``None`` for continuous channel noise, which
  schedules no events).
* **throughput**: simulated rounds per wall-clock second (the channel-model
  hook sits on the send hot path, so a regression here means the
  reliable-FIFO fast path got slower).

Smoke mode runs every protocol against low-intensity loss; record mode
runs the full protocol x model x intensity matrix and writes
``BENCH_adversary.json``.  Survival is asserted in both modes.  Modes and
guard: see ``_harness.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from _harness import (HIGHER, RECORD, ROOT, check_guard, guard, rate,
                      run_specs, write_record)
from repro.runtime.spec import RunSpec

OUTPUT_PATH = ROOT / "BENCH_adversary.json"

PROTOCOLS: Tuple[str, ...] = ("mdst", "spanning_tree", "pif_max_degree")
FAMILY = "erdos_renyi_sparse"
N = 16
SEED = 11
MAX_ROUNDS = 3000

#: model name -> intensity -> RunSpec field overrides.
MODELS: Dict[str, Dict[str, Dict[str, object]]] = {
    "loss": {"low": {"loss_rate": 0.05}, "high": {"loss_rate": 0.15}},
    "dup": {"low": {"dup_rate": 0.05}, "high": {"dup_rate": 0.15}},
    "reorder": {"low": {"reorder_rate": 0.1}, "high": {"reorder_rate": 0.3}},
    "crash_recover": {
        "low": {"crash_count": 1, "crash_round": 10, "crash_recover": 5},
        "high": {"crash_count": 2, "crash_round": 10, "crash_recover": 5},
    },
    "crash_stop": {
        "low": {"crash_count": 1, "crash_round": 10},
        "high": {"crash_count": 2, "crash_round": 10},
    },
    "byzantine": {
        "low": {"byzantine_count": 1, "byzantine_start": 5,
                "byzantine_rounds": 5},
        "high": {"byzantine_count": 2, "byzantine_start": 5,
                 "byzantine_rounds": 10},
    },
}

#: ``(protocol, model)`` combinations that by design never re-converge at
#: any intensity: crash-stop is a *permanent* fault, and the MDST
#: legitimacy predicate can never accept the victim's frozen state (see
#: tests/test_adversary_survival.py).  Every other non-recovery is a
#: regression and fails record mode.
EXPECTED_NOT_RECOVERED = {("mdst", "crash_stop")}

#: Smoke workload: every protocol against low-intensity loss.
SMOKE_MODEL = "loss"
SMOKE_INTENSITY = "low"
SMOKE_MAX_ROUNDS = 2000
SMOKE_MATRIX: Dict[str, Tuple[str, ...]] = {SMOKE_MODEL: (SMOKE_INTENSITY,)}


def _workload_fingerprint(protocols: Tuple[str, ...],
                          matrix: Dict[str, Tuple[str, ...]],
                          max_rounds: int) -> Dict[str, object]:
    return {
        "task": "adversary",
        "protocols": list(protocols),
        "models": {name: list(levels) for name, levels in matrix.items()},
        "family": FAMILY,
        "n": N,
        "seed": SEED,
        "max_rounds": max_rounds,
        "scheduler": "synchronous",
        "initial": "isolated",
    }


SMOKE_GUARDS = {"adversary": _workload_fingerprint(
    PROTOCOLS, SMOKE_MATRIX, SMOKE_MAX_ROUNDS)}


def _specs(protocols: Tuple[str, ...], matrix: Dict[str, Tuple[str, ...]],
           max_rounds: int) -> List[Tuple[str, str, str, RunSpec]]:
    out = []
    for protocol in protocols:
        for model, levels in matrix.items():
            for level in levels:
                spec = RunSpec(task="adversary", protocol=protocol,
                               family=FAMILY, n=N, seed=SEED,
                               scheduler="synchronous", initial="isolated",
                               max_rounds=max_rounds,
                               **MODELS[model][level])
                out.append((protocol, model, level, spec))
    return out


def _checked_rows(protocols: Tuple[str, ...],
                  matrix: Dict[str, Tuple[str, ...]],
                  max_rounds: int) -> List[Dict[str, object]]:
    labelled = _specs(protocols, matrix, max_rounds)
    rows = run_specs(spec for *_, spec in labelled)
    for (protocol, model, level, _), row in zip(labelled, rows):
        # mdst rows omit the protocol column
        row.update(protocol=protocol, model=model, intensity=level)
    _check_survival(rows)
    return rows


def _verdict_matrix(rows: List[Dict[str, object]]) -> Dict[str, Dict[str, str]]:
    matrix: Dict[str, Dict[str, str]] = {}
    for row in rows:
        key = f"{row['model']}:{row['intensity']}"
        matrix.setdefault(str(row["protocol"]), {})[key] = str(row["verdict"])
    return matrix


def _check_survival(rows: List[Dict[str, object]]) -> None:
    for row in rows:
        combo = (str(row["protocol"]), str(row["model"]))
        if combo in EXPECTED_NOT_RECOVERED:
            assert row["verdict"] == "not_recovered", (
                f"{combo} at {row['intensity']} unexpectedly recovered; "
                "update EXPECTED_NOT_RECOVERED")
        else:
            assert row["verdict"] == "recovered", (
                f"{row['protocol']} did not survive {row['model']} at "
                f"{row['intensity']} intensity ({row['rounds']} rounds)")


def test_adversary_recovery_survival():
    smoke_rows = _checked_rows(PROTOCOLS, SMOKE_MATRIX, SMOKE_MAX_ROUNDS)
    values = {"rounds_per_sec": rate(smoke_rows)}
    print()
    print(f"adversary throughput (smoke): {values['rounds_per_sec']} "
          f"rounds/sec over {len(smoke_rows)} instances "
          f"({SMOKE_MODEL}:{SMOKE_INTENSITY}, n={N})")
    if not RECORD:
        check_guard(OUTPUT_PATH, "adversary", SMOKE_GUARDS["adversary"],
                    values, HIGHER)
        return

    full_matrix = {name: tuple(levels) for name, levels in MODELS.items()}
    rows = _checked_rows(PROTOCOLS, full_matrix, MAX_ROUNDS)
    write_record(OUTPUT_PATH, {
        "benchmark": "adversary_recovery_survival",
        "mode": "record",
        "workload": _workload_fingerprint(PROTOCOLS, full_matrix, MAX_ROUNDS),
        "runs": rows,
        "verdicts": _verdict_matrix(rows),
        "expected_not_recovered": sorted(map(list, EXPECTED_NOT_RECOVERED)),
        "rounds_per_sec": rate(rows),
        "smoke_guard": {"adversary": guard(SMOKE_GUARDS["adversary"], values,
                                           HIGHER)},
    })
    print(f"adversary throughput (record): {rate(rows)} rounds/sec "
          f"aggregate -> {OUTPUT_PATH.name}")
    for protocol, verdicts in _verdict_matrix(rows).items():
        print(f"  {protocol}: {verdicts}")
