"""Kernel throughput benchmark: simulated rounds per second on an E2-style
workload.

This is the repository's perf-trajectory anchor for the simulation kernel:
it drives the same fixed workload as experiment E2 (the Lemma 5 convergence
sweep) through the ``throughput`` task and reports how many simulated
rounds per wall-clock second the kernel sustains, every run required to
converge.  Smoke mode runs n=8 only; record mode (n in {8, 12}) writes
``BENCH_kernel.json``.  Modes and guard: see ``_harness.py``.

History (record mode, this workload):

* pre-kernel-refactor baseline: ~180 rounds/sec
* activity-aware kernel (incremental convergence detection, cached
  snapshots/verdicts, memoized message sizing): ~390-520 rounds/sec
  (>= 2x across repeated measurements)
* dirty-set incremental snapshots + slotted hot-path state + interned
  gossip payloads (see docs/performance.md): ~700 rounds/sec

These figures timed graph generation too, so the record no longer carries
them; the rate now times the simulation only, like every other
throughput benchmark.
The absolute numbers are machine-dependent; the JSON records the workload
fingerprint so only like-for-like runs should be compared.
"""

from __future__ import annotations

from typing import Dict, List

from _harness import (HIGHER, RECORD, ROOT, check_guard, guard, rate,
                      run_specs, write_record)
from repro.experiments.config import ExperimentProfile
from repro.experiments.workloads import scaling_workload
from repro.runtime.spec import RunSpec

OUTPUT_PATH = ROOT / "BENCH_kernel.json"

RECORD_PROFILE = ExperimentProfile(
    name="kernel-bench", protocol_sizes=(8, 12), reference_sizes=(16,),
    exact_sizes=(6,), repetitions=1, max_rounds=3000, seeds=(11,))
SMOKE_PROFILE = ExperimentProfile(
    name="kernel-smoke", protocol_sizes=(8,), reference_sizes=(16,),
    exact_sizes=(6,), repetitions=1, max_rounds=1500, seeds=(11,))


def _fingerprint(profile: ExperimentProfile) -> Dict[str, object]:
    return {
        "style": "E2 (Lemma 5 convergence sweep)",
        "profile": profile.name,
        "protocol_sizes": list(profile.protocol_sizes),
        "seeds": list(profile.seeds),
        "max_rounds": profile.max_rounds,
        "scheduler": "synchronous",
        "initial": "isolated",
        "task": "throughput",
    }


SMOKE_GUARDS = {"kernel": _fingerprint(SMOKE_PROFILE)}


def _checked_rows(profile: ExperimentProfile) -> List[Dict[str, object]]:
    rows = run_specs(RunSpec(task="throughput", family=inst.family, n=inst.n,
                             seed=inst.seed, initial="isolated",
                             max_rounds=profile.max_rounds)
                     for inst in scaling_workload(profile))
    for row in rows:
        assert row["converged"], f"{row['family']} n={row['n']} did not converge"
    return rows


def test_kernel_throughput():
    smoke_rate = rate(_checked_rows(SMOKE_PROFILE))
    print()
    print(f"kernel throughput (smoke): {smoke_rate} rounds/sec")
    values = {"rounds_per_sec": smoke_rate}
    if not RECORD:
        check_guard(OUTPUT_PATH, "kernel", SMOKE_GUARDS["kernel"], values, HIGHER)
        return

    rows = _checked_rows(RECORD_PROFILE)
    write_record(OUTPUT_PATH, {
        "benchmark": "kernel_throughput",
        "mode": "record",
        "workload": _fingerprint(RECORD_PROFILE),
        "rounds": sum(int(row["rounds"]) for row in rows),
        "seconds": round(sum(float(row["seconds"]) for row in rows), 4),
        "rounds_per_sec": rate(rows),
        "runs": rows,
        "smoke_guard": {"kernel": guard(SMOKE_GUARDS["kernel"], values, HIGHER)},
    })
    print(f"kernel throughput (record): {rate(rows)} rounds/sec -> "
          f"{OUTPUT_PATH.name}")
