"""Large-n scaling benchmark: rounds/sec across sizes, schedulers, backends.

The paper's Lemma 5 bounds convergence at ``O(m n^2 log n)`` rounds, so
measuring it meaningfully needs sweeps well beyond the n <= 12 bench
workloads.  This suite drives the kernel through the runtime engine
(``throughput`` task) in three tiers, each run once per kernel backend
(``object`` and ``array``) with per-run ``backend`` and ``scheduler``
columns:

* breadth -- three qualitatively different graph families (sparse
  Erdős–Rényi, random geometric, the hub-heavy barbell) at
  n in {16, 32, 64, 128}, synchronous scheduler;
* scaling -- the large-n tier, ``erdos_renyi_sparse`` at
  n in {256, 1024, 4096, 8192}, synchronous scheduler, where the
  vectorized array kernel is expected to pull away from the per-object
  kernel;
* async -- ``erdos_renyi_sparse`` at n in {1024, 4096} under the
  random-async scheduler, exercising the array engine's slot-planned
  batched step path (``repro.sim.array_engine``).

A second test, ``test_construction_scaling``, times *setup* rather than
rounds: graph generation plus network construction for the heavy-tailed
``powerlaw_cm`` family at n in {10_000, 50_000}, in three modes --
``object`` (nx graph -> per-object ``build_mdst_network``), ``array_nx``
(nx graph -> ``ArrayNetwork``, laid out as CSR from the nx edges), and
``csr_direct`` (:class:`~repro.graphs.edge_array.EdgeArrayGraph` ->
``ArrayNetwork`` straight from the cached CSR).  Both array modes build
the per-object maps lazily; they differ in the input the build consumes.
Record mode gates ``csr_direct`` at >= ``CONSTRUCTION_SPEEDUP_TARGET`` x
faster than ``object`` at n=10_000 (both build-only and end-to-end).

Every rate is a *marginal* cost (``_harness.marginal``): each
configuration runs for ``warmup`` and for ``warmup + window`` rounds and
the reported seconds are the difference, median of three trials with the
IQR beside it.  ``stability_window`` is set above the budget so every run
executes *exactly* ``max_rounds`` rounds; the measured window sits in the
early, gossip-dominated regime of the cold start.

Smoke mode runs the n=64 ``SMOKE_COMBOS`` and the csr_direct n=10_000
construction case; record mode runs every tier on both backends, writes
``BENCH_scaling.json`` and asserts the speedup targets below.  Modes and
guard: see ``_harness.py``.

History (record mode):

* pre-dirty-set kernel (PR 2 state): ~26.6 rounds/sec aggregate at n=64
  under the old setup-inclusive accounting; the dirty-set refactor's
  acceptance gate was >= 2x that.
* array-kernel PR: marginal per-round cost at n=256/1024/4096 measured
  at ~37/177/1042 ms (object) vs ~15/49/119 ms (array) on the reference
  machine -- the >= 5x synchronous aggregate gate below.
* array-engine PR (async schedulers + substrate protocols): random-async
  aggregate at n in {1024, 4096} measured ~3.8x object on the reference
  machine -- the >= 3x async aggregate gate below.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from _harness import (HIGHER, LOWER, RECORD, ROOT, check_guard, guard,
                      marginal, rate, run_specs, timed, write_record)
from repro.core.protocol import build_mdst_network
from repro.graphs.fast_generators import make_fast_graph
from repro.runtime.spec import RunSpec
from repro.sim.array_kernel import build_array_mdst_network

OUTPUT_PATH = ROOT / "BENCH_scaling.json"

#: Both kernel backends run every tier; rows carry ``backend`` and
#: ``scheduler`` columns.
BACKENDS: Tuple[str, ...] = ("object", "array")

#: Breadth tier: families x small sizes, one seed, synchronous scheduler,
#: isolated cold start.
FAMILIES: Tuple[str, ...] = ("erdos_renyi_sparse", "random_geometric", "barbell")
BREADTH_SIZES: Tuple[int, ...] = (16, 32, 64, 128)
BREADTH_WARMUP = 3
BREADTH_WINDOW = 60

#: Scaling tier: the large-n workload the array backend exists for.
SCALING_FAMILY = "erdos_renyi_sparse"
SCALING_SIZES: Tuple[int, ...] = (256, 1024, 4096, 8192)
SCALING_WARMUP = 3
SCALING_WINDOW = 10

#: Async tier: the random-async scheduler through the slot-planned array
#: engine.  An async round is n timeout activations plus every delivery,
#: so the window is kept small.
ASYNC_SCHEDULER = "random"
ASYNC_SIZES: Tuple[int, ...] = (1024, 4096)
ASYNC_WARMUP = 2
ASYNC_WINDOW = 6

SEED = 11

#: Smoke workload: small, fast, fixed -- the guard compares like for
#: like.  The (array, random) combination keeps the async planner path on
#: the CI radar.
SMOKE_N = 64
SMOKE_WARMUP = 2
SMOKE_WINDOW = 30
SMOKE_COMBOS: Tuple[Tuple[str, str], ...] = (
    ("object", "synchronous"),
    ("array", "synchronous"),
    ("array", "random"),
)

#: Record-mode acceptance: array-backend aggregate rounds/sec over the
#: synchronous scaling tier must beat the object backend by at least this
#: factor...
ARRAY_SPEEDUP_TARGET = 5.0

#: ...and over the random-async tier by at least this factor.
ASYNC_SPEEDUP_TARGET = 3.0

#: Construction tier: setup seconds (generation + network build) for the
#: heavy-tailed configuration-model family, three build modes per size.
CONSTRUCTION_FAMILY = "powerlaw_cm"
CONSTRUCTION_SIZES: Tuple[int, ...] = (10_000, 50_000)
CONSTRUCTION_MODES: Tuple[str, ...] = ("object", "array_nx", "csr_direct")

#: Record-mode acceptance: at n=10_000 the CSR-direct build must beat the
#: per-object build by at least this factor, both on build seconds alone
#: and end to end (generation + build).
CONSTRUCTION_SPEEDUP_TARGET = 10.0

#: Smoke mode runs only this case, in ``csr_direct`` mode (fast: tens of
#: milliseconds), against the committed guard.
CONSTRUCTION_SMOKE_N = 10_000

#: The smoke workloads, by guard name.
SMOKE_GUARDS = {
    "throughput": {
        "family": SCALING_FAMILY,
        "n": SMOKE_N,
        "warmup": SMOKE_WARMUP,
        "window": SMOKE_WINDOW,
        "combos": [list(combo) for combo in SMOKE_COMBOS],
        "seed": SEED,
        "initial": "isolated",
        "task": "throughput",
        "measurement": "two-budget warm-up subtraction",
    },
    "construction": {
        "family": CONSTRUCTION_FAMILY,
        "sizes": list(CONSTRUCTION_SIZES),
        "modes": list(CONSTRUCTION_MODES),
        "smoke_n": CONSTRUCTION_SMOKE_N,
        "smoke_mode": "csr_direct",
        "seed": SEED,
        "measurement": "wall-clock generation + network build",
    },
}


def _measure(family: str, n: int, backend: str, warmup: int, window: int,
             scheduler: str = "synchronous") -> Dict[str, object]:
    """Marginal cost of ``window`` rounds after a ``warmup``-round prefix."""
    def run(budget: int) -> float:
        # ``stability_window`` above the budget: the run cannot stop early
        # on a transiently legitimate configuration, so the two budgets of
        # a measurement differ by exactly the window.
        [row] = run_specs([RunSpec(
            task="throughput", family=family, n=n, seed=SEED,
            scheduler=scheduler, initial="isolated", max_rounds=budget,
            stability_window=budget + 1, backend=backend)])
        assert row["rounds"] == budget, (
            f"{family} n={n} backend={backend} scheduler={scheduler}: "
            f"expected exactly {budget} rounds, got {row['rounds']}")
        return float(row["seconds"])

    return {"family": family, "n": n, "backend": backend,
            "scheduler": scheduler, **marginal(run, warmup, window)}


def _speedup(rows: List[Dict[str, object]]) -> Tuple[Dict[str, float], float]:
    """Per-backend aggregate rounds/sec and the array/object ratio."""
    agg = {backend: rate([r for r in rows if r["backend"] == backend],
                         "measured_rounds")
           for backend in BACKENDS}
    return agg, round(agg["array"] / agg["object"], 2)


def test_scaling_throughput():
    # The smoke rows run before the heavy tiers: the n=8192 object runs
    # leave the allocator and GC in a state that inflates every later
    # small-n measurement, and the guard must compare against the same
    # fresh-process conditions plain ``pytest`` runs under.
    smoke_rows = [_measure(SCALING_FAMILY, SMOKE_N, backend, SMOKE_WARMUP,
                           SMOKE_WINDOW, scheduler=scheduler)
                  for backend, scheduler in SMOKE_COMBOS]
    values = {f"{r['backend']}/{r['scheduler']}": r["rounds_per_sec"]
              for r in smoke_rows}
    print()
    for row in smoke_rows:
        print(f"scaling throughput (smoke, {row['backend']}/"
              f"{row['scheduler']}): {row['rounds_per_sec']} rounds/sec "
              f"({row['ms_per_round']} ms/round at n={SMOKE_N})")
    if not RECORD:
        check_guard(OUTPUT_PATH, "throughput", SMOKE_GUARDS["throughput"],
                    values, HIGHER)
        return

    breadth = [_measure(family, n, backend, BREADTH_WARMUP, BREADTH_WINDOW)
               for family in FAMILIES for n in BREADTH_SIZES
               for backend in BACKENDS]
    scaling = [_measure(SCALING_FAMILY, n, backend, SCALING_WARMUP,
                        SCALING_WINDOW)
               for n in SCALING_SIZES for backend in BACKENDS]
    async_runs = [_measure(SCALING_FAMILY, n, backend, ASYNC_WARMUP,
                           ASYNC_WINDOW, scheduler=ASYNC_SCHEDULER)
                  for n in ASYNC_SIZES for backend in BACKENDS]

    agg, speedup = _speedup(scaling)
    async_agg, async_speedup = _speedup(async_runs)
    write_record(OUTPUT_PATH, {
        "benchmark": "scaling_throughput",
        "mode": "record",
        "workload": {
            "families": list(FAMILIES),
            "breadth_sizes": list(BREADTH_SIZES),
            "scaling_family": SCALING_FAMILY,
            "scaling_sizes": list(SCALING_SIZES),
            "async_scheduler": ASYNC_SCHEDULER,
            "async_sizes": list(ASYNC_SIZES),
            "backends": list(BACKENDS),
            "seed": SEED,
            "scheduler": "synchronous",
            "initial": "isolated",
            "task": "throughput",
            "measurement": "two-budget warm-up subtraction",
        },
        "breadth_runs": breadth,
        "scaling_runs": scaling,
        "async_runs": async_runs,
        "scaling_aggregate_rounds_per_sec": agg,
        "async_aggregate_rounds_per_sec": async_agg,
        "array_speedup": {
            "aggregate": speedup,
            "target": ARRAY_SPEEDUP_TARGET,
            "note": "aggregate = sum(measured rounds) / sum(median marginal "
                    "seconds) per backend over the scaling tier (n >= "
                    "256, erdos_renyi_sparse, synchronous); compare "
                    "trends, not absolutes, across machines",
        },
        "async_array_speedup": {
            "aggregate": async_speedup,
            "target": ASYNC_SPEEDUP_TARGET,
            "note": "same aggregate over the async tier (n in "
                    f"{list(ASYNC_SIZES)}, erdos_renyi_sparse, "
                    f"{ASYNC_SCHEDULER} scheduler)",
        },
        "smoke_guard": {"throughput": guard(SMOKE_GUARDS["throughput"],
                                            values, HIGHER)},
    })
    print(f"scaling throughput (record): array {agg['array']} vs object "
          f"{agg['object']} rounds/sec aggregate -> {speedup}x; async "
          f"({ASYNC_SCHEDULER}) array {async_agg['array']} vs object "
          f"{async_agg['object']} -> {async_speedup}x "
          f"-> {OUTPUT_PATH.name}")
    for row in scaling + async_runs:
        print(f"  n={row['n']} {row['backend']}/{row['scheduler']}: "
              f"{row['rounds_per_sec']} rounds/sec "
              f"({row['ms_per_round']} ms/round, IQR "
              f"{row['seconds_iqr']} s)")
    assert speedup >= ARRAY_SPEEDUP_TARGET, (
        f"array-backend aggregate {agg['array']} rounds/sec is only "
        f"{speedup}x the object backend ({agg['object']}); the gate is "
        f"{ARRAY_SPEEDUP_TARGET}x over the n >= 256 scaling tier")
    assert async_speedup >= ASYNC_SPEEDUP_TARGET, (
        f"async array-backend aggregate {async_agg['array']} rounds/sec is "
        f"only {async_speedup}x the object backend ({async_agg['object']}); "
        f"the gate is {ASYNC_SPEEDUP_TARGET}x over the async tier")


# ---------------------------------------------------------------------------
# Construction tier: setup seconds, not rounds
# ---------------------------------------------------------------------------

def _construction_measure(n: int, mode: str) -> Dict[str, object]:
    """Generation + build seconds for one (n, mode) configuration.

    Every mode generates through the vectorized edge-array generator so
    the build paths see the *same* graph; ``object`` and ``array_nx``
    additionally pay the nx materialization (charged to generation --
    it is part of producing the input those builds consume).
    """
    def sample() -> Dict[str, float]:
        t0 = time.perf_counter()
        eg = make_fast_graph(CONSTRUCTION_FAMILY, n, seed=SEED)
        graph = eg if mode == "csr_direct" else eg.to_networkx()
        t1 = time.perf_counter()
        if mode == "object":
            network = build_mdst_network(graph)
        else:
            network = build_array_mdst_network(graph, n_upper=n + 1)
        t2 = time.perf_counter()
        assert network.n == n
        return {"generate_seconds": t1 - t0, "build_seconds": t2 - t1,
                "total_seconds": t2 - t0}

    return {"family": CONSTRUCTION_FAMILY, "n": n, "mode": mode,
            **timed(sample)}


def test_construction_scaling():
    smoke_row = _construction_measure(CONSTRUCTION_SMOKE_N, "csr_direct")
    values = {"total_seconds": smoke_row["total_seconds"]}
    print()
    print(f"construction (smoke, csr_direct): n={CONSTRUCTION_SMOKE_N} "
          f"generate {smoke_row['generate_seconds']}s + build "
          f"{smoke_row['build_seconds']}s = {smoke_row['total_seconds']}s")
    if not RECORD:
        check_guard(OUTPUT_PATH, "construction", SMOKE_GUARDS["construction"],
                    values, LOWER)
        return

    rows = [_construction_measure(n, mode)
            for n in CONSTRUCTION_SIZES for mode in CONSTRUCTION_MODES]
    by_key = {(row["n"], row["mode"]): row for row in rows}
    gate_n = 10_000
    obj = by_key[(gate_n, "object")]
    csr = by_key[(gate_n, "csr_direct")]
    build_speedup = round(obj["build_seconds"] / csr["build_seconds"], 2)
    total_speedup = round(obj["total_seconds"] / csr["total_seconds"], 2)
    write_record(OUTPUT_PATH, {
        "construction_runs": rows,
        "construction_speedup": {
            "n": gate_n,
            "build": build_speedup,
            "total": total_speedup,
            "target": CONSTRUCTION_SPEEDUP_TARGET,
            "note": "object build seconds / csr_direct build seconds at "
                    f"n={gate_n} ({CONSTRUCTION_FAMILY}); compare trends, "
                    "not absolutes, across machines",
        },
        "smoke_guard": {"construction": guard(SMOKE_GUARDS["construction"],
                                              values, LOWER)},
    })
    for row in rows:
        print(f"  construction n={row['n']} {row['mode']}: generate "
              f"{row['generate_seconds']}s + build {row['build_seconds']}s "
              f"= {row['total_seconds']}s")
    print(f"construction (record): csr_direct vs object at n={gate_n}: "
          f"{build_speedup}x build, {total_speedup}x total "
          f"-> {OUTPUT_PATH.name}")
    assert build_speedup >= CONSTRUCTION_SPEEDUP_TARGET, (
        f"csr_direct build at n={gate_n} is only {build_speedup}x faster "
        f"than the object build; the gate is "
        f"{CONSTRUCTION_SPEEDUP_TARGET}x")
    assert total_speedup >= CONSTRUCTION_SPEEDUP_TARGET, (
        f"csr_direct end-to-end setup at n={gate_n} is only "
        f"{total_speedup}x faster than the object path; the gate is "
        f"{CONSTRUCTION_SPEEDUP_TARGET}x")
