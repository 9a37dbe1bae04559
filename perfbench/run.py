"""Time-to-legitimacy benchmark: ``make_graph`` -> ``run_protocol`` until the
monitor confirms a legitimate configuration, with every output verified.

Run from the repository root::

    python3 perfbench/run.py --workload mdst_sync_object --seed 1 --seconds 10 --trace 0

One process, one client, one instance at a time (a closed loop).  A run

1. times the cold import of the library in fresh interpreters and the
   set-up chain (``make_graph``, network build, initial configuration);
2. runs one *check pass* over the workload's instance list through
   ``run_protocol`` with a post-convergence closure window, and verifies
   every output (converged, spanning tree of the generated graph, degree
   within Delta*+1 for MDST, zero closure violations);
3. repeats timed passes over the instance list until ``--seconds`` have
   elapsed (at least ``MIN_PASSES``) and reports the median pass.

On a VM shared with other tenants the host's speed can drift by a third
over minutes, so a fixed calibration loop runs before, between and after
the timed instances of every pass, and ``time_to_legit_norm_s`` is the
median pass rescaled by its own calibrations (see ``calibration_seconds``
and ``normalised_seconds``).

With ``--trace 1`` the timed passes alternate between plain
``run_protocol`` calls and a *traced* composition of the same public calls,
wrapped with timers at each layer boundary; the traced run must reproduce
the untraced run's rounds, messages and per-type deliveries exactly.

The metric names, units and bounds live in ``BENCHMARK.json``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"

#: Post-convergence rounds simulated by the check pass to witness closure.
CLOSURE_WINDOW = 5
#: Timed passes made even when ``--seconds`` runs out earlier.
MIN_PASSES = 2
#: Fresh-interpreter imports (and set-up chains) behind ``setup_s``.
SETUP_REPS = 5
#: Round budget of every instance.
MAX_ROUNDS = 5000
#: Scale of the normalised times: wall seconds on a host where
#: ``calibration_seconds`` takes this long.  On the reference host (2-vCPU
#: Intel Xeon VM at 2.1 GHz, Python 3.11) it takes 0.12-0.30 s as the host's
#: load changes.
CALIB_REF_S = 0.25

#: What ``repro run`` imports on the path to legitimacy, array kernels
#: included; loading the protocol registry pulls in every adapter.
IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import repro.graphs, repro.protocols.runner\n"
    "import repro.sim.array_engine, repro.sim.array_kernel, repro.sim.array_substrates\n"
    "from repro.protocols.registry import protocol_names\n"
    "protocol_names()\n"
    "print(repr(time.perf_counter() - t))\n"
)

#: The layer each delivered message type belongs to (``<layer>.msgs.<Type>``).
MESSAGE_LAYER = {
    **{kind: "core" for kind in ("Search", "Remove", "Back", "Deblock", "MInfo",
                                 "UpdateDist", "Reverse")},
    "DegreeInfo": "stabilization", "STInfo": "stabilization",
    "GarbageMessage": "sim",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def positive(name: str, value: float) -> float:
    """Return the timing ``value`` if it is finite and positive, else fail hard.

    A timing that reads zero, negative or non-finite means the measurement
    is broken; it is never clamped into a plausible number.
    """
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise BenchmarkError(f"timing {name!r} is {value!r}; "
                             "a timing must be finite and positive")
    return float(value)


@dataclass(frozen=True)
class Instance:
    family: str
    n: int
    seed: int


@dataclass(frozen=True)
class Workload:
    protocol: str
    scheduler: str
    initial: str
    backend: str
    instances: Tuple[Instance, ...]
    max_rounds: int = MAX_ROUNDS

    def config(self, inst: Instance, extra_rounds: int = 0):
        from repro.protocols.base import ProtocolRunConfig
        return ProtocolRunConfig(
            protocol=self.protocol, scheduler=self.scheduler, seed=inst.seed,
            initial=self.initial, backend=self.backend,
            max_rounds=self.max_rounds,
            extra_rounds_after_convergence=extra_rounds)


#: Fixed instance lists; ``--seed`` only orders them.  Across graph seeds the
#: rounds to legitimacy vary several-fold (69 to 250 at n=16), which would
#: swamp any comparison between two runs.
WORKLOADS: Dict[str, Workload] = {
    "mdst_sync_object": Workload(
        protocol="mdst", scheduler="synchronous", initial="isolated",
        backend="object",
        instances=(Instance("erdos_renyi_sparse", 16, 1),
                   Instance("erdos_renyi_sparse", 16, 2),
                   Instance("erdos_renyi_sparse", 20, 1))),
    "mdst_async_corrupt_array": Workload(
        protocol="mdst", scheduler="random", initial="corrupted",
        backend="array",
        instances=(Instance("erdos_renyi_sparse", 16, 2),)),
    "substrate_large_array": Workload(
        protocol="pif_max_degree", scheduler="synchronous",
        initial="isolated", backend="array",
        instances=(Instance("powerlaw_cm", 1024, 1),
                   Instance("powerlaw_cm", 1024, 2),
                   Instance("erdos_renyi_sparse", 512, 1),
                   Instance("erdos_renyi_sparse", 512, 2))),
}


# -- host calibration ------------------------------------------------------------

class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def calibration_seconds() -> float:
    """Wall time of a fixed mix of work that does not touch the library.

    Interpreter work (attribute reads, dict updates, a keyed sort) and small
    numpy gathers and masks, in about equal parts: the kinds of work the
    protocol kernels do.  The host's speed drifts with its other tenants;
    dividing by this loop's time cancels the drift but not a change in the
    library.  The collector is off while it runs, so the library's heap
    does not slow it.
    """
    import numpy as np

    index = np.random.default_rng(0).integers(0, 512, 512)
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cells = [_Cell(i, i * 7 % 13) for i in range(8000)]
        totals: Dict[int, int] = {}
        for _ in range(24):
            for c in cells:
                totals[c.key % 997] = totals.get(c.key % 997, 0) + c.value
            cells.sort(key=lambda c: (c.value, -c.key))
        x = np.arange(512)
        for _ in range(14000):
            x = np.where(x[index] > 100, x - 1, x + 1)
            x[index[:64]] = np.maximum(x[index[:64]], 3)
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    return positive("calibration", elapsed)


def normalised_seconds(wall: float, calibrations: Sequence[float]) -> float:
    """A wall time in reference seconds: scaled by ``CALIB_REF_S`` over the
    mean of the calibrations run around the timed work."""
    return positive("normalised time",
                    wall * CALIB_REF_S / statistics.mean(calibrations))


# -- outcomes and checks -------------------------------------------------------

@dataclass
class Outcome:
    """What one execution of one instance produced (the compared fields)."""

    instance: Instance
    converged: bool
    convergence_round: Optional[int]
    rounds: int
    messages: int
    deliveries_by_type: Dict[str, int]
    round_messages: List[int]
    tree_edges: set
    tree_degree: int
    closure_violations: int
    expected_dmax: Optional[int]
    node_stats: Dict[str, int]


def outcome_of(inst: Instance, report, trace, tree_edges, tree_degree,
               extra: Dict[str, object], node_stats) -> Outcome:
    totals: Dict[str, int] = {}
    for stats in node_stats.values():
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + int(value)
    return Outcome(
        instance=inst, converged=report.converged,
        convergence_round=report.convergence_round, rounds=report.rounds,
        messages=report.messages_sent,
        deliveries_by_type=trace.deliveries_by_type(),
        round_messages=[s.messages_sent for s in report.round_stats],
        tree_edges=set(tree_edges), tree_degree=tree_degree,
        closure_violations=len(report.closure_violations),
        expected_dmax=extra.get("expected_dmax"), node_stats=totals)


def result_outcome(inst: Instance, result) -> Outcome:
    return outcome_of(inst, result.report, result.trace, result.tree_edges,
                      result.tree_degree, result.run.extra, result.node_stats)


def spanning_tree_problem(graph, tree_edges) -> Optional[str]:
    """Why ``tree_edges`` is not a spanning tree of ``graph`` (None if it is)."""
    nodes = list(graph.nodes)
    if len(tree_edges) != len(nodes) - 1:
        return f"{len(tree_edges)} tree edges for {len(nodes)} nodes"
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in tree_edges:
        if not graph.has_edge(u, v):
            return f"tree edge {(u, v)} is not a graph edge"
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"tree edge {(u, v)} closes a cycle"
        parent[ru] = rv
    return None


def output_problems(out: Outcome, graph, delta_star: Optional[int]) -> List[str]:
    """The output checks every execution must pass."""
    problems = []
    if not out.converged:
        problems.append(f"not confirmed legitimate within {out.rounds} rounds")
    tree = spanning_tree_problem(graph, out.tree_edges)
    if tree is not None:
        problems.append(f"parent pointers are no spanning tree: {tree}")
    if delta_star is not None and out.tree_degree > delta_star + 1:
        problems.append(f"tree degree {out.tree_degree} > Delta*+1 = {delta_star + 1}")
    if out.expected_dmax is not None and out.tree_degree != out.expected_dmax:
        problems.append(f"aggregated dmax {out.expected_dmax} != tree degree "
                        f"{out.tree_degree}")
    if out.closure_violations:
        problems.append(f"{out.closure_violations} closure violations")
    return problems


def same_run_problem(reference: Outcome, out: Outcome) -> Optional[str]:
    """Whether ``out`` repeats the reference execution up to its last round.

    The reference may have run a closure window past confirmation, so its
    per-round message counts are compared on ``out``'s rounds only.
    """
    sent = sum(reference.round_messages[:out.rounds])
    if (out.convergence_round, out.messages) != (reference.convergence_round, sent):
        return (f"run differs from the check pass: convergence round "
                f"{out.convergence_round} vs {reference.convergence_round}, "
                f"messages {out.messages} vs {sent}")
    return None


# -- passes ----------------------------------------------------------------------

@dataclass
class Pass:
    wall: float
    outcomes: List[Outcome]
    graphs: list
    layers: Optional[Dict[str, float]] = None
    calibrations: Tuple[float, ...] = ()


def untraced_pass(workload: Workload, order: Sequence[Instance],
                  extra_rounds: int = 0, calibrate: bool = False) -> Pass:
    """``make_graph`` -> ``run_protocol`` for every instance, timed end to end.

    The pass wall is the sum of the instance walls; each result is reduced
    to its outcome off the clock, so no instance runs beside the previous
    one's network.  With ``calibrate``, a calibration loop runs before the
    first instance and after each one, also off the clock.
    """
    from repro.graphs import make_graph
    from repro.protocols.runner import run_protocol

    gc.collect()
    graphs, outcomes, walls = [], [], []
    calibrations = [calibration_seconds()] if calibrate else []
    for inst in order:
        start = time.perf_counter()
        graph = make_graph(inst.family, inst.n, seed=inst.seed)
        result = run_protocol(graph, workload.config(inst, extra_rounds))
        walls.append(positive("instance wall", time.perf_counter() - start))
        outcomes.append(result_outcome(inst, result))
        graphs.append(graph)
        del result
        if calibrate:
            calibrations.append(calibration_seconds())
    return Pass(positive("pass wall", sum(walls)), outcomes, graphs,
                calibrations=tuple(calibrations))


class Spans:
    """Per-pass layer timers: durations collected at public call boundaries."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        samples = self.samples.setdefault(name, [])
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t = clock()
            out = fn(*args, **kwargs)
            samples.append(clock() - t)
            return out
        return timed

    def call(self, name: str, fn: Callable, *args):
        return self.wrap(name, fn)(*args)

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    def mark(self) -> Dict[str, int]:
        return {name: len(samples) for name, samples in self.samples.items()}

    def rollback(self, mark: Dict[str, int]) -> None:
        """Drop the samples collected since ``mark`` (untimed work)."""
        for name, samples in self.samples.items():
            del samples[mark.get(name, 0):]


def traced_pass(workload: Workload, order: Sequence[Instance]) -> Pass:
    """The composition ``run_protocol`` makes, with a timer at each layer.

    Only the instance executions are timed; after each one, outside the
    clock, the simulator runs ``CLOSURE_WINDOW`` more rounds so the traced
    run checks closure too.
    """
    import numpy as np

    from repro.graphs import make_graph
    from repro.protocols.registry import get_protocol
    from repro.sim.array_engine import wrap_scheduler_for_array
    from repro.sim.scheduler import make_scheduler
    from repro.sim.simulator import Simulator
    from repro.sim.trace import TraceRecorder
    from repro.stabilization.predicates import (snapshot_tree_degree,
                                                tree_edges_from_snapshots)
    from repro.types import TreeSnapshot

    gc.collect()
    spans = Spans()
    wall = 0.0
    graphs, outcomes, reports = [], [], []
    for inst in order:
        start = time.perf_counter()
        graph = spans.call("graphs.generate_s", make_graph, inst.family, inst.n,
                           inst.seed)
        config = workload.config(inst)
        adapter = get_protocol(config.protocol)
        adapter.validate_config(config)
        rng = np.random.default_rng(config.seed)
        build = (adapter.build_array_network if config.backend == "array"
                 else adapter.build_network)
        network = spans.call("protocols.build_s", build, graph, config)
        spans.call("protocols.init_s", adapter.prepare_initial, network, config, rng)
        legitimacy = spans.wrap("sim.monitor.eval_s",
                                adapter.make_legitimacy(network, config))
        scheduler = make_scheduler(config.scheduler, seed=config.seed,
                                   slow_links=config.slow_links,
                                   max_delay=config.max_delay,
                                   weights=config.node_weights)
        if config.backend == "array":
            scheduler = wrap_scheduler_for_array(scheduler)
        scheduler.run_round = spans.wrap("sim.round_s", scheduler.run_round)
        network.enabled_events = spans.wrap("sim.enabled_events_s",
                                            network.enabled_events)
        network.snapshot_key = spans.wrap("sim.monitor.key_s",
                                          network.snapshot_key)
        trace = TraceRecorder(keep_events=config.keep_trace_events,
                              network_size=graph.number_of_nodes())
        simulator = Simulator(network, scheduler=scheduler, legitimacy=legitimacy,
                              stability_window=config.stability_window,
                              trace=trace, rng=rng)
        report = simulator.run(
            max_rounds=config.max_rounds,
            extra_rounds_after_convergence=config.extra_rounds_after_convergence)
        tree_edges = tree_edges_from_snapshots(network)
        tree_degree = snapshot_tree_degree(network)
        if report.converged:
            snaps = network.snapshots()
            parents = {v: int(snaps[v].get("parent", v)) for v in network.node_ids}
            try:
                TreeSnapshot.from_parent_map(parents)
            except ValueError:
                pass
        extra = adapter.extract_metrics(network, report, config)
        node_stats = {v: dict(getattr(network.processes[v], "stats", {}))
                      for v in network.node_ids}
        wall += time.perf_counter() - start
        out = outcome_of(inst, report, trace, tree_edges, tree_degree, extra,
                         node_stats)
        if report.converged:
            mark = spans.mark()
            closure = simulator.run(max_rounds=report.rounds + CLOSURE_WINDOW,
                                    extra_rounds_after_convergence=CLOSURE_WINDOW)
            spans.rollback(mark)
            out.closure_violations = len(closure.closure_violations)
        graphs.append(graph)
        outcomes.append(out)
        reports.append(report)
    return Pass(positive("traced pass wall", wall), outcomes, graphs,
                layer_split(spans, wall, reports))


def layer_split(spans: Spans, wall: float, reports) -> Dict[str, float]:
    """Per-layer timings of one traced pass; ``sim.other_s`` is the residual."""
    import numpy as np

    timed = ("graphs.generate_s", "protocols.build_s", "protocols.init_s",
             "sim.round_s", "sim.monitor.key_s", "sim.monitor.eval_s")
    layers = {name: positive(name, spans.total(name)) for name in timed}
    layers["sim.enabled_events_s"] = positive(
        "sim.enabled_events_s", spans.total("sim.enabled_events_s"))
    layers["sim.other_s"] = positive("sim.other_s", wall - sum(layers[n] for n in timed))
    rounds_ms = np.asarray(spans.samples["sim.round_s"]) * 1e3
    evals_ms = np.asarray(spans.samples["sim.monitor.eval_s"]) * 1e3
    layers["sim.round_ms_p50"] = positive("sim.round_ms_p50",
                                          float(np.percentile(rounds_ms, 50)))
    layers["sim.round_ms_p99"] = positive("sim.round_ms_p99",
                                          float(np.percentile(rounds_ms, 99)))
    layers["sim.monitor.eval_ms_p99"] = positive(
        "sim.monitor.eval_ms_p99", float(np.percentile(evals_ms, 99)))
    layers["sim.monitor.evals"] = len(evals_ms)
    layers["sim.monitor.cache_hits"] = sum(r.predicate_cache_hits for r in reports)
    layers["sim.steps"] = sum(s.steps for r in reports for s in r.round_stats)
    layers["sim.deliveries"] = sum(s.deliveries for r in reports for s in r.round_stats)
    layers["sim.timeouts"] = sum(s.timeouts for r in reports for s in r.round_stats)
    layers["trace.wall_s"] = positive("trace.wall_s", wall)
    return layers


# -- the run -------------------------------------------------------------------

def cold_import_seconds() -> float:
    """One cold import of the library path, timed inside a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise BenchmarkError(f"cold import failed: {done.stderr.strip()}")
    return positive("runtime.import_s", float(done.stdout.strip().splitlines()[-1]))


def setup_chain_seconds(workload: Workload, order: Sequence[Instance]) -> float:
    """``make_graph``, network build and initial configuration of every instance."""
    import numpy as np

    from repro.graphs import make_graph
    from repro.protocols.registry import get_protocol

    adapter = get_protocol(workload.protocol)
    start = time.perf_counter()
    for inst in order:
        config = workload.config(inst)
        graph = make_graph(inst.family, inst.n, seed=inst.seed)
        build = (adapter.build_array_network if config.backend == "array"
                 else adapter.build_network)
        adapter.prepare_initial(build(graph, config), config,
                                np.random.default_rng(config.seed))
    return positive("setup chain", time.perf_counter() - start)


def message_counts(outcomes: List[Outcome]) -> Dict[str, int]:
    counts = {f"{layer}.msgs.{kind}": 0 for kind, layer in MESSAGE_LAYER.items()}
    for out in outcomes:
        for kind, count in out.deliveries_by_type.items():
            if kind not in MESSAGE_LAYER:
                raise BenchmarkError(f"message type {kind!r} has no metric")
            counts[f"{MESSAGE_LAYER[kind]}.msgs.{kind}"] += count
    return counts


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  setup_reps: int = SETUP_REPS, min_passes: int = MIN_PASSES,
                  log: Callable[[str], None] = lambda line: None) -> dict:
    """Run one workload; return ``correct``/``attempted``/``failed`` and the
    end-to-end (``trace`` false) or per-layer (``trace`` true) values."""
    from repro.baselines.exact import exact_mdst_degree

    order = list(workload.instances)
    random.Random(seed).shuffle(order)

    # Set-up and the check pass keep the list's own order, so the memory
    # peak they reach (``peak_rss_mb``) does not depend on the seed.
    imports, setup_walls, setup = [], [], []
    calibrations = [calibration_seconds()]
    for _ in range(setup_reps):
        imports.append(cold_import_seconds())
        setup_walls.append(imports[-1]
                           + setup_chain_seconds(workload, workload.instances))
        calibrations.append(calibration_seconds())
        setup.append(normalised_seconds(setup_walls[-1], calibrations[-2:]))

    check = untraced_pass(workload, workload.instances, extra_rounds=CLOSURE_WINDOW)
    delta_star = {inst: (exact_mdst_degree(graph) if workload.protocol == "mdst"
                         else None)
                  for inst, graph in zip(workload.instances, check.graphs)}
    reference = {out.instance: out for out in check.outcomes}

    attempted = failed = 0

    def verify(p: Pass) -> None:
        nonlocal attempted, failed
        for out, graph in zip(p.outcomes, p.graphs):
            problems = output_problems(out, graph, delta_star[out.instance])
            if p is not check:
                mismatch = same_run_problem(reference[out.instance], out)
                problems += [mismatch] if mismatch else []
            attempted += 1
            if problems:
                failed += 1
                log(f"FAILED {out.instance}: {'; '.join(problems)}")

    verify(check)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Only summaries of the timed passes are kept: holding their graphs and
    # outputs would grow the heap every later pass (and its GC) walks.
    walls: List[float] = []
    norms: List[float] = []
    traced: List[Tuple[float, Dict[str, float]]] = []
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < min_passes:
        plain = untraced_pass(workload, order, calibrate=True)
        verify(plain)
        walls.append(plain.wall)
        norms.append(normalised_seconds(plain.wall, plain.calibrations))
        calibrations.extend(plain.calibrations)
        outcomes = outcomes or plain.outcomes
        if trace:
            timed = traced_pass(workload, order)
            verify(timed)
            for a, b in zip(plain.outcomes, timed.outcomes):
                if ((a.rounds, a.messages, a.deliveries_by_type)
                        != (b.rounds, b.messages, b.deliveries_by_type)):
                    raise BenchmarkError(
                        f"traced run of {a.instance} does not reproduce the "
                        f"untraced run: rounds {b.rounds} vs {a.rounds}, "
                        f"messages {b.messages} vs {a.messages}")
            traced.append((timed.wall, timed.layers))
            del timed
        del plain

    log(f"passes: {len(walls)} untraced, {len(traced)} traced; "
        f"pass walls {[round(w, 3) for w in walls]}; "
        f"normalised {[round(w, 3) for w in norms]}; "
        f"calibrations {[round(c, 3) for c in calibrations]}")
    excess = [out.tree_degree - delta_star[out.instance] for out in outcomes
              if delta_star[out.instance] is not None]
    if not trace:
        values = {
            "time_to_legit_norm_s": statistics.median(norms),
            "setup_s": statistics.median(setup),
            "rounds_to_legit": sum(out.convergence_round or out.rounds
                                   for out in outcomes),
            "messages_to_legit": sum(out.messages for out in outcomes),
            "legit_frac": (attempted - failed) / attempted,
            "tree_degree_max": max(out.tree_degree for out in outcomes),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        # The split of one pass (the median one, the lower middle for an even
        # count) adds up to its wall time exactly; per-span medians would not.
        split = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2][1]
        stats = {key: sum(out.node_stats.get(key, 0) for out in outcomes)
                 for key in ("searches_initiated", "removals_performed",
                             "removals_aborted")}
        values = dict(split)
        values.update(message_counts(outcomes))
        values.update({
            "runtime.import_s": statistics.median(imports),
            "host.wall_s": statistics.median(walls),
            "host.setup_wall_s": statistics.median(setup_walls),
            "host.calib_s": statistics.median(calibrations),
            "graphs.edges": sum(g.number_of_edges() for g in check.graphs),
            "core.searches_initiated": stats["searches_initiated"],
            "core.removals_performed": stats["removals_performed"],
            "core.removals_aborted": stats["removals_aborted"],
            "core.swap_yield": (stats["removals_performed"]
                                / stats["searches_initiated"]
                                if stats["searches_initiated"] else 0.0),
            "core.degree_excess_max": max(excess, default=0),
            "trace.overhead_frac": (statistics.median(t[0] for t in traced)
                                    / statistics.median(walls) - 1.0),
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values}


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def metrics_block(spec: dict, values: Dict[str, float], trace: bool) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics BENCHMARK.json lists."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(values):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(values))}, unlisted {sorted(set(values) - names)}")
    for m in listed:
        if m["unit"] in ("s", "ms"):
            positive(m["name"], values[m["name"]])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def log(line: str) -> None:
        print(line, flush=True)

    try:
        spec = load_spec()
        outcome = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace), log=log)
        metrics = metrics_block(spec, outcome["values"], bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        log(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": outcome["correct"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
