"""Golden corpus pinning every verdict and move of the fixpoint planner.

The legitimacy monitor's condition 3 and the reference engine both call
:func:`repro.core.improvement.plan_improvement`, and its verdict on a
fixpoint is often reached by exhausting the ``max_plan_nodes`` budget.  So a
faster planner must keep not only its answers but its search order and the
point at which it spends budget.  This corpus pins both: seeded G(n, p)
graphs with random spanning trees are driven to their fixpoint by
``plan_improvement`` -> ``apply_moves`` at the default budget and at
budgets 1, 5 and 50; every tree of the default trajectory is also planned
at each budget in :data:`PROBES`.  Every plan (move tuples, or ``None``)
goes into a sha256 digest, recorded with the planner as it stood before its
fast path (path queries by a fresh search per call).

Graphs and trees come from a private :class:`random.Random`, not from the
repo's generators, so the corpus cannot drift when those change.  Run this
file as a script to print the digest and the explicit cases::

    PYTHONPATH=src python tests/test_planner_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, Optional, Tuple

import networkx as nx

from repro.core.improvement import apply_moves, plan_improvement

#: Budgets whose trajectories are pinned; ``None`` means the default.
BUDGETS: Tuple[Optional[int], ...] = (None, 1, 5, 50)
#: Budgets probed on every tree of the default trajectory.
PROBES = (1, 2, 3, 4, 5, 6, 7, 8, 50)
#: Corpus seeds; node counts run over [8, 16].
SEEDS = range(48)

GOLDEN_DIGEST = "a2d56c7c235778e10d9839e6278c817b221ce23e0881964aef36a93ef5a5259a"

#: A few trajectories spelled out: (seed, budget) -> plans.  At the default
#: budget both seeds need deblock chains; a budget of 1 takes another route.
EXPLICIT = {
    (7, None): [
        [[[8, 10], [3, 6], 6, "deblock"], [[4, 6], [2, 3], 2, "deblock"],
         [[1, 2], [2, 11], 11, "improve"]],
        [[[2, 3], [3, 13], 13, "improve"]],
        None,
    ],
    (7, 1): [
        [[[1, 10], [7, 13], 13, "improve"]],
        [[[4, 12], [0, 11], 0, "improve"]],
        None,
    ],
    (34, None): [
        [[[4, 13], [2, 11], 2, "deblock"], [[2, 11], [2, 13], 13, "deblock"],
         [[13, 14], [0, 5], 5, "deblock"], [[2, 5], [5, 9], 9, "improve"]],
        None,
    ],
    (34, 1): [
        [[[4, 8], [3, 4], 3, "improve"]],
        [[[4, 13], [3, 9], 9, "improve"]],
        None,
    ],
}


def corpus_graph(seed: int) -> nx.Graph:
    """G(n, p) graph laid over a random tree, so it is connected.

    ``p`` runs from 0.05 to 0.4: the sparse end has cut vertices, i.e.
    deblock targets with no cycle through them, whose failed attempts still
    spend budget.
    """
    rng = random.Random(seed)
    n = 8 + seed % 9
    p = rng.uniform(0.02, 0.4)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((v, rng.randrange(v)) for v in range(1, n))
    g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p)
    return g


def corpus_tree(graph: nx.Graph, seed: int) -> List[Tuple[int, int]]:
    """Random spanning tree by a seeded random walk (Aldous-Broder)."""
    rng = random.Random(10_000 + seed)
    nodes = sorted(graph.nodes)
    current = rng.choice(nodes)
    seen = {current}
    edges = []
    while len(seen) < len(nodes):
        nxt = rng.choice(sorted(graph.neighbors(current)))
        if nxt not in seen:
            seen.add(nxt)
            edges.append((min(current, nxt), max(current, nxt)))
        current = nxt
    return sorted(edges)


def _encode(plan) -> Optional[list]:
    if plan is None:
        return None
    return [[list(m.add), list(m.remove), m.target, m.kind] for m in plan]


def trajectory(graph: nx.Graph, tree, budget: Optional[int],
               probe: bool = False) -> list:
    """Every plan on the way from ``tree`` to a fixpoint, ending in ``None``.

    With ``probe`` each entry also carries the plans of the same tree at
    every budget in :data:`PROBES`.
    """
    kwargs = {} if budget is None else {"max_plan_nodes": budget}
    edges = set(tree)
    plans = []
    while True:
        plan = plan_improvement(graph, edges, **kwargs)
        entry = _encode(plan)
        if probe:
            entry = [entry] + [_encode(plan_improvement(graph, edges, max_plan_nodes=b))
                               for b in PROBES]
        plans.append(entry)
        if plan is None:
            return plans
        edges = apply_moves(graph, edges, plan)


def corpus() -> dict:
    out = {}
    for seed in SEEDS:
        g = corpus_graph(seed)
        tree = corpus_tree(g, seed)
        out[str(seed)] = {str(b): trajectory(g, tree, b, probe=b is None)
                          for b in BUDGETS}
    return out


def digest(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_corpus_digest_matches_the_recorded_planner():
    assert digest(corpus()) == GOLDEN_DIGEST


def test_explicit_trajectories():
    for (seed, budget), expected in EXPLICIT.items():
        g = corpus_graph(seed)
        assert trajectory(g, corpus_tree(g, seed), budget) == expected, (seed, budget)


if __name__ == "__main__":
    print(digest(corpus()))
    for seed, budget in EXPLICIT:
        g = corpus_graph(seed)
        print((seed, budget), json.dumps(trajectory(g, corpus_tree(g, seed), budget)))
