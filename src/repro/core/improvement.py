"""Improvement logic: improving edges, blocking nodes, deblock chains.

This module captures, as *pure functions over a tree*, the improvement rule
at the heart of the paper (inherited from Fürer & Raghavachari):

* an **improving edge** ``e = {u, v}`` (non-tree) for a tree ``T`` of degree
  ``k`` is one whose fundamental cycle ``C_e`` contains a node ``w`` distinct
  from ``u`` and ``v`` with ``deg_T(w) = k`` and such that
  ``deg_T(w) >= max(deg_T(u), deg_T(v)) + 2``  (Eq. 1);
* a **blocking node** for ``C_e`` is an endpoint of ``e`` with degree
  ``k - 1``: adding ``e`` would promote it to degree ``k``;
* a blocking node ``w`` can be **deblocked** by first performing a swap that
  reduces ``deg_T(w)`` by one, using another non-tree edge whose fundamental
  cycle passes through ``w`` and whose endpoints are themselves of degree at
  most ``k - 2`` (or recursively deblockable).

:func:`plan_improvement` searches for a complete *chain* of swaps -- zero or
more deblocking swaps followed by one direct improvement of a maximum-degree
node -- simulating each swap while planning so the chain is consistent.  The
chain formulation guarantees progress: each executed chain strictly decreases
the number of maximum-degree nodes without ever creating a new one, which is
exactly the argument behind the paper's Lemmas 3-4.

The same machinery doubles as the *global legitimacy check*: a configuration
whose tree admits no chain is a fixpoint of the algorithm, and by the paper's
Theorem 2 (via Fürer–Raghavachari's Theorem 1) its degree is at most Δ*+1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from ..exceptions import GraphError, NotASpanningTreeError
from ..types import Edge, NodeId, canonical_edge, canonical_edges

__all__ = [
    "TreeIndex",
    "Move",
    "is_improving_edge",
    "blocking_nodes",
    "plan_improvement",
    "improvement_possible",
    "apply_moves",
]


@dataclass(frozen=True)
class Move:
    """A single swap: insert ``add`` into the tree and delete ``remove``.

    ``target`` is the node whose degree the swap is meant to decrease (a
    maximum-degree node for a direct improvement, a blocking node for a
    deblocking swap); ``kind`` is ``"improve"`` or ``"deblock"``.
    """

    add: Edge
    remove: Edge
    target: NodeId
    kind: str = "improve"


class _RootedLayout:
    """Rooted view of one tree state, for path queries without a search.

    Every component of the tree edges is rooted at its smallest node (a
    well-formed spanning tree has one).  ``tin``/``tout`` are preorder entry
    and last-descendant times, so ``x`` lies in the subtree of ``w`` iff
    ``tin[w] <= tin[x] <= tout[w]``; ``child_tins[w]`` lists the entry times
    of ``w``'s children in increasing order.
    """

    __slots__ = ("parent", "depth", "root", "tin", "tout", "child_tins", "spanning",
                 "through")

    def __init__(self, nodes: Sequence[NodeId], adj: Dict[NodeId, set[NodeId]]):
        parent: Dict[NodeId, NodeId] = {}
        depth: Dict[NodeId, int] = {}
        root: Dict[NodeId, NodeId] = {}
        order: List[NodeId] = []
        for r in nodes:
            if r in depth:
                continue
            parent[r] = r
            depth[r] = 0
            root[r] = r
            stack = [r]
            while stack:
                x = stack.pop()
                order.append(x)
                dx = depth[x] + 1
                for y in adj[x]:
                    if y not in depth:
                        parent[y] = x
                        depth[y] = dx
                        root[y] = r
                        stack.append(y)
        tin = {x: i for i, x in enumerate(order)}
        size = dict.fromkeys(order, 1)
        child_tins: Dict[NodeId, List[int]] = {x: [] for x in order}
        for x in reversed(order):
            p = parent[x]
            if p != x:
                size[p] += size[x]
        for x in order:
            p = parent[x]
            if p != x:
                child_tins[p].append(tin[x])
        self.parent = parent
        self.depth = depth
        self.root = root
        self.tin = tin
        self.tout = {x: tin[x] + size[x] - 1 for x in order}
        self.child_tins = child_tins
        self.spanning = len(set(root.values())) == 1
        #: Memo of :meth:`TreeIndex.cycles_through`.
        self.through: Dict[NodeId, Tuple[Edge, ...]] = {}

    def interior_to(self, w: NodeId, edges: Iterable[Edge]) -> Tuple[Edge, ...]:
        """The edges ``(a, b)`` whose tree path has ``w`` as an interior node."""
        tin, root = self.tin, self.root
        lo, hi = tin[w], self.tout[w]
        kids = self.child_tins[w]
        through = []
        for edge in edges:
            a, b = edge
            if a == w or b == w:
                continue
            if not self.spanning and root[a] != root[b]:
                raise NotASpanningTreeError(f"nodes {a} and {b} are not tree-connected")
            ta, tb = tin[a], tin[b]
            below_a = lo < ta <= hi
            if below_a != (lo < tb <= hi):
                through.append(edge)
            elif below_a and bisect_right(kids, ta) != bisect_right(kids, tb):
                # Both ends hang below w, from different children: w is
                # their lowest common ancestor.
                through.append(edge)
        return tuple(through)


class TreeIndex:
    """Mutable index of a spanning tree supporting cycle queries and swaps.

    The index keeps tree adjacency and degrees incrementally up to date so
    that the planning search (which simulates candidate swaps) stays cheap.
    Path queries read a rooted layout of the current tree, built on first
    use and dropped by :meth:`apply`; copies share the layout and the sorted
    graph edge list until they diverge, so neither goes stale.  The graph
    must not change while the index is in use.
    """

    def __init__(self, graph: nx.Graph, tree_edges: Iterable[Edge]):
        self.graph = graph
        self.nodes: List[NodeId] = sorted(graph.nodes)
        self.tree_edges: set[Edge] = set(canonical_edges(tree_edges))
        if len(self.tree_edges) != len(self.nodes) - 1:
            raise NotASpanningTreeError(
                f"expected {len(self.nodes) - 1} tree edges, got {len(self.tree_edges)}")
        self.adj: Dict[NodeId, set[NodeId]] = {v: set() for v in self.nodes}
        for u, v in self.tree_edges:
            if not graph.has_edge(u, v):
                raise NotASpanningTreeError(f"tree edge {(u, v)} is not a graph edge")
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.degree: Dict[NodeId, int] = {v: len(self.adj[v]) for v in self.nodes}
        self._graph_edges: Optional[List[Edge]] = None
        self._layout: Optional[_RootedLayout] = None

    # -- queries -----------------------------------------------------------------

    def copy(self) -> "TreeIndex":
        """Cheap copy used by the planning search to simulate swaps."""
        clone = object.__new__(TreeIndex)
        clone.graph = self.graph
        clone.nodes = self.nodes
        clone.tree_edges = set(self.tree_edges)
        clone.adj = {v: set(nbrs) for v, nbrs in self.adj.items()}
        clone.degree = dict(self.degree)
        clone._graph_edges = self._graph_edges
        clone._layout = self._layout
        return clone

    def tree_degree(self) -> int:
        """Maximum node degree of the current tree."""
        return max(self.degree.values()) if self.degree else 0

    def max_degree_nodes(self) -> List[NodeId]:
        """Nodes whose tree degree equals the tree degree."""
        k = self.tree_degree()
        return [v for v in self.nodes if self.degree[v] == k]

    def non_tree_edges(self) -> List[Edge]:
        """Graph edges not currently in the tree, sorted canonically."""
        if self._graph_edges is None:
            self._graph_edges = sorted({canonical_edge(u, v) for u, v in self.graph.edges})
        tree_edges = self.tree_edges
        return [e for e in self._graph_edges if e not in tree_edges]

    def _rooted(self) -> _RootedLayout:
        layout = self._layout
        if layout is None:
            layout = self._layout = _RootedLayout(self.nodes, self.adj)
        return layout

    def cycle_path(self, u: NodeId, v: NodeId) -> List[NodeId]:
        """Tree path from ``u`` to ``v`` (the fundamental cycle of ``{u, v}``)."""
        if u == v:
            return [u]
        layout = self._rooted()
        if layout.root[u] != layout.root[v]:
            raise NotASpanningTreeError(f"nodes {u} and {v} are not tree-connected")
        parent, depth = layout.parent, layout.depth
        up, down = [u], [v]
        while depth[u] > depth[v]:
            u = parent[u]
            up.append(u)
        while depth[v] > depth[u]:
            v = parent[v]
            down.append(v)
        while u != v:
            u = parent[u]
            up.append(u)
            v = parent[v]
            down.append(v)
        down.pop()
        down.reverse()
        return up + down

    def cycles_through(self, w: NodeId) -> Tuple[Edge, ...]:
        """Non-tree edges whose fundamental cycle passes *through* ``w``.

        The edges come in canonical order, each tested in O(1) on the
        rooted layout; the answer is memoized per tree state.
        """
        layout = self._rooted()
        through = layout.through.get(w)
        if through is None:
            through = layout.through[w] = layout.interior_to(w, self.non_tree_edges())
        return through

    def is_interior(self, w: NodeId, a: NodeId, b: NodeId) -> bool:
        """``w in cycle_path(a, b)[1:-1]``, answered from the rooted layout."""
        return bool(self._rooted().interior_to(w, ((a, b),)))

    # -- mutation ------------------------------------------------------------------

    def apply(self, move: Move) -> None:
        """Apply a swap, updating adjacency and degrees incrementally."""
        add = canonical_edge(*move.add)
        remove = canonical_edge(*move.remove)
        if remove not in self.tree_edges:
            raise NotASpanningTreeError(f"cannot remove non-tree edge {remove}")
        if add in self.tree_edges:
            raise NotASpanningTreeError(f"cannot add existing tree edge {add}")
        if not self.graph.has_edge(*add):
            raise GraphError(f"cannot add non-graph edge {add}")
        self._layout = None
        ru, rv = remove
        self.tree_edges.remove(remove)
        self.adj[ru].discard(rv)
        self.adj[rv].discard(ru)
        self.degree[ru] -= 1
        self.degree[rv] -= 1
        au, av = add
        self.tree_edges.add(add)
        self.adj[au].add(av)
        self.adj[av].add(au)
        self.degree[au] += 1
        self.degree[av] += 1


# ---------------------------------------------------------------------------
# Elementary predicates (Eq. 1, blocking nodes)
# ---------------------------------------------------------------------------

def is_improving_edge(index: TreeIndex, edge: Edge) -> bool:
    """Check Eq. 1: the fundamental cycle of ``edge`` contains a node ``w``
    (distinct from the endpoints) of maximum tree degree ``k`` with
    ``k >= max(deg(u), deg(v)) + 2``."""
    u, v = canonical_edge(*edge)
    if canonical_edge(u, v) in index.tree_edges:
        return False
    k = index.tree_degree()
    path = index.cycle_path(u, v)
    interior = [w for w in path if w not in (u, v)]
    if not any(index.degree[w] == k for w in interior):
        return False
    return k >= max(index.degree[u], index.degree[v]) + 2


def blocking_nodes(index: TreeIndex, edge: Edge) -> List[NodeId]:
    """Endpoints of ``edge`` that are blocking (degree ``k - 1``) for its cycle."""
    u, v = canonical_edge(*edge)
    k = index.tree_degree()
    return [x for x in (u, v) if index.degree[x] == k - 1]


# ---------------------------------------------------------------------------
# Chain planning
# ---------------------------------------------------------------------------

def _pick_cycle_edge_incident_to(index: TreeIndex, path: Sequence[NodeId],
                                 w: NodeId) -> Edge:
    """Tree edge of the cycle ``path`` incident to ``w`` (smallest neighbour id)."""
    pos = list(path).index(w)
    candidates = []
    if pos > 0:
        candidates.append(path[pos - 1])
    if pos < len(path) - 1:
        candidates.append(path[pos + 1])
    z = min(candidates)
    return canonical_edge(w, z)


#: A planned chain and the tree it leads to: the planner's own input tree
#: when the chain is empty, a private copy otherwise.
_Plan = Tuple[List[Move], TreeIndex]


def _plan_deblock(index: TreeIndex, w: NodeId, k: int,
                  stack: FrozenSet[NodeId], budget: List[int]) -> Optional[_Plan]:
    """Plan a chain of swaps that reduces ``deg(w)`` by one.

    ``w`` currently has degree ``k - 1``.  We look for a non-tree edge whose
    fundamental cycle passes through ``w`` and whose endpoints either already
    have degree <= ``k - 2`` or can themselves be deblocked (recursively,
    with ``stack`` preventing cycles in the recursion).  Every swap is
    simulated on a copy of ``index``, which is returned with the chain.
    """
    if w in stack or budget[0] <= 0:
        return None
    budget[0] -= 1
    stack = stack | {w}
    for edge in index.cycles_through(w):
        a, b = edge
        planned = _plan_endpoints(index, edge, k, stack, budget)
        if planned is None:
            continue
        # Verify the deblocking swap is still valid after the sub-chain.
        chain, sim = planned
        if sim.degree[w] != k - 1:
            # w's degree already changed as a side effect -- good enough.
            return planned
        if max(sim.degree[a], sim.degree[b]) > k - 2:
            continue
        if not sim.is_interior(w, a, b):
            continue
        remove = _pick_cycle_edge_incident_to(sim, sim.cycle_path(a, b), w)
        move = Move(add=edge, remove=remove, target=w, kind="deblock")
        if sim is index:
            sim = index.copy()
        sim.apply(move)
        return chain + [move], sim
    return None


def _plan_endpoints(index: TreeIndex, edge: Edge, k: int,
                    stack: FrozenSet[NodeId], budget: List[int]) -> Optional[_Plan]:
    """Plan swaps making both endpoints of canonical ``edge`` have degree <= ``k - 2``.

    Returns ``None`` when impossible, otherwise a (possibly empty) chain and
    the tree it leads to; the second endpoint is planned on the tree the
    first one's chain leads to.
    """
    chain: List[Move] = []
    sim = index
    for x in edge:
        deg = sim.degree[x]
        if deg <= k - 2:
            continue
        if deg >= k:
            return None
        planned = _plan_deblock(sim, x, k, stack, budget)
        if planned is None:
            return None
        sub, sim = planned
        chain.extend(sub)
    return chain, sim


def plan_improvement(graph: nx.Graph, tree_edges: Iterable[Edge],
                     max_plan_nodes: int = 2000) -> Optional[List[Move]]:
    """Find a chain of swaps ending in the improvement of a maximum-degree node.

    Returns ``None`` when the tree is a fixpoint of the paper's improvement
    rule (no direct improvement and no deblock chain leading to one), which by
    Theorem 2 certifies ``deg(T) <= Δ* + 1``.

    ``max_plan_nodes`` bounds the total recursion effort of the planning
    search: each attempt to deblock a node spends one unit, and once the
    budget is spent every further deblock attempt fails.  The budget *is*
    reached in practice: on the converged trees of ``erdos_renyi_sparse``
    n=16 (seeds 1-2) and n=20 (seed 1) the default runs out, and 10x or
    100x the budget gives the same verdict (no plan) without finishing the
    search either.  The verdict therefore depends on the budget and on the
    order in which the search spends it, both of which are part of this
    function's contract.
    """
    index = TreeIndex(graph, tree_edges)
    k = index.tree_degree()
    if k <= 2:
        return None  # a path/star on <=3 nodes cannot be improved below degree 2
    budget = [max_plan_nodes]
    for edge in index.non_tree_edges():
        u, v = edge
        path = index.cycle_path(u, v)
        if not any(index.degree[w] == k for w in path[1:-1]):
            continue
        if max(index.degree[u], index.degree[v]) >= k:
            continue  # an endpoint already has maximum degree: never improvable
        planned = _plan_endpoints(index, edge, k, frozenset(), budget)
        if planned is None:
            continue
        chain, sim = planned
        if max(sim.degree[u], sim.degree[v]) > k - 2:
            continue
        path_now = sim.cycle_path(u, v)
        max_now = [w for w in path_now[1:-1] if sim.degree[w] == k]
        if not max_now:
            # The chain already reduced every max-degree node on this cycle --
            # that is progress in itself; report the chain if non-empty.
            if chain:
                return chain
            continue
        w = min(max_now)
        remove = _pick_cycle_edge_incident_to(sim, path_now, w)
        return chain + [Move(add=edge, remove=remove, target=w, kind="improve")]
    return None


def improvement_possible(graph: nx.Graph, tree_edges: Iterable[Edge]) -> bool:
    """``True`` iff the paper's improvement rule can still make progress."""
    return plan_improvement(graph, tree_edges) is not None


def apply_moves(graph: nx.Graph, tree_edges: Iterable[Edge],
                moves: Sequence[Move]) -> set[Edge]:
    """Apply a chain of moves to a tree edge set and return the new edge set."""
    index = TreeIndex(graph, tree_edges)
    for move in moves:
        index.apply(move)
    return set(index.tree_edges)
