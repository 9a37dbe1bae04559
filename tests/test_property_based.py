"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random connected graphs and random spanning trees; the
properties check the structural invariants the whole system rests on:

* every generated graph is simple and connected, every spanning-tree helper
  returns a valid spanning tree;
* fundamental cycles are consistent with their defining non-tree edge;
* an edge swap along a fundamental cycle always yields a spanning tree;
* the improvement-chain planner preserves the spanning-tree property and the
  monotonicity of the maximum degree;
* the reference engine's fixpoint satisfies the Δ*+1 guarantee on instances
  small enough for the exact solver;
* message size estimation is monotone in the path length (O(n log n) claim);
* the :class:`~repro.core.improvement.TreeIndex` path primitives agree with
  a from-scratch search, stay fresh across ``copy()``/``apply()``, and keep
  their behaviour on edge sets that are not trees.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import exact_mdst_degree
from repro.core import ReferenceMDST
from repro.core.improvement import Move, TreeIndex, apply_moves, plan_improvement
from repro.core.messages import Search
from repro.exceptions import NotASpanningTreeError
from repro.graphs import (
    bfs_spanning_tree,
    fundamental_cycle,
    is_spanning_tree,
    non_tree_edges,
    random_spanning_tree,
    swap_edges,
    tree_degree,
    tree_degrees,
)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def connected_graphs(draw, min_nodes=4, max_nodes=12):
    """Random connected simple graph: random tree + random extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    # random tree via random parent for each node (Prüfer-like, always a tree)
    parents = [draw(st.integers(0, i - 1)) if i > 0 else 0 for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for i in range(1, n):
        g.add_edge(i, parents[i])
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    for u, v in extra:
        if u != v:
            g.add_edge(u, v)
    return g


@SETTINGS
@given(connected_graphs())
def test_generated_graphs_are_connected_and_simple(g):
    assert nx.is_connected(g)
    assert not any(u == v for u, v in g.edges)


@SETTINGS
@given(connected_graphs(), st.integers(0, 2**31 - 1))
def test_spanning_tree_helpers_return_valid_trees(g, seed):
    for edges in (bfs_spanning_tree(g), random_spanning_tree(g, seed=seed)):
        assert is_spanning_tree(g, edges)
        degrees = tree_degrees(g.nodes, edges)
        assert sum(degrees.values()) == 2 * (g.number_of_nodes() - 1)
        assert tree_degree(g.nodes, edges) == max(degrees.values())


@SETTINGS
@given(connected_graphs())
def test_fundamental_cycles_and_swaps(g):
    tree = bfs_spanning_tree(g)
    for e in sorted(non_tree_edges(g, tree))[:4]:
        cycle = fundamental_cycle(tree, e)
        assert cycle[0] == e[0] and cycle[-1] == e[1]
        assert len(set(cycle)) == len(cycle) >= 2
        remove = tuple(sorted((cycle[0], cycle[1])))
        new_tree = swap_edges(tree, add=e, remove=remove)
        assert is_spanning_tree(g, new_tree)


@SETTINGS
@given(connected_graphs())
def test_improvement_chains_preserve_tree_and_never_increase_degree(g):
    tree = bfs_spanning_tree(g)
    before = tree_degree(g.nodes, tree)
    plan = plan_improvement(g, tree)
    if plan is None:
        return
    new_tree = apply_moves(g, tree, plan)
    assert is_spanning_tree(g, new_tree)
    after = tree_degree(g.nodes, new_tree)
    assert after <= before
    # no node may exceed the previous maximum degree as a side effect
    assert max(tree_degrees(g.nodes, new_tree).values()) <= before


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(connected_graphs(min_nodes=4, max_nodes=9))
def test_reference_engine_fixpoint_is_within_one_of_optimal(g):
    result = ReferenceMDST(g).run()
    assert is_spanning_tree(g, result.tree_edges)
    optimal = exact_mdst_degree(g)
    assert optimal <= result.final_degree <= optimal + 1
    assert plan_improvement(g, result.tree_edges) is None


@SETTINGS
@given(st.integers(2, 200), st.integers(2, 64))
def test_search_message_size_is_o_n_log_n(path_len, n_bits_base):
    n = max(path_len + 1, n_bits_base)
    msg = Search(init_edge=(1, 0), idblock=None,
                 path=tuple((i, 2) for i in range(path_len)),
                 visited=tuple(range(path_len)))
    bits = msg.size_bits(n)
    from repro.analysis import message_bound_bits
    assert bits <= message_bound_bits(n)


@SETTINGS
@given(connected_graphs())
def test_tree_index_degree_bookkeeping_consistent(g):
    tree = bfs_spanning_tree(g)
    index = TreeIndex(g, tree)
    recomputed = tree_degrees(g.nodes, index.tree_edges)
    assert index.degree == recomputed
    plan = plan_improvement(g, tree)
    if plan:
        for move in plan:
            index.apply(move)
        assert index.degree == tree_degrees(g.nodes, index.tree_edges)


# -- TreeIndex path primitives -----------------------------------------------------

def _assert_index_answers(index: TreeIndex, g: nx.Graph, edges) -> None:
    """Every path query on ``index`` matches a search over ``edges``."""
    tree = nx.Graph(list(edges))
    tree.add_nodes_from(g.nodes)
    nodes = sorted(g.nodes)
    for a in nodes:
        for b in nodes:
            path = nx.shortest_path(tree, a, b)
            assert index.cycle_path(a, b) == path
            for w in nodes:
                assert index.is_interior(w, a, b) == (w in path[1:-1])
    non_tree = index.non_tree_edges()
    for w in nodes:
        assert index.cycles_through(w) == tuple(
            e for e in non_tree if w in nx.shortest_path(tree, *e)[1:-1])


@SETTINGS
@given(connected_graphs(max_nodes=9), st.integers(0, 2**31 - 1))
def test_tree_index_paths_match_a_fresh_search(g, seed):
    tree = random_spanning_tree(g, seed=seed)
    index = TreeIndex(g, tree)
    _assert_index_answers(index, g, tree)
    graph_edges = {tuple(sorted(e)) for e in g.edges}
    assert index.non_tree_edges() == sorted(graph_edges - set(tree))


@SETTINGS
@given(connected_graphs(max_nodes=9), st.integers(0, 2**31 - 1), st.data())
def test_tree_index_layouts_stay_fresh_across_copy_and_apply(g, seed, data):
    tree = random_spanning_tree(g, seed=seed)
    index = TreeIndex(g, tree)
    extra = index.non_tree_edges()
    if not extra:
        return
    path = index.cycle_path(*data.draw(st.sampled_from(extra)))
    i = data.draw(st.integers(0, len(path) - 2))
    move = Move(add=tuple(sorted((path[0], path[-1]))),
                remove=tuple(sorted(path[i:i + 2])), target=path[i])
    _assert_index_answers(index, g, tree)  # warm the shared layout and memo
    clone = index.copy()
    clone.apply(move)
    _assert_index_answers(index, g, tree)
    _assert_index_answers(clone, g, clone.tree_edges)
    # ... and the other way round: mutating the original leaves a warm copy be.
    twin = index.copy()
    index.apply(move)
    _assert_index_answers(twin, g, tree)
    _assert_index_answers(index, g, clone.tree_edges)


@SETTINGS
@given(connected_graphs(max_nodes=9), st.integers(0, 2**31 - 1), st.data())
def test_tree_index_on_edges_with_a_cycle_roots_every_component(g, seed, data):
    """n-1 graph edges that close a cycle leave the nodes in two or more
    components: pairs within one still get a path along the edges, pairs
    across components raise."""
    tree = random_spanning_tree(g, seed=seed)
    extra = sorted(non_tree_edges(g, tree))
    if not extra:
        return
    add = data.draw(st.sampled_from(extra))
    cycle = fundamental_cycle(tree, add)
    off_cycle = sorted(set(tree) - {tuple(sorted(p)) for p in zip(cycle, cycle[1:])})
    if not off_cycle:
        return
    drop = data.draw(st.sampled_from(off_cycle))
    edges = (set(tree) - {drop}) | {add}
    index = TreeIndex(g, edges)
    forest = nx.Graph(list(edges))
    forest.add_nodes_from(g.nodes)
    component = {v: i for i, comp in enumerate(nx.connected_components(forest))
                 for v in comp}
    assert len(set(component.values())) >= 2
    nodes = sorted(g.nodes)
    for a in nodes:
        for b in nodes:
            if a != b and component[a] != component[b]:
                with pytest.raises(NotASpanningTreeError):
                    index.cycle_path(a, b)
                w = next(x for x in nodes if x not in (a, b))
                with pytest.raises(NotASpanningTreeError):
                    index.is_interior(w, a, b)
                continue
            path = index.cycle_path(a, b)
            assert path[0] == a and path[-1] == b
            assert len(set(path)) == len(path)
            assert all(forest.has_edge(x, y) for x, y in zip(path, path[1:]))
