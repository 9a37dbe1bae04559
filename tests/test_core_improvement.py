"""Tests for repro.core.improvement (Eq. 1, blocking nodes, chain planning)."""

from __future__ import annotations

import inspect

import networkx as nx
import pytest

from repro.core import improvement
from repro.exceptions import NotASpanningTreeError
from repro.graphs import (
    bfs_spanning_tree,
    dfs_spanning_tree,
    is_spanning_tree,
    make_graph,
    tree_degree,
)
from repro.core.improvement import (
    Move,
    TreeIndex,
    apply_moves,
    blocking_nodes,
    improvement_possible,
    is_improving_edge,
    plan_improvement,
)
from repro.baselines import exact_mdst_degree


class TestTreeIndex:
    def test_rejects_non_spanning_edge_sets(self, wheel8):
        with pytest.raises(NotASpanningTreeError):
            TreeIndex(wheel8, list(bfs_spanning_tree(wheel8))[:-1])

    def test_degrees_match_definition(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        index = TreeIndex(wheel8, tree)
        assert index.tree_degree() == tree_degree(wheel8.nodes, tree)
        assert index.degree[0] == 7  # the hub

    def test_cycle_path_endpoints(self, small_dense):
        tree = bfs_spanning_tree(small_dense)
        index = TreeIndex(small_dense, tree)
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        assert path[0] == u and path[-1] == v

    def test_apply_swap_updates_degrees(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        index = TreeIndex(wheel8, tree)
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        w = max(path, key=lambda x: index.degree[x])
        pos = path.index(w)
        z = path[pos - 1] if pos > 0 else path[pos + 1]
        before = index.degree[w]
        index.apply(Move(add=(u, v), remove=tuple(sorted((w, z))), target=w))
        assert index.degree[w] == before - 1
        assert is_spanning_tree(wheel8, index.tree_edges)

    def test_apply_rejects_bad_moves(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        non_tree = index.non_tree_edges()[0]
        tree_edge = next(iter(index.tree_edges))
        with pytest.raises(NotASpanningTreeError):
            index.apply(Move(add=non_tree, remove=non_tree, target=0))
        with pytest.raises(NotASpanningTreeError):
            index.apply(Move(add=tree_edge, remove=tree_edge, target=0))

    def test_copy_is_independent(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        clone = index.copy()
        u, v = index.non_tree_edges()[0]
        path = index.cycle_path(u, v)
        w = max(path, key=lambda x: index.degree[x])
        pos = path.index(w)
        z = path[pos - 1] if pos > 0 else path[pos + 1]
        clone.apply(Move(add=(u, v), remove=tuple(sorted((w, z))), target=w))
        assert index.tree_edges != clone.tree_edges


class TestEq1Predicates:
    def test_improving_edge_on_wheel_star_tree(self, wheel8):
        # the BFS tree of a wheel is the star centred at the hub: every rim
        # edge is improving (the hub has degree 7, rim nodes degree 1).
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        rim_edge = index.non_tree_edges()[0]
        assert is_improving_edge(index, rim_edge)

    def test_tree_edge_is_never_improving(self, wheel8):
        index = TreeIndex(wheel8, bfs_spanning_tree(wheel8))
        assert not is_improving_edge(index, next(iter(index.tree_edges)))

    def test_no_improving_edge_on_path_tree(self):
        g = make_graph("complete", 6)
        path_tree = dfs_spanning_tree(g)  # a Hamiltonian path, degree 2
        index = TreeIndex(g, path_tree)
        assert not any(is_improving_edge(index, e) for e in index.non_tree_edges())

    def test_blocking_nodes_identified(self):
        # two_hub: hubs 0 and 1 both have degree leaf_count+1 in the graph;
        # in the BFS tree one hub has maximum degree, the other degree 1.
        g = make_graph("two_hub", 7)
        index = TreeIndex(g, bfs_spanning_tree(g))
        k = index.tree_degree()
        for edge in index.non_tree_edges():
            blockers = blocking_nodes(index, edge)
            for b in blockers:
                assert index.degree[b] == k - 1


class TestPlanning:
    @pytest.mark.parametrize("family,n", [("wheel", 8), ("complete", 7),
                                          ("two_hub", 8), ("hard_hub", 9),
                                          ("erdos_renyi_dense", 9)])
    def test_plan_respects_spanning_tree_invariant(self, family, n):
        g = make_graph(family, n, seed=2)
        tree = bfs_spanning_tree(g)
        plan = plan_improvement(g, tree)
        if plan is None:
            return
        new_tree = apply_moves(g, tree, plan)
        assert is_spanning_tree(g, new_tree)

    def test_plan_last_move_reduces_a_max_degree_node(self, wheel8):
        tree = bfs_spanning_tree(wheel8)
        plan = plan_improvement(wheel8, tree)
        assert plan is not None
        assert plan[-1].kind in ("improve", "deblock")
        new_tree = apply_moves(wheel8, tree, plan)
        assert tree_degree(wheel8.nodes, new_tree) <= tree_degree(wheel8.nodes, tree)

    def test_no_plan_on_star_graph(self):
        g = make_graph("star", 7)  # the star is its own unique spanning tree
        tree = bfs_spanning_tree(g)
        assert plan_improvement(g, tree) is None
        assert not improvement_possible(g, tree)

    def test_no_plan_when_degree_two(self):
        g = make_graph("cycle", 8)
        assert plan_improvement(g, bfs_spanning_tree(g)) is None

    def test_fixpoint_of_planner_is_within_one_of_optimal(self):
        """Iterating the planner to a fixpoint yields deg <= Δ* + 1 (Theorem 2)."""
        for family, n, seed in [("wheel", 9, 0), ("two_hub", 8, 0),
                                ("erdos_renyi_dense", 9, 3), ("lollipop", 8, 0),
                                ("hard_hub", 9, 0), ("ring_with_chords", 9, 1)]:
            g = make_graph(family, n, seed=seed)
            tree = bfs_spanning_tree(g)
            for _ in range(200):
                plan = plan_improvement(g, tree)
                if plan is None:
                    break
                tree = apply_moves(g, tree, plan)
            assert plan_improvement(g, tree) is None
            optimal = exact_mdst_degree(g)
            assert tree_degree(g.nodes, tree) <= optimal + 1, (family, n, seed)

    def test_iterated_chains_on_two_hub_reach_optimum(self):
        """Iterating chains on the two-hub graph balances the hubs exactly."""
        g = make_graph("two_hub", 9)  # 7 leaves: Δ* = 7 // 2 + 1 = 4
        tree = bfs_spanning_tree(g)
        chains = []
        for _ in range(50):
            plan = plan_improvement(g, tree)
            if plan is None:
                break
            chains.append(plan)
            tree = apply_moves(g, tree, plan)
        assert chains
        assert all(m.kind in ("improve", "deblock") for c in chains for m in c)
        assert tree_degree(g.nodes, tree) <= exact_mdst_degree(g) + 1

    def test_deblock_chain_appears_when_endpoint_is_blocking(self):
        """Craft a tree where the only cycle through the max-degree node has a
        blocking endpoint, forcing the planner to emit a deblock move."""
        g = nx.Graph()
        # hub 0 with four spokes; spoke 1 also attached to a path that closes
        # a cycle back to spoke 2 through node 5.
        g.add_edges_from([(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (6, 2),
                          (1, 7), (7, 2)])
        tree = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (5, 6), (1, 7)}
        assert is_spanning_tree(g, tree)
        plans = []
        for _ in range(20):
            plan = plan_improvement(g, tree)
            if plan is None:
                break
            plans.append(plan)
            tree = apply_moves(g, tree, plan)
        assert plans
        assert tree_degree(g.nodes, tree) <= exact_mdst_degree(g) + 1


class TestPlanBudget:
    """The ``max_plan_nodes`` budget is reached on real converged trees."""

    #: The tree the MDST protocol converges to on erdos_renyi_sparse n=16
    #: seed 1 (synchronous scheduler, isolated start).
    CONVERGED = [(0, 6), (0, 7), (1, 12), (1, 13), (2, 10), (2, 14), (3, 11),
                 (4, 5), (4, 13), (5, 8), (7, 15), (8, 9), (9, 15), (10, 12),
                 (11, 13)]

    @staticmethod
    def _plan_and_budget_left(monkeypatch, graph, tree, budget):
        budgets = []
        real = improvement._plan_deblock

        def spy(index, w, k, stack, left):
            budgets.append(left)
            return real(index, w, k, stack, left)

        with monkeypatch.context() as m:
            m.setattr(improvement, "_plan_deblock", spy)
            plan = plan_improvement(graph, tree, max_plan_nodes=budget)
        return plan, budgets[-1][0]

    def test_default_budget_runs_out_and_ten_times_more_agrees(self, monkeypatch):
        g = make_graph("erdos_renyi_sparse", 16, seed=1)
        assert is_spanning_tree(g, self.CONVERGED)
        default = inspect.signature(plan_improvement).parameters["max_plan_nodes"].default
        for budget in (default, 10 * default):
            plan, left = self._plan_and_budget_left(monkeypatch, g, self.CONVERGED, budget)
            assert plan is None
            assert left == 0, budget  # the budget ran out before the search finished
