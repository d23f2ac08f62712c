"""Version immutability, pivot queries, and path-copying updates."""
import random

import pytest

from twkbest.core import CostModel, WeightedGraph, edge
from twkbest.treedec import balance, heuristic_decomposition
from twkbest.algebra import build_parse_tree
from twkbest.problems import builtin
from twkbest.oracle import enumerate_paths
from twkbest.evaluation import INF
from twkbest.persist import (
    VersionError,
    best_pair,
    constrain,
    initial_version,
    pivot_query,
    solution_at,
)


def make_graph(n, edges, weights=None, directed=False):
    w = weights or [1] * len(edges)
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): wi for i, wi in enumerate(w, 1)},
    )


def version_for(g, problem, **kw):
    tree = build_parse_tree(balance(heuristic_decomposition(g), g), g)
    a = builtin(problem, g, **kw)
    cost = CostModel.edge_costs(g) if a.kind == "e" else CostModel.vertex_costs(g)
    return initial_version(tree, a, cost), tree


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)], [1, 1, 5])


def test_initial_version_k3():
    v, _ = version_for(K3, "simple-path", s=1, t=3)
    assert best_pair(v) == (2, 5)


def test_infeasible_version():
    g = make_graph(3, [(1, 2), (2, 3)])
    v, _ = version_for(g, "perfect-matching")
    assert best_pair(v) == (INF, INF)
    with pytest.raises(VersionError):
        pivot_query(v)


def test_unique_solution_not_expandable():
    g = make_graph(3, [(1, 2), (2, 3)])
    v, _ = version_for(g, "simple-path", s=1, t=3)
    assert best_pair(v) == (2, INF)
    with pytest.raises(VersionError):
        pivot_query(v)


def test_pivot_in_symmetric_difference():
    v, _ = version_for(K3, "simple-path", s=1, t=3)
    rep = pivot_query(v)
    a = solution_at(v, 0).sets[0]
    b = solution_at(v, 1).sets[0]
    assert (rep.feature in a) != (rep.feature in b)
    assert (rep.feature in a) == rep.best_contains


def test_constrain_splits_and_parent_survives():
    v, tree = version_for(K3, "simple-path", s=1, t=3)
    rep = pivot_query(v)
    forced = constrain(v, rep, True)
    excluded = constrain(v, rep, False)
    assert best_pair(v) == (2, 5)
    firsts = sorted([best_pair(forced)[0], best_pair(excluded)[0]])
    assert firsts == [2, 5]
    assert best_pair(forced)[1] is INF and best_pair(excluded)[1] is INF
    # survivors reconstruct to the parent's best/second solutions
    outs = {solution_at(forced, 0), solution_at(excluded, 0)}
    assert outs == {solution_at(v, 0), solution_at(v, 1)}
    for child in (forced, excluded):
        assert child.copied_nodes == len(rep.path) <= tree.depth + 1


def test_constraints_respected_by_reconstructions():
    v, _ = version_for(K3, "spanning-tree")
    rep = pivot_query(v)
    forced = constrain(v, rep, True)
    excluded = constrain(v, rep, False)
    assert rep.feature in solution_at(forced, 0).sets[0]
    assert rep.feature not in solution_at(excluded, 0).sets[0]


def test_report_version_mismatch_rejected():
    v, _ = version_for(K3, "simple-path", s=1, t=3)
    w, _ = version_for(K3, "simple-path", s=1, t=3)
    rep = pivot_query(v)
    with pytest.raises(VersionError):
        constrain(w, rep, True)


def test_interleaved_constrains_leave_all_versions_intact():
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4)],
                   [4, 1, 7, 2, 3, 9, 1])
    v0, _ = version_for(g, "spanning-tree")
    rng = random.Random(2)
    versions = [v0]
    snapshots = {id(v0): best_pair(v0)}
    sols = {id(v0): (solution_at(v0, 0))}
    for _ in range(30):
        expandable = [v for v in versions if best_pair(v)[1] is not INF]
        if not expandable:
            break
        v = rng.choice(expandable)
        rep = pivot_query(v)
        try:
            children = [constrain(v, rep, True), constrain(v, rep, False)]
        except VersionError:
            continue  # pivot already constrained via another branch of v
        for c in children:
            versions.append(c)
            snapshots[id(c)] = best_pair(c)
            sols[id(c)] = solution_at(c, 0)
        # every retained version still answers identically
        for u in versions:
            assert best_pair(u) == snapshots[id(u)]
            assert solution_at(u, 0) == sols[id(u)]


def test_recopies_never_call_the_automaton():
    g = make_graph(6, [(1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6),
                       (2, 5), (1, 5)], [1, 2, 3, 2, 2, 1, 1, 4])
    v0, _ = version_for(g, "simple-path", s=1, t=6)

    def refuse(*args):
        raise AssertionError("automaton called after build")

    v0.automaton.delta = refuse
    v0.automaton.signature = refuse
    v0.automaton.leaf_table = refuse
    values = [best_pair(v0)[0]]
    frontier = [v0]
    while frontier:
        v = frontier.pop()
        second = best_pair(v)[1]
        if second is INF:
            continue
        values.append(second)
        rep = pivot_query(v)
        frontier += [constrain(v, rep, True), constrain(v, rep, False)]
    assert sorted(values) == [val for val, _ in enumerate_paths(g, 1, 6)]
    assert len(values) > 5
