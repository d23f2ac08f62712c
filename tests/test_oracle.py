"""Reference enumeration sanity checks on hand-countable instances."""
import random

import pytest

from twkbest.core import WeightedGraph, edge, vertex
from twkbest.oracle import (
    OracleCapExceeded,
    enumerate_paths,
    enumerate_sorted,
    is_perfect_matching,
    is_simple_path,
    is_spanning_tree,
    is_vertex_cover,
    predicate_for,
)


def make_graph(n, edges, weights=None, directed=False):
    w = weights or [1] * len(edges)
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): wi for i, wi in enumerate(w, 1)},
    )


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)], [1, 3, 2])
K4 = make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def test_k3_paths():
    pred, kind = predicate_for("simple-path", 1, 3)
    sols = enumerate_sorted(K3, pred, kind)
    assert [v for v, _ in sols] == [2, 4]
    assert sols[0][1] == frozenset({edge(3)})
    assert sols[1][1] == frozenset({edge(1), edge(2)})


def test_dfs_enumeration_agrees_with_subset_enumeration():
    """On K3, then on seeded multigraphs with self-loops and parallel
    edges, in both orientations, for any s and t, s = t included."""
    pred, kind = predicate_for("simple-path", 1, 3)
    assert enumerate_paths(K3, 1, 3) == enumerate_sorted(K3, pred, kind)
    rng = random.Random("dfs against subsets")
    for i in range(200):
        n = rng.randint(1, 6)
        edges = []
        for _ in range(rng.randint(0, 10)):
            if edges and rng.random() < 0.2:
                edges.append(rng.choice(edges))      # a parallel edge
            else:
                edges.append((rng.randint(1, n), rng.randint(1, n)))
        g = make_graph(n, edges, [rng.randint(-3, 3) for _ in edges],
                       directed=i % 2 == 1)
        s, t = rng.randint(1, n), rng.randint(1, n)
        pred, kind = predicate_for("simple-path", s, t)
        assert enumerate_paths(g, s, t) == enumerate_sorted(g, pred, kind)


def test_directed_path_respects_orientation():
    g = make_graph(3, [(1, 2), (3, 2)], directed=True)
    assert enumerate_paths(g, 1, 3) == []
    assert is_simple_path(g, frozenset({edge(1)}), 1, 2)
    assert not is_simple_path(g, frozenset({edge(2)}), 2, 3)


def test_k4_has_sixteen_spanning_trees():
    sols = enumerate_sorted(K4, is_spanning_tree, "e")
    assert len(sols) == 16
    assert all(v == 3 for v, _ in sols)


def test_k3_spanning_tree_values():
    sols = enumerate_sorted(K3, is_spanning_tree, "e")
    assert [v for v, _ in sols] == [3, 4, 5]


def test_perfect_matching_counts():
    g = make_graph(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    sols = enumerate_sorted(g, is_perfect_matching, "e")
    assert len(sols) == 2
    assert not is_perfect_matching(K3, frozenset({edge(1)}))


def test_vertex_cover_on_triangle():
    sols = enumerate_sorted(K3, is_vertex_cover, "v")
    # any two vertices cover K3; one vertex never does
    sizes = sorted(len(s) for _, s in sols)
    assert sizes == [2, 2, 2, 3]
    assert is_vertex_cover(K3, frozenset({vertex(1), vertex(2)}))
    assert not is_vertex_cover(K3, frozenset({vertex(1)}))


def test_more_than_2_to_the_20_candidates_are_refused_at_once():
    """21 vertices give 2^21 vertex sets: refused before any is checked."""
    def unreachable(g, fs):
        raise AssertionError("a candidate set was checked")

    g = make_graph(21, [(v, v + 1) for v in range(1, 21)])
    with pytest.raises(OracleCapExceeded):
        enumerate_sorted(g, unreachable, "v")


def test_self_loops_rejected_everywhere():
    g = make_graph(2, [(1, 1), (1, 2)])
    assert not is_simple_path(g, frozenset({edge(1), edge(2)}), 1, 2)
    assert not is_spanning_tree(g, frozenset({edge(1)}))
    assert not is_perfect_matching(g, frozenset({edge(1), edge(2)}))


def test_unknown_problem_rejected():
    with pytest.raises(ValueError):
        predicate_for("tour")
    with pytest.raises(ValueError):
        predicate_for("simple-path")
