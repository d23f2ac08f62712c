"""Best-first k-best driver against the brute-force reference."""
import random

import pytest

from twkbest.core import WeightedGraph, edge
from twkbest.kbest import RunStats, exhaust, k_best, k_best_direct
from twkbest import oracle


def make_graph(n, edges, weights=None, directed=False):
    w = weights or [1] * len(edges)
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): wi for i, wi in enumerate(w, 1)},
    )


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)], [1, 1, 5])


def test_k3_paths_exhausts_at_two():
    stats = RunStats()
    got = k_best(K3, "simple-path", 5, s=1, t=3, stats=stats)
    assert [v for v, _ in got] == [2, 5]
    assert stats.exhausted_after == 2


def test_k3_spanning_trees():
    got = k_best(K3, "spanning-tree", 3)
    assert [v for v, _ in got] == [2, 6, 6]


def test_k1_no_expansions():
    stats = RunStats()
    got = k_best(K3, "spanning-tree", 1, stats=stats)
    assert [v for v, _ in got] == [2]
    assert stats.expansions == 0


def test_infeasible_instance():
    g = make_graph(3, [(1, 2), (2, 3)])
    stats = RunStats()
    assert k_best(g, "perfect-matching", 4, stats=stats) == []
    assert stats.infeasible
    assert k_best_direct(g, "perfect-matching", 4) == []


def test_solutions_distinct_and_feasible():
    g = make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                   [3, 1, 4, 1, 5, 9])
    got = k_best(g, "spanning-tree", 16, want_solutions=True)
    sols = [s for _, s in got]
    assert len(sols) == 16 == len(set(sols))
    for v, s in got:
        assert oracle.is_spanning_tree(g, s.sets[0])
        assert sum(g.weights[f] for f in s.sets[0]) == v


def test_direct_matches_bestfirst():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, 10)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                       [rng.randint(-20, 100) for _ in range(m)],
                       directed=rng.random() < 0.4)
        s, t = rng.sample(range(1, n + 1), 2)
        for k in (1, 2, 4, 8):
            direct = k_best_direct(g, "simple-path", k, s=s, t=t)
            best = [v for v, _ in k_best(g, "simple-path", k, s=s, t=t)]
            assert direct == best


def test_direct_k_limit():
    with pytest.raises(ValueError):
        k_best_direct(K3, "spanning-tree", 65)
    with pytest.raises(ValueError):
        k_best(K3, "spanning-tree", 0)


def test_exhaust_order_independent():
    g = make_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                   [2, 7, 1, 8, 2, 8])
    ref, _ = exhaust(g, "spanning-tree", order="best")
    pred, kind = oracle.predicate_for("spanning-tree")
    assert ref == [v for v, _ in oracle.enumerate_sorted(g, pred, kind)]
    for order in ("dfs", "random"):
        got, _ = exhaust(g, "spanning-tree", order=order,
                         rng=random.Random(4))
        assert got == ref


def test_full_sequence_matches_oracle():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 7)
        m = rng.randint(0, 10)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                       [rng.randint(-20, 100) for _ in range(m)])
        problem = rng.choice(["spanning-tree", "perfect-matching", "vertex-cover"])
        pred, kind = oracle.predicate_for(problem)
        want = [v for v, _ in oracle.enumerate_sorted(g, pred, kind)]
        k = max(1, len(want))
        stats = RunStats()
        got = k_best(g, problem, k, want_solutions=True, stats=stats)
        assert [v for v, _ in got] == want
        assert stats.expansions <= 2 * k
        if stats.expansions:
            assert stats.max_copies <= stats.tree_depth + 1
        sols = [s for _, s in got]
        assert len(set(sols)) == len(sols)
