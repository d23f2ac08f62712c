"""Best-first k-best driver against the brute-force reference."""
import gc
import random

import pytest

from twkbest.core import WeightOverflowError, WeightedGraph, edge
from twkbest.kbest import RunStats, k_best, k_best_direct
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
        assert oracle.is_spanning_tree(g, s)
        assert sum(g.weights[f] for f in s) == v


@pytest.mark.parametrize("directed", [False, True])
def test_solutions_on_a_long_strip_are_distinct_simple_paths(directed):
    """k = 200 paths 1 -> n on a 2 x 512 grid strip (directed: edges from the
    lower-numbered end) with its width-3 chain decomposition: each solution,
    found by difference from an earlier one, is a new simple path whose
    weights sum to its value."""
    from twkbest.treedec import TreeDecomposition
    rng = random.Random(512)
    n = 1024
    edges = ([(2 * i - 1, 2 * i) for i in range(1, n // 2 + 1)]
             + [(v, v + 2) for v in range(1, n - 1)])
    g = make_graph(n, edges, [rng.randint(1, 50) for _ in edges], directed)
    td = TreeDecomposition(
        {i: frozenset({2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2})
         for i in range(1, n // 2)}, {(i, i + 1) for i in range(1, n // 2 - 1)})
    got = k_best(g, "simple-path", 200, s=1, t=n, want_solutions=True, td=td)
    assert len(got) == 200
    assert len({sol for _, sol in got}) == 200
    for value, sol in got:
        assert oracle.is_simple_path(g, sol, 1, n)
        assert g.value(sol) == value


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


def test_run_leaves_no_cycles_and_restores_collector():
    """The parse and evaluation trees are acyclic, so reference counting
    frees them when a run returns; the collector is paused during the run
    and left as it was found."""
    cycle = make_graph(8, [(i, i % 8 + 1) for i in range(1, 9)],
                       [3, 1, 4, 1, 5, 9, 2, 6])
    strip = make_graph(8, [(1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6),
                           (5, 6), (5, 7), (6, 8), (7, 8)],
                       [2, 7, 1, 8, 2, 8, 1, 8, 2, 8])
    overflow = make_graph(3, [(1, 2), (2, 3)], [2**63 - 1, 1])
    gc.collect()
    gc.disable()
    try:
        for g in (cycle, strip):
            got = k_best(g, "simple-path", 5, s=1, t=g.n,
                         want_solutions=True, stats=RunStats())
            assert len(got) >= 2
            assert gc.collect() == 0
            assert k_best_direct(g, "simple-path", 5, s=1, t=g.n)
            assert gc.collect() == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    k_best(strip, "simple-path", 3, s=1, t=8)
    assert gc.isenabled()
    with pytest.raises(WeightOverflowError):
        k_best(overflow, "simple-path", 1, s=1, t=3)
    assert gc.isenabled()


def test_bad_terminals_rejected_before_balancing(monkeypatch):
    def fail(*_):
        raise AssertionError("balance ran before the terminals were checked")
    monkeypatch.setattr("twkbest.kbest.balance", fail)
    for run in (k_best, k_best_direct):
        with pytest.raises(ValueError, match="^terminals must be distinct$"):
            run(K3, "simple-path", 2, s=1, t=1)
