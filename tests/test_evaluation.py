"""Evaluation structures and the bottom-up evaluation with IDs."""
import random

import pytest

from twkbest.core import CostModel, WeightedGraph, edge
from twkbest.treedec import balance, heuristic_decomposition
from twkbest.algebra import build_parse_tree
from twkbest.problems import builtin
from twkbest.evaluation import (
    INF,
    Evaluator,
    TopKStructure,
    combine2,
    combine_k,
    merge2,
    merge_k,
    reconstruct,
    root_values,
)


def make_graph(n, edges, weights=None, directed=False):
    w = weights or [1] * len(edges)
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): wi for i, wi in enumerate(w, 1)},
    )


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)], [1, 1, 5])
P3 = make_graph(3, [(1, 2), (2, 3)])


def build(g, problem, **kw):
    k = kw.pop("k", 2)
    t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
    a = builtin(problem, g, **kw)
    cost = CostModel.edge_costs(g) if a.kind == "e" else CostModel.vertex_costs(g)
    return Evaluator(a, cost, TopKStructure(k)).build(t), a, t


# --- structure operators ----------------------------------------------------

def test_combine2_examples():
    assert combine2((1, 4), (2, 3)) == (3, 4)
    assert combine2((0, INF), (7, 9)) == (7, 9)
    assert combine2((5, INF), (1, INF)) == (6, INF)


def test_merge2_examples():
    assert merge2((1, 3), (2, 5)) == (1, 2)
    assert merge2((INF, INF), (4, 7)) == (4, 7)
    assert merge2((2, 2), (2, 9)) == (2, 2)


def test_topk_examples():
    assert combine_k((1, 2, INF), (0, 5, INF), 3) == (1, 2, 6)
    assert merge_k((1, 2, 3), (2, 2, 9), 3) == (1, 2, 2)
    x = (4, 8, INF)
    assert combine_k((0, INF, INF), x, 3) == x


def test_combine2_second_is_second_smallest_pairwise_sum():
    rng = random.Random(3)
    for _ in range(2000):
        a = tuple(sorted(rng.choice([rng.randint(-50, 50), INF]) for _ in range(2)))
        b = tuple(sorted(rng.choice([rng.randint(-50, 50), INF]) for _ in range(2)))
        sums = sorted(x + y for x in a for y in b if x is not INF or y is not INF)
        sums += [INF, INF]
        assert combine2(a, b) == (sums[0], sums[1])


def test_structure_monoid_laws():
    rng = random.Random(11)
    s = TopKStructure(3)

    def rand():
        vals = [rng.choice([rng.randint(-100, 100), INF]) for _ in range(3)]
        return tuple(sorted(vals))

    for _ in range(2000):
        a, b, c = rand(), rand(), rand()
        assert s.merge(s.merge(a, b), c) == s.merge(a, s.merge(b, c))
        assert s.combine(s.combine(a, b), c) == s.combine(a, s.combine(b, c))
        assert s.merge(a, s.merge_identity) == a
        assert s.combine(a, s.combine_identity) == a
        assert s.combine(s.combine_identity, a) == a
        assert s.merge(a, b) == s.merge(b, a)


# --- evaluation -------------------------------------------------------------

def test_k3_simple_path_top2():
    root, a, _ = build(K3, "simple-path", s=1, t=3)
    assert root.table[a.root_state()] == (2, 5)


def test_p3_single_path():
    root, a, _ = build(P3, "simple-path", s=1, t=3)
    assert root.table[a.root_state()] == (2, INF)


def test_matching_infeasible_root():
    root, a, _ = build(P3, "perfect-matching")
    assert root_values(root, a) == ()


def test_reconstruct_k3_ranks():
    root, a, _ = build(K3, "simple-path", s=1, t=3)
    q = a.root_state()
    assert reconstruct(root, q, 0).sets[0] == frozenset({edge(1), edge(2)})
    assert reconstruct(root, q, 1).sets[0] == frozenset({edge(3)})


def test_reconstruct_infinite_rank_rejected():
    root, a, _ = build(P3, "simple-path", s=1, t=3)
    with pytest.raises(ValueError):
        reconstruct(root, a.root_state(), 1)


def test_constraints_filter_at_introducing_leaf():
    t = build_parse_tree(balance(heuristic_decomposition(K3), K3), K3)
    a = builtin("simple-path", K3, 1, 3)
    cost = CostModel.edge_costs(K3)
    ev = Evaluator(a, cost, TopKStructure(2))
    without = ev.build(t, {edge(3): False})
    assert without.table[a.root_state()] == (2, INF)
    forced = ev.build(t, {edge(3): True})
    assert forced.table[a.root_state()] == (5, INF)
    assert reconstruct(forced, a.root_state(), 0).sets[0] == frozenset({edge(3)})


def _denotations(node):
    out = {}
    for q, vals in node.table.items():
        for r, v in enumerate(vals):
            if v is INF:
                break
            out[(q, r)] = reconstruct(node, q, r)
    return out


def all_eval_nodes(root):
    seen, order = set(), []
    stack = [root]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        order.append(u)
        stack.extend(u.children)
    return order


@pytest.mark.parametrize("problem,kw", [
    ("simple-path", dict(s=1, t=4)),
    ("spanning-tree", {}),
    ("vertex-cover", {}),
    ("perfect-matching", {}),
])
def test_solution_ids_discriminate(problem, kw):
    rng = random.Random(hash(problem) & 0xFFFF)
    for _ in range(15):
        n = rng.randint(4, 7)
        m = rng.randint(3, 10)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                       [rng.randint(-5, 9) for _ in range(m)])
        root, a, _ = build(g, problem, k=2, **kw)
        for node in all_eval_nodes(root):
            den = _denotations(node)
            for (q1, r1), s1 in den.items():
                for (q2, r2), s2 in den.items():
                    same_id = node.ids[q1][r1] == node.ids[q2][r2]
                    assert same_id == (s1 == s2)


def test_reconstruction_value_matches_table():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, 10)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                       [rng.randint(-20, 100) for _ in range(m)])
        s, t = (1, n) if n >= 2 else (1, 1)
        if s == t:
            continue
        root, a, _ = build(g, "simple-path", s=s, t=t, k=4)
        cost = CostModel.edge_costs(g)
        q = a.root_state()
        for r, v in enumerate(root.table.get(q, ())):
            if v is INF:
                break
            sol = reconstruct(root, q, r)
            from twkbest.core import solution_value
            assert solution_value(sol, cost) == v
