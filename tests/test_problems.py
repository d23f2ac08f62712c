"""Automaton contracts: accumulating explicit solution sets bottom-up through
the fitting pairs must reproduce the oracle's feasible families exactly, with
no duplicate solution at any (node, state)."""
import random

import pytest

from twkbest.core import EDGE, VERTEX, WeightedGraph, edge
from twkbest.treedec import balance, heuristic_decomposition
from twkbest.algebra import build_parse_tree
from twkbest.problems import (
    BUILTIN_PROBLEMS,
    SpanningTreeAutomaton,
    builtin,
)
from twkbest import oracle


def make_graph(n, edges, directed=False):
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): 1 for i in range(1, len(edges) + 1)},
    )


def accumulate(tree, automaton):
    """Explicit per-(node, state) solution sets; asserts no duplicates."""
    acc = {}
    for pnode in tree.nodes:
        if pnode.is_leaf():
            table = {q: [frozenset({pnode.feature}) if bit else frozenset()
                         for bit in bits]
                     for q, bits in automaton.leaf_table(pnode.op).items()}
        else:
            sig = automaton.signature(pnode.op, pnode.children[0].srcs)
            a1 = acc[pnode.children[0].nid]
            table = {}
            if len(pnode.children) == 1:     # fuse, proj
                for q1, sols in a1.items():
                    q = automaton.delta(sig, q1)
                    if q is not None:
                        table.setdefault(q, []).extend(sols)
            else:
                a2 = acc[pnode.children[1].nid]
                for q1 in a1:
                    for q2 in a2:
                        q = automaton.delta(sig, q1, q2)
                        if q is None:
                            continue
                        table.setdefault(q, []).extend(
                            s1 | s2 for s1 in a1[q1] for s2 in a2[q2])
        for q, sols in table.items():
            assert len(sols) == len(set(sols)), \
                f"duplicate solution at node {pnode.nid} state {q!r}"
        acc[pnode.nid] = table
    return acc


def check_against_oracle(g, problem, s=None, t=None):
    tree = build_parse_tree(balance(heuristic_decomposition(g), g), g)
    automaton = builtin(problem, g, s, t)
    acc = accumulate(tree, automaton)
    got = set(acc[tree.root.nid].get(automaton.root_state(), []))
    pred, kind = oracle.predicate_for(problem, s, t)
    want = {fs for _, fs in oracle.enumerate_sorted(g, pred, kind)}
    assert got == want


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)])
P3 = make_graph(3, [(1, 2), (2, 3)])


def test_simple_path_k3_feasible_sets():
    check_against_oracle(K3, "simple-path", 1, 3)


def test_spanning_tree_k3():
    check_against_oracle(K3, "spanning-tree")


def test_perfect_matching_p3_infeasible():
    tree = build_parse_tree(balance(heuristic_decomposition(P3), P3), P3)
    a = builtin("perfect-matching", P3)
    acc = accumulate(tree, a)
    assert acc[tree.root.nid].get(a.root_state(), []) == []


def test_vertex_cover_triangle():
    check_against_oracle(K3, "vertex-cover")


def test_directed_path():
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)], directed=True)
    check_against_oracle(g, "simple-path", 1, 3)
    check_against_oracle(g, "simple-path", 3, 1)


def test_terminal_validation():
    with pytest.raises(ValueError):
        builtin("simple-path", K3, 1, 1)
    with pytest.raises(ValueError):
        builtin("simple-path", K3, 1, 9)
    with pytest.raises(ValueError):
        builtin("simple-path", K3)
    with pytest.raises(ValueError):
        builtin("tour", K3)


def test_leaf_table_rejects_inner_nodes():
    tree = build_parse_tree(balance(heuristic_decomposition(K3), K3), K3)
    a = builtin("spanning-tree", K3)
    inner = next(n for n in tree.nodes if not n.is_leaf())
    with pytest.raises(ValueError):
        a.leaf_table(inner.op)
    leaf = next(n for n in tree.nodes if n.is_leaf())
    with pytest.raises(ValueError):
        a.signature(leaf.op, ())


def test_spanning_tree_fuse_merges_blocks():
    a = SpanningTreeAutomaton()
    # fusing the two sources of a 2-source fragment: states whose blocks are
    # separate merge into one; same-block states are rejected (cycle)
    sig = ("fuse", 0, 1)
    assert a.delta(sig, ((0,), (1,))) == ((0,),)
    assert a.delta(sig, ((0, 1),)) is None


@pytest.mark.parametrize("problem", BUILTIN_PROBLEMS)
def test_small_graph_sweep(problem):
    rng = random.Random(problem)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(0, 4)
        directed = rng.random() < 0.5
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n))
                           for _ in range(m)], directed)
        if problem == "simple-path":
            if n < 2:
                continue
            s, t = rng.sample(range(1, n + 1), 2)
            check_against_oracle(g, problem, s, t)
        else:
            check_against_oracle(g, problem)


@pytest.mark.parametrize("problem", BUILTIN_PROBLEMS)
def test_a_leaf_table_lists_membership_bits(problem):
    """``leaf_table``'s contract, for both leaf ops and both edge labels:
    each state lists a nonempty tuple of distinct bools, False first, and a
    leaf whose element is not of the automaton's kind lists only (False,)."""
    for directed in (False, True):
        g = make_graph(2, [(1, 2)], directed)
        a = builtin(problem, g, *((1, 2) if problem == "simple-path" else ()))
        label = "fwd" if directed else "undir"
        for op, kind in ((("vertex",), VERTEX), (("edge", label), EDGE)):
            table = a.leaf_table(op)
            assert table, op
            for bits in table.values():
                assert type(bits) is tuple and bits, (op, bits)
                assert all(type(b) is bool for b in bits), (op, bits)
                assert list(bits) == sorted(set(bits)), (op, bits)
                if kind != a.kind:
                    assert bits == (False,), (op, bits)
