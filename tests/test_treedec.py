import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twkbest.core import WeightedGraph, load_graph
from twkbest.treedec import (
    DEFAULT_C_DEPTH, TreeDecomposition, TreeDecompositionError, balance,
    chain_decomposition, heuristic_decomposition, load_td, save_td, validate,
)

K3 = load_graph("p kbest 3 3 0\ne 1 2 1\ne 2 3 1\ne 1 3 5\n")


def path_graph(n):
    return WeightedGraph(n, n - 1, False, tuple((i, i + 1) for i in range(1, n)))


def test_validate_k3_single_bag():
    td = TreeDecomposition({1: frozenset({1, 2, 3})})
    rep = validate(td, K3)
    assert rep.ok and rep.width == 2


def test_validate_uncovered_edge():
    td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({2, 3})}, {(1, 2)})
    rep = validate(td, K3)
    assert not rep.ok
    assert any("e3" in v for v in rep.violations)


def test_validate_missing_middle_edge():
    g = path_graph(3)
    td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({3})}, {(1, 2)})
    rep = validate(g=g, td=td)
    assert any("e2" in v for v in rep.violations)


def test_validate_disconnected_vertex_trace():
    g = WeightedGraph(3, 0, False, ())
    td = TreeDecomposition(
        {1: frozenset({1, 2}), 2: frozenset({3}), 3: frozenset({1})},
        {(1, 2), (2, 3)})
    rep = validate(td, g)
    assert any("vertex 1" in v for v in rep.violations)


def test_validate_bag_vertex_outside_graph():
    g = path_graph(3)
    td = TreeDecomposition({1: frozenset({1, 2, 99}), 2: frozenset({2, 3}),
                            3: frozenset({0, 3})}, {(1, 2), (2, 3)})
    rep = validate(td, g)
    assert not rep.ok
    assert "bag 1: vertex 99 outside 1..3" in rep.violations
    assert "bag 3: vertex 0 outside 1..3" in rep.violations


def test_validate_tree_edge_to_undeclared_bag():
    g = WeightedGraph(2, 1, False, ((1, 2),))
    rep = validate(load_td("s td 1 2 2\nb 1 1 2\n1 5\n"), g)
    assert not rep.ok
    assert "tree edge (1,5) references unknown bag" in rep.violations


def test_td_roundtrip():
    td = load_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert td.bags == {1: frozenset({1, 2}), 2: frozenset({2, 3})}
    assert td.tree_edges == {(1, 2)}
    again = load_td(save_td(td))
    assert again.bags == td.bags and again.tree_edges == td.tree_edges


@pytest.mark.parametrize("text,msg", [
    ("s td 2 2 3\nb\n", "line 2: bag line must be"),
    ("s td 1 2 2\nb x 1\n", "line 2: non-integer"),
    ("s td 1 2 2\nb 1 1 y\n", "line 2: non-integer"),
    ("s td a 2 3\n", "line 1: non-integer"),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 y\n", "line 4: non-integer"),
])
def test_load_td_errors(text, msg):
    with pytest.raises(TreeDecompositionError, match=msg):
        load_td(text)


def test_td_single_bag_parse():
    td = load_td("s td 1 3 3\nb 1 1 2 3\n")
    assert td.bags == {1: frozenset({1, 2, 3})}


def test_heuristic_path_width1():
    g = path_graph(5)
    td = heuristic_decomposition(g)
    assert validate(td, g).ok
    assert td.width() == 1


def test_heuristic_k4():
    g = WeightedGraph(4, 6, False, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    td = heuristic_decomposition(g)
    assert validate(td, g).ok
    assert td.width() == 3


def test_heuristic_grid_3x3():
    # vertices r*3+c+1
    edges = []
    for r in range(3):
        for c in range(3):
            v = r * 3 + c + 1
            if c < 2:
                edges.append((v, v + 1))
            if r < 2:
                edges.append((v, v + 3))
    g = WeightedGraph(9, len(edges), False, tuple(edges))
    td = heuristic_decomposition(g)
    assert validate(td, g).ok
    assert td.width() <= 3


def test_heuristic_disconnected():
    g = WeightedGraph(5, 2, False, ((1, 2), (4, 5)))
    td = heuristic_decomposition(g)
    assert validate(td, g).ok


def test_balance_single_bag():
    td = TreeDecomposition({1: frozenset({1, 2, 3})})
    sd = balance(td, K3)
    assert sd.depth == 0 and sd.width == 2
    assert validate(sd.to_tree_decomposition(), K3).ok


def test_balance_long_chain():
    g = path_graph(1024)
    td = chain_decomposition(g)
    assert len(td.bags) == 1023
    sd = balance(td, g)
    assert validate(sd.to_tree_decomposition(), g).ok
    assert sd.width <= 5
    assert sd.depth <= DEFAULT_C_DEPTH * 10
    assert all(len(cs) <= 2 for cs in sd.children.values())


def test_balance_star_decomposition():
    # one center bag, 100 leaf bags
    bags = {1: frozenset({1, 2})}
    edges = set()
    g_edges = []
    for i in range(100):
        bags[i + 2] = frozenset({2, 3 + i})
        edges.add((1, i + 2))
        g_edges.append((2, 3 + i))
    g_edges.append((1, 2))
    g = WeightedGraph(102, len(g_edges), False, tuple(g_edges))
    td = TreeDecomposition(bags, edges)
    assert validate(td, g).ok
    sd = balance(td, g)
    assert validate(sd.to_tree_decomposition(), g).ok
    assert sd.depth <= DEFAULT_C_DEPTH * 7


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    m = draw(st.integers(min_value=0, max_value=min(80, 2 * n)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    edges = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(m))
    return WeightedGraph(n, m, False, edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_fuzz_heuristic_and_balance(g):
    td = heuristic_decomposition(g)
    assert validate(td, g).ok
    sd = balance(td, g)
    assert validate(sd.to_tree_decomposition(), g).ok
    assert sd.width <= 3 * td.width() + 2
    assert sd.depth <= DEFAULT_C_DEPTH * math.ceil(math.log2(len(td.bags) + 1))
    covered = set().union(*sd.bags.values()) if sd.bags else set()
    assert covered == set(range(1, g.n + 1))
