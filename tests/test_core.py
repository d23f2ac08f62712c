import pytest
from hypothesis import given, strategies as st

from twkbest.core import (
    EDGE, VERTEX, CostModel, FeatureId, GraphFormatError, WeightOverflowError,
    check_int64, edge, load_graph, make_solution, parse_feature, save_graph, solution_value,
    undirected_shadow, vertex,
)

K3_TEXT = """p kbest 3 3 0
e 1 2 1
e 2 3 1
e 1 3 5
"""


def test_load_k3():
    g = load_graph(K3_TEXT)
    assert (g.n, g.m, g.directed) == (3, 3, False)
    assert g.edges == ((1, 2), (2, 3), (1, 3))
    assert g.weight(edge(3)) == 5
    assert g.weight(vertex(1)) == 0


def test_load_single_vertex():
    g = load_graph("p kbest 1 0 0\n")
    assert (g.n, g.m) == (1, 0)


def test_load_directed_negative_weight():
    g = load_graph("p kbest 2 1 1\ne 1 2 -4\n")
    assert g.directed
    assert g.weight(edge(1)) == -4


@pytest.mark.parametrize("text,msg", [
    ("p kbest x 0 0\n", "non-integer"),
    ("p kbest 2 1 0\ne 1 5 0\n", "out of range"),
    ("p kbest 2 2 0\ne 1 2 0\n", "declares 2 edges"),
    ("e 1 2 0\n", "before header"),
    ("", "missing"),
])
def test_load_errors(text, msg):
    with pytest.raises(GraphFormatError, match=msg):
        load_graph(text)


def test_roundtrip_stable():
    g = load_graph(K3_TEXT)
    assert save_graph(g) == K3_TEXT
    text2 = "c a comment\n" + K3_TEXT
    assert save_graph(load_graph(text2)) == K3_TEXT


def test_undirected_shadow():
    g = load_graph("p kbest 2 2 1\ne 1 2 3\ne 2 1 4\n")
    sh = undirected_shadow(g)
    assert not sh.directed
    assert sh.edges == g.edges and sh.weight(edge(2)) == 4
    und = load_graph(K3_TEXT)
    assert undirected_shadow(und) is und


def test_solution_value():
    g = load_graph(K3_TEXT)
    c = CostModel.edge_costs(g)
    assert solution_value(make_solution([]), c) == 0
    assert solution_value(make_solution([edge(1), edge(2)]), c) == 2


def test_solution_value_kind_mismatch():
    c = CostModel(EDGE, {})
    with pytest.raises(ValueError):
        solution_value(make_solution([vertex(1)]), c)


def test_overflow_checked():
    # Sums are exact; only reported values are range-checked (in kbest).
    c = CostModel(EDGE, {edge(1): 2**62, edge(2): 2**62})
    assert solution_value(make_solution([edge(1), edge(2)]), c) == 2**63
    with pytest.raises(WeightOverflowError):
        check_int64(2**63)


def test_solution_value_additive():
    c = CostModel(EDGE, {edge(i): i * 7 - 3 for i in range(1, 6)})
    s1 = make_solution([edge(1), edge(3)])
    s2 = make_solution([edge(2), edge(5)])
    joint = make_solution([edge(1), edge(2), edge(3), edge(5)])
    assert solution_value(joint, c) == solution_value(s1, c) + solution_value(s2, c)


features = st.builds(FeatureId,
                     kind=st.sampled_from([VERTEX, EDGE]),
                     index=st.integers(min_value=1, max_value=50))


@given(features, features, features)
def test_feature_order_strict_total(a, b, c):
    assert (a < b) or (b < a) or a == b
    if a < b:
        assert not b < a
    if a < b and b < c:
        assert a < c


def test_feature_order_vertex_before_edge():
    assert vertex(99) < edge(1)
    assert parse_feature("v3") == vertex(3)
    assert parse_feature("e12") == edge(12)
