import pytest
from hypothesis import given, strategies as st

from twkbest.core import (
    EDGE, VERTEX, GraphFormatError, WeightedGraph, WeightOverflowError,
    check_int64, edge, load_graph, parse_feature, vertex,
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
    assert g.value([edge(3)]) == 5
    assert g.value([vertex(1)]) == 0


def test_load_single_vertex():
    g = load_graph("p kbest 1 0 0\n")
    assert (g.n, g.m) == (1, 0)


def test_load_directed_negative_weight():
    g = load_graph("p kbest 2 1 1\ne 1 2 -4\n")
    assert g.directed
    assert g.value([edge(1)]) == -4


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
    text2 = "c a comment\n" + K3_TEXT
    assert load_graph(text2) == load_graph(K3_TEXT)


def test_solution_value():
    g = load_graph(K3_TEXT)
    assert g.value([]) == 0
    assert g.value([edge(1), edge(2)]) == 2


def test_overflow_checked():
    # Sums are exact; only reported values are range-checked (in kbest).
    g = WeightedGraph(2, 2, False, ((1, 2), (1, 2)),
                      {edge(1): 2**62, edge(2): 2**62})
    assert g.value([edge(1), edge(2)]) == 2**63
    with pytest.raises(WeightOverflowError):
        check_int64(2**63)


def test_solution_value_additive():
    g = WeightedGraph(2, 5, False, ((1, 2),) * 5,
                      {edge(i): i * 7 - 3 for i in range(1, 6)})
    s1, s2 = [edge(1), edge(3)], [edge(2), edge(5)]
    assert g.value(s1 + s2) == g.value(s1) + g.value(s2)


features = st.builds(lambda make, i: make(i), st.sampled_from([vertex, edge]),
                     st.integers(min_value=1, max_value=50))


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


@pytest.mark.parametrize("name", ["x3", "v", "vx", "e0", "v-1"])
def test_parse_feature_rejects(name):
    with pytest.raises(ValueError, match="bad feature name"):
        parse_feature(name)


@pytest.mark.parametrize("fid,name,kind", [(vertex(7), "v7", VERTEX),
                                           (edge(12), "e12", EDGE)])
def test_parse_feature_roundtrips_repr(fid, name, kind):
    assert repr(fid) == name and fid.kind == kind
    assert parse_feature(name) == fid
