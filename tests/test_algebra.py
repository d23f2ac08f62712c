"""Parse-tree construction and reference hypergraph semantics."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twkbest.algebra import (
    Hypergraph,
    ParseNode,
    build_parse_tree,
    evaluate_hypergraph,
    hypergraph_matches_graph,
)
from twkbest.core import WeightedGraph, edge, vertex
from twkbest.treedec import balance, chain_decomposition, heuristic_decomposition

from test_acceptance import _family


def make_graph(n, edges, directed=False):
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): 1 for i in range(1, len(edges) + 1)},
    )


def tree_for(g):
    td = heuristic_decomposition(g)
    return build_parse_tree(balance(td, g), g)


def test_single_edge_leaf_semantics():
    leaf = ParseNode(("edge", "undir"), (), (1, 2), edge(1), nid=0)
    t = type("T", (), {})()
    g = make_graph(2, [(1, 2)])
    from twkbest.algebra import ParseTree
    pt = ParseTree(leaf, [leaf], 0, 2, {edge(1): leaf}, g)
    h = evaluate_hypergraph(pt)
    assert len(h.verts) == 2
    assert list(h.hyperedges) == [edge(1)]
    lab, atoms = h.hyperedges[edge(1)]
    assert lab == "undir"
    assert h.src == atoms


def test_fuse_makes_self_loop():
    g = make_graph(1, [(1, 1)])
    t = tree_for(g)
    h = evaluate_hypergraph(t)
    assert len(h.verts) == 1
    (lab, (a1, a2)), = h.hyperedges.values()
    assert a1 == a2
    assert hypergraph_matches_graph(h, g)


@pytest.mark.parametrize("directed", [False, True])
def test_triangle_reconstruction(directed):
    g = make_graph(3, [(1, 2), (2, 3), (3, 1)], directed)
    t = tree_for(g)
    h = evaluate_hypergraph(t)
    assert hypergraph_matches_graph(h, g)


def test_reversed_edge_not_isomorphic_when_directed():
    g = make_graph(2, [(1, 2)], directed=True)
    t = tree_for(g)
    h = evaluate_hypergraph(t)
    g_rev = make_graph(2, [(2, 1)], directed=True)
    assert hypergraph_matches_graph(h, g)
    assert not hypergraph_matches_graph(h, g_rev)


def test_fullness_and_unique_introducers():
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
    t = tree_for(g)
    for u in t.nodes:
        assert len(u.children) in (0, 2)
    feats = [u.feature for u in t.nodes if u.feature is not None]
    assert len(feats) == len(set(feats))
    assert set(feats) == {vertex(v) for v in range(1, 6)} | {edge(i) for i in range(1, 7)}
    for f in feats:
        assert t.introducer[f].feature == f
    assert vertex(9) not in t.introducer


def test_root_has_no_sources():
    g = make_graph(4, [(1, 2), (2, 3), (3, 4)])
    t = tree_for(g)
    assert t.root.order == 0


def test_order_bound_against_bag_size():
    for edges, n in [
        ([(i, i + 1) for i in range(1, 30)], 30),                 # path
        ([(i, i + 1) for i in range(1, 10)] + [(10, 1)], 10),     # cycle
        ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 4),    # K4
    ]:
        g = make_graph(n, edges)
        td = heuristic_decomposition(g)
        sd = balance(td, g)
        t = build_parse_tree(sd, g)
        max_bag = max(len(b) for b in sd.bags.values())
        assert t.max_order <= max_bag + 1, (t.max_order, max_bag)


def test_order_at_most_twice_the_largest_bag():
    """A bag gadget joins parts whose sources are distinct vertices of the
    bag, so a join's order is at most |bag| + the part's order <= 2 |bag|."""
    graphs = []
    for name in ("path", "cycle", "grid-strip"):
        for n in (16, 64, 256):
            g, td = _family(name, n, random.Random(n))
            graphs += [(g, td), (g, heuristic_decomposition(g))]
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 40)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n))
                           for _ in range(rng.randint(0, 2 * n))])
        graphs.append((g, heuristic_decomposition(g)))
    for g, td in graphs:
        sd = balance(td, g)
        t = build_parse_tree(sd, g)
        max_bag = max(len(b) for b in sd.bags.values())
        assert t.max_order <= 2 * max_bag, (t.max_order, max_bag)


def test_depth_logarithmic_on_chain():
    n = 1 << 12
    g = make_graph(n, [(i, i + 1) for i in range(1, n)])
    sd = balance(chain_decomposition(g), g)
    t = build_parse_tree(sd, g)
    # decomposition depth is O(log n); each bag contributes a constant-size
    # gadget, so parse depth is a constant multiple of it
    assert t.depth <= 3 * (sd.depth + 1) * (sd.width + 3)
    assert t.depth <= 40 * math.log2(n)


def test_disconnected_graph_reconstruction():
    g = make_graph(5, [(1, 2), (4, 5)])
    t = tree_for(g)
    assert hypergraph_matches_graph(evaluate_hypergraph(t), g)


def test_isolated_vertices_get_introducers():
    g = make_graph(3, [])
    t = tree_for(g)
    h = evaluate_hypergraph(t)
    assert sorted(h.verts.values()) == [1, 2, 3]
    assert hypergraph_matches_graph(h, g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_graph_reconstruction(data):
    n = data.draw(st.integers(1, 9))
    m = data.draw(st.integers(0, 14))
    directed = data.draw(st.booleans())
    edges = [
        (data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
        for _ in range(m)
    ]
    g = make_graph(n, edges, directed)
    td = heuristic_decomposition(g)
    sd = balance(td, g)
    t = build_parse_tree(sd, g)
    h = evaluate_hypergraph(t)
    assert hypergraph_matches_graph(h, g)
    feats = [u.feature for u in t.nodes if u.feature is not None]
    assert len(feats) == len(set(feats)) == n + m
