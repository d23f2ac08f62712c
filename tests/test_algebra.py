"""Parse-tree construction and reference hypergraph semantics."""
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twkbest.algebra import ParseNode, build_parse_tree
from twkbest.core import WeightedGraph, edge, vertex
from twkbest.treedec import balance, heuristic_decomposition

from reference import (
    chain_decomposition,
    evaluate_hypergraph,
    hypergraph_matches_graph,
)
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
    # No bags: the expansion, as [root, nodes, introducer], is given.
    pt = ParseTree([], 1, 0, 2, g, [leaf, [leaf], {edge(1): leaf}])
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


ARITY = {"join": 2, "attach": 2, "fuse": 1, "proj": 1,
         "const0": 0, "vertex": 0, "edge": 0}


def test_fullness_and_unique_introducers():
    """Each operator has its arity (fuse and proj are unary), every vertex
    leaf introduces its vertex, and const0 is only ever a lone root."""
    g = make_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
    t = tree_for(g)
    for u in t.nodes:
        assert len(u.children) == ARITY[u.op[0]], u
        if u.op == ("vertex",):
            assert t.introducer[vertex(u.srcs[0])] is u
        if u.op == ("const0",):
            assert t.nodes == [u]
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
    """max_order <= max_bag + 1 holds for these three graphs only; it is not
    a general bound (65 of 218 seeded graphs exceed it).  The general bound,
    2 max_bag, is test_order_at_most_twice_the_largest_bag's."""
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


def test_no_join_has_an_empty_child():
    """A bag with no parts gives no fragment, so no join takes a bare
    const0 leaf (every automaton maps such a join to the identity)."""
    for name in ("path", "cycle", "grid-strip"):
        for n in (16, 64, 256):
            g, td = _family(name, n, random.Random(n))
            for d in (td, heuristic_decomposition(g)):
                t = build_parse_tree(balance(d, g), g)
                assert not [u.nid for u in t.nodes if u.op == ("join",)
                            and any(c.op == ("const0",) for c in u.children)]


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


def _front_end_cases():
    """The perfbench families at n = 64 and 1024, each on its chain and its
    min-fill decomposition, then 50 seeded random multigraphs (self-loops,
    parallel edges, isolated vertices, both orientations) on min-fill."""
    for name in ("path", "cycle", "grid-strip"):
        for n in (64, 1024):
            g, td = _family(name, n, random.Random(n))
            yield name, g, td
            yield name, g, heuristic_decomposition(g)
    rng = random.Random(19)
    for i in range(50):
        n = rng.randint(1, 40)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n))
                           for _ in range(rng.randint(0, 2 * n))],
                       directed=i % 2 == 1)
        yield "random", g, heuristic_decomposition(g)


# sha256 prefixes of the balanced decompositions and parse trees of
# _front_end_cases, per group.  A change that alters their shape on purpose
# re-pins these and says why.
FRONT_END_DIGESTS = {
    "path": ("fcd9b0f56db94a43", "dba949090fce4edd"),
    "cycle": ("a983f92cbf460cb7", "a5650faebe70b23c"),
    "grid-strip": ("eb5d680e5934f921", "e094e0216c9196f0"),
    "random": ("2efae373cb3b91eb", "2ba143ec191506eb"),
}


def test_front_end_output_is_pinned():
    """balance and build_parse_tree give the same decompositions (bags,
    children, root) and the same parse trees, node for node, as when the
    digests were taken; tie orders and golden rows rest on them."""
    hashes = {}
    for group, g, td in _front_end_cases():
        hb, ht = hashes.setdefault(group, (hashlib.sha256(), hashlib.sha256()))
        sd = balance(td, g)
        hb.update(repr((sorted((b, sorted(vs)) for b, vs in sd.bags.items()),
                        sorted(sd.children.items()), sd.root)).encode())
        t = build_parse_tree(sd, g)
        for u in t.nodes:
            ht.update(repr((u.nid, u.op, [c.nid for c in u.children], u.srcs,
                            u.feature)).encode())
        ht.update(repr((t.root.nid, t.depth, t.max_order)).encode())
    got = {group: (hb.hexdigest()[:16], ht.hexdigest()[:16])
           for group, (hb, ht) in hashes.items()}
    assert got == FRONT_END_DIGESTS
