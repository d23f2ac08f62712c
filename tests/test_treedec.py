import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from twkbest.core import WeightedGraph, load_graph
from twkbest.treedec import (
    DEFAULT_C_DEPTH, TreeDecomposition, TreeDecompositionError, balance,
    heuristic_decomposition, load_td, save_td, validate,
)

from reference import chain_decomposition

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


def reference_validate(td, g):
    """The plain check: a search over each vertex's bags and an intersection
    of holder sets per edge, with no top-bag shortcut.  validate must equal
    it, reports and their order included."""
    violations = []
    adj = td.neighbors()
    if td.bags:
        start = min(td.bags)
        seen, stack = {start}, [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != len(td.bags):
            violations.append(f"bag graph is disconnected ({len(seen)} of {len(td.bags)} bags reachable)")
        if len(td.tree_edges) != len(td.bags) - 1:
            violations.append(f"bag graph has {len(td.tree_edges)} edges for {len(td.bags)} bags (not a tree)")
    for a, b in td.tree_edges:
        if a not in td.bags or b not in td.bags:
            violations.append(f"tree edge ({a},{b}) references unknown bag")
    covered = set()
    for bid, b in td.bags.items():
        covered |= b
        for v in sorted(v for v in b if not 1 <= v <= g.n):
            violations.append(f"bag {bid}: vertex {v} outside 1..{g.n}")
    for v in range(1, g.n + 1):
        if v not in covered:
            violations.append(f"vertex {v} appears in no bag")
    holders = {}
    for bid, b in td.bags.items():
        for v in b:
            holders.setdefault(v, []).append(bid)
    for i, (t, h) in enumerate(g.edges, 1):
        if not set(holders.get(t, ())) & set(holders.get(h, ())):
            violations.append(f"edge e{i}=({t},{h}) has no bag containing both endpoints")
    for v, bag_ids in holders.items():
        want = set(bag_ids)
        seen, stack = {bag_ids[0]}, [bag_ids[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w in want and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != want:
            violations.append(f"vertex {v}: bags {sorted(want - seen)} disconnected from bag {bag_ids[0]}")
    return violations, td.width()


def corrupted(td, g, rng):
    """td, then one copy per corruption: a vertex dropped from an interior
    bag, a vertex added to a bag adjacent to none of its bags, a tree edge
    added, a tree edge removed, a vertex outside 1..n added."""
    bags, edges = td.bags, td.tree_edges
    adj = td.neighbors()
    ids = sorted(bags)
    yield td
    interior = [b for b in ids if len(adj[b]) >= 2 and bags[b]]
    if interior:
        b = rng.choice(interior)
        yield TreeDecomposition({**bags, b: bags[b] - {rng.choice(sorted(bags[b]))}}, edges)
    far = [(b, v) for b in ids for v in range(1, g.n + 1)
           if v not in bags[b] and not any(v in bags[a] for a in adj[b])
           and any(v in bags[a] for a in ids)]
    if far:
        b, v = rng.choice(far)
        yield TreeDecomposition({**bags, b: bags[b] | {v}}, edges)
    if len(ids) >= 3:
        a, b = rng.sample(ids, 2)
        yield TreeDecomposition(bags, edges | {(min(a, b), max(a, b))})
    if edges:
        yield TreeDecomposition(bags, edges - {rng.choice(sorted(edges))})
    b = rng.choice(ids)
    yield TreeDecomposition({**bags, b: bags[b] | {rng.choice([0, -1, g.n + 1])}}, edges)


def test_validate_equals_the_plain_check():
    """The top-bag shortcut changes no report: over min-fill decompositions
    of seeded random multigraphs (disconnected ones have their roots linked
    through empty bags) and one-corruption copies of each."""
    rng = random.Random(19)
    cases = invalid = 0
    for i in range(120):
        n = rng.randint(1, 30)
        cut = rng.randint(1, n)          # edges stay within 1..cut or beyond
        edges = []
        for _ in range(rng.randint(0, 2 * n)):
            lo, hi = (1, cut) if rng.random() < 0.5 or cut == n else (cut + 1, n)
            edges.append((rng.randint(lo, hi), rng.randint(lo, hi)))
        g = WeightedGraph(n, len(edges), i % 2 == 1, tuple(edges))
        for td in corrupted(heuristic_decomposition(g), g, rng):
            rep = validate(td, g)
            assert (rep.violations, rep.width) == reference_validate(td, g)
            cases += 1
            invalid += not rep.ok
    assert cases >= 500 and invalid >= 300, (cases, invalid)


def test_balance_validates_its_result_and_refuses_by_the_input(monkeypatch):
    """balance validates only its result when it succeeds.  On an invalid
    input (the corruptions above) it either refuses with the input's own
    first violation, or its result is valid all the same."""
    rng = random.Random(23)
    calls = []
    real = validate

    def counted(td, g):
        calls.append(td)
        return real(td, g)

    monkeypatch.setattr("twkbest.treedec.validate", counted)
    refused = accepted = 0
    for i in range(60):
        n = rng.randint(1, 30)
        edges = [(rng.randint(1, n), rng.randint(1, n))
                 for _ in range(rng.randint(0, 2 * n))]
        g = WeightedGraph(n, len(edges), i % 2 == 1, tuple(edges))
        for j, td in enumerate(corrupted(heuristic_decomposition(g), g, rng)):
            report = real(td, g)
            calls.clear()
            try:
                sd = balance(td, g)
            except TreeDecompositionError as exc:
                assert not report.ok
                assert str(exc) == ("cannot balance an invalid decomposition: "
                                    + report.violations[0])
                refused += 1
                continue
            assert real(sd.to_tree_decomposition(), g).ok
            assert len(calls) == 1 and calls[0] is not td
            accepted += not report.ok
            assert j or report.ok
    assert refused >= 100, (refused, accepted)
