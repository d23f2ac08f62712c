"""Checks of ``k_best`` that share little with the engine: random valid
decompositions against the oracle, the engine against the values-only
``k_best_direct`` fold where the oracle cannot reach, and Yen's algorithm
(``tools/yen.py``) against both."""
import pathlib
import random
import sys

import pytest

from twkbest import oracle
from twkbest.core import WeightedGraph, edge
from twkbest.kbest import k_best, k_best_direct
from twkbest.treedec import TreeDecomposition, validate

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from yen import yen  # noqa: E402

PROBLEMS = ("simple-path", "spanning-tree", "perfect-matching", "vertex-cover")


def random_multigraph(rng, problem, max_n=8, max_m=12, weights=(-5, 9)):
    """n <= max_n, m <= max_m, with self-loops and parallel edges; 40% of
    the simple-path graphs are directed.  Returns (graph, s, t)."""
    n = rng.randint(2, max_n)
    edges = []
    for _ in range(rng.randint(0, max_m)):
        if edges and rng.random() < 0.15:
            edges.append(rng.choice(edges))          # a parallel edge
        else:
            edges.append((rng.randint(1, n), rng.randint(1, n)))
    g = WeightedGraph(
        n=n, m=len(edges),
        directed=problem == "simple-path" and rng.random() < 0.4,
        edges=tuple(edges),
        weights={edge(i): rng.randint(*weights)
                 for i in range(1, len(edges) + 1)})
    s, t = rng.sample(range(1, n + 1), 2) if problem == "simple-path" \
        else (None, None)
    return g, s, t


def random_td(g, rng) -> TreeDecomposition:
    """A decomposition from a random elimination order: each vertex's bag is
    it and its neighbours when eliminated, attached to the bag of the
    neighbour eliminated first after it; the roots of the components are
    chained.  Then up to three leaf bags, each a random subset of a bag it
    hangs from."""
    adj = {v: set() for v in range(1, g.n + 1)}
    for a, b in g.edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    order = list(adj)
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    bags, later = {}, {}
    for v in order:
        nbrs = adj.pop(v)
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
        bags[pos[v] + 1] = frozenset(nbrs | {v})
        later[v] = nbrs
    tree_edges, roots = [], []
    for v in order:
        if later[v]:
            tree_edges.append((pos[v] + 1, pos[min(later[v], key=pos.get)] + 1))
        else:
            roots.append(pos[v] + 1)
    tree_edges += zip(roots, roots[1:])
    for _ in range(rng.randint(0, 3)):
        at = rng.choice(list(bags))
        bag = sorted(bags[at])
        bags[len(bags) + 1] = frozenset(
            rng.sample(bag, rng.randint(0, len(bag))))
        tree_edges.append((at, len(bags)))
    return TreeDecomposition(bags, tree_edges)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_random_decompositions_match_the_oracle(problem):
    """Criteria 1, 2, 8 and 9 decompose by min-fill only; here ``k_best``
    runs on 40 random valid ``.td``s per problem and must list the
    oracle's values."""
    rng = random.Random(f"random decompositions {problem}")
    for _ in range(40):
        g, s, t = random_multigraph(rng, problem)
        td = random_td(g, rng)
        assert validate(td, g).ok
        pred, kind = oracle.predicate_for(problem, s, t)
        ref = [v for v, _ in oracle.enumerate_sorted(g, pred, kind)]
        got = k_best(g, problem, max(len(ref), 1), s=s, t=t, td=td)
        assert [v for v, _ in got] == ref, (g, sorted(td.bags.items()))


def grid_strip(half, rng, directed=False, weights=(1, 1000)):
    """The 2 x half grid strip, rungs (2i - 1, 2i), each edge from its
    lower-numbered end, with seeded weights."""
    edges = []
    for i in range(1, half + 1):
        edges.append((2 * i - 1, 2 * i))
        if i < half:
            edges += [(2 * i - 1, 2 * i + 1), (2 * i, 2 * i + 2)]
    return WeightedGraph(
        n=2 * half, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): rng.randint(*weights)
                 for i in range(1, len(edges) + 1)})


@pytest.mark.parametrize("problem,half,directed", [
    ("simple-path", 200, False),
    ("simple-path", 200, True),
    ("spanning-tree", 20, False),
])
def test_engine_equals_the_direct_fold_beyond_the_oracle(problem, half,
                                                         directed):
    """``k_best``'s first N values equal ``k_best_direct(N)`` for N = 16
    and 64, on inputs far past the oracle's reach."""
    g = grid_strip(half, random.Random(f"direct {problem} {directed}"),
                   directed)
    s, t = (1, g.n) if problem == "simple-path" else (None, None)
    got = [v for v, _ in k_best(g, problem, 64, s=s, t=t)]
    assert len(got) == 64 or directed and len(got) == half
    for n in (16, 64):
        assert k_best_direct(g, problem, n, s=s, t=t) == got[:n]


def test_yen_equals_the_oracle():
    """On 200 random multigraphs with up to 16 edges and weights in 0..9,
    Yen lists every simple s-t path's value, as the oracle does."""
    rng = random.Random("yen against the oracle")
    for _ in range(200):
        g, s, t = random_multigraph(rng, "simple-path", max_m=16,
                                    weights=(0, 9))
        ref = [v for v, _ in oracle.enumerate_paths(g, s, t)]
        paths = yen(g, s, t, len(ref) + 1)
        assert [v for v, _ in paths] == ref
        assert len(set(p for _, p in paths)) == len(paths)
        for v, p in paths:
            assert oracle.is_simple_path(g, frozenset(map(edge, p)), s, t)
            assert g.value(frozenset(map(edge, p))) == v


def test_yen_refuses_negative_weights():
    g = WeightedGraph(n=2, m=1, directed=False, edges=((1, 2),),
                      weights={edge(1): -1})
    with pytest.raises(ValueError, match="negative"):
        yen(g, 1, 2, 1)


@pytest.mark.parametrize("half,k", [(32, 40), (128, 12)])
@pytest.mark.parametrize("directed", [False, True])
def test_k_best_equals_yen_on_strips(half, k, directed):
    """Yen shares no code with the engine; the strips are beyond the
    oracle's reach."""
    g = grid_strip(half, random.Random(f"yen {half} {directed}"), directed)
    want = [v for v, _ in yen(g, 1, g.n, k)]
    assert len(want) == (min(k, half) if directed else k)  # one rung up
    assert [v for v, _ in k_best(g, "simple-path", k, s=1, t=g.n)] == want
