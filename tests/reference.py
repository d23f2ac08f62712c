"""Reference code that only tests read: the operator semantics of the
hypergraph algebra, to check that a parse tree reproduces its input graph
(criterion 6), each feature's introducing leaf, and a chain decomposition
for long path-like inputs, where the min-fill heuristic is quadratic."""
from typing import NamedTuple

from twkbest.algebra import ParseNode, ParseTree
from twkbest.core import FeatureId, WeightedGraph
from twkbest.treedec import TreeDecomposition


class ParseTreeError(ValueError):
    """A parse tree that the operator semantics cannot evaluate."""


def introducer(t: ParseTree) -> dict[FeatureId, ParseNode]:
    """Each feature's introducing leaf, from the tree's expansion; a
    feature with two leaves maps to the later one."""
    return {u.feature: u for u in t.nodes if u.feature is not None}


class Hypergraph(NamedTuple):
    """Explicit hypergraph value: vertex atoms carry the global vertex id
    they were created for, so feature-preserving isomorphism is checkable."""

    verts: dict[int, int]                       # atom id -> intended global vertex
    hyperedges: dict[FeatureId, tuple[str, tuple[int, ...]]]   # edge feature -> (label, atoms)
    src: tuple[int, ...]                        # atom ids


def evaluate_hypergraph(t: ParseTree) -> Hypergraph:
    """Bottom-up application of the operator semantics; used to test that a
    parse tree reproduces its input graph."""
    counter = [0]

    def fresh(gvid: int, verts: dict[int, int]) -> int:
        counter[0] += 1
        verts[counter[0]] = gvid
        return counter[0]

    def fuse_atoms(h: Hypergraph, atoms: list[int]) -> Hypergraph:
        keep = min(atoms)
        gvids = {h.verts[a] for a in atoms}
        if len(gvids) != 1:
            raise ParseTreeError(f"fusing copies of different vertices {gvids}")
        remap = {a: keep for a in atoms}
        verts = {a: v for a, v in h.verts.items() if a == keep or a not in remap}
        hyperedges = {f: (lab, tuple(remap.get(a, a) for a in vs))
                      for f, (lab, vs) in h.hyperedges.items()}
        src = tuple(remap.get(a, a) for a in h.src)
        return Hypergraph(verts, hyperedges, src)

    def walk(u: ParseNode) -> Hypergraph:
        op = u.op[0]
        if op == "vertex":
            verts: dict[int, int] = {}
            a = fresh(u.srcs[0], verts)
            return Hypergraph(verts, {}, (a,))
        if op == "edge":
            verts = {}
            a1 = fresh(u.srcs[0], verts)
            a2 = fresh(u.srcs[1], verts)
            if u.feature is None or len(u.srcs) != 2:
                raise ParseTreeError("edge leaf without feature or wrong order")
            return Hypergraph(verts, {u.feature: (u.op[1], (a1, a2))}, (a1, a2))
        if len(u.children) != (1 if op in ("fuse", "proj") else 2):
            raise ParseTreeError(f"{op} node with {len(u.children)} children")
        left = walk(u.children[0])
        if op == "fuse":
            i, j = u.op[1], u.op[2]
            fused = fuse_atoms(left, [left.src[i], left.src[j]])
            return fused._replace(src=fused.src[:j] + fused.src[j + 1:])
        if op == "proj":
            return left._replace(src=tuple(left.src[a] for a in u.op[1]))
        right = walk(u.children[1])
        if op == "join":
            verts = dict(left.verts) | dict(right.verts)
            if len(verts) != len(left.verts) + len(right.verts):
                raise ParseTreeError("join operands not disjoint")
            dup = set(left.hyperedges) & set(right.hyperedges)
            if dup:
                raise ParseTreeError(f"edge features duplicated: {dup}")
            return Hypergraph(verts, dict(left.hyperedges) | dict(right.hyperedges),
                              left.src + right.src)
        if op == "attach":
            if right.hyperedges or len(right.src) != 1:
                raise ParseTreeError("attach right child must be a vertex leaf")
            verts = dict(left.verts) | dict(right.verts)
            merged = Hypergraph(verts, dict(left.hyperedges), left.src + right.src)
            merged = fuse_atoms(merged, [merged.src[u.op[1]], merged.src[-1]])
            return merged._replace(src=merged.src[:-1])
        raise ParseTreeError(f"unknown operator {u.op}")

    h = walk(t.root)
    for f, (lab, atoms) in h.hyperedges.items():
        if len(atoms) != 2:
            raise ParseTreeError(f"edge {f} arity {len(atoms)} != label order 2")
    return h


def hypergraph_matches_graph(h: Hypergraph, g: WeightedGraph) -> bool:
    """Feature-id-preserving isomorphism between an evaluated hypergraph and
    the input graph (identity on edge indices, vertex-tag bijection)."""
    if h.src:
        return False
    tags = sorted(h.verts.values())
    if tags != list(range(1, g.n + 1)):
        return False
    if sorted(f.index for f in h.hyperedges) != list(range(1, g.m + 1)):
        return False
    for f, (lab, (a1, a2)) in h.hyperedges.items():
        t, hd = g.edges[f.index - 1]
        got = (h.verts[a1], h.verts[a2])
        if g.directed:
            if got != (t, hd):
                return False
        else:
            if got not in ((t, hd), (hd, t)):
                return False
    return True


def chain_decomposition(g: WeightedGraph) -> TreeDecomposition:
    """Bags {i, i+1} along vertex order; valid for path-like vertex numberings.

    Used by scale tests to sidestep the quadratic min-fill heuristic on large
    structured instances.
    """
    if g.n == 1:
        return TreeDecomposition({1: frozenset({1})}, set())
    bags = {i: frozenset({i, i + 1}) for i in range(1, g.n)}
    edges = {(i, i + 1) for i in range(1, g.n - 1)}
    return TreeDecomposition(bags, edges)
