"""Parse trees over the derived hypergraph algebra.

Node operators (``join`` and ``attach`` have two children, ``fuse`` and
``proj`` one, leaves none):

* ``('vertex',)``                  -- one-source hypergraph leaf introducing a
                                      graph vertex (one leaf per vertex)
* ``('edge', label)``              -- single-edge hypergraph leaf, order 2
* ``('join',)``                    -- disjoint union, sources concatenated
* ``('fuse', i, j)``               -- fuse sources i and j (0-based, i < j)
                                      into one vertex; source j is dropped
* ``('attach', i)``                -- fuse the right child's vertex into
                                      source i; order unchanged
* ``('proj', alpha)``              -- reindex sources: new source k is old
                                      source alpha[k]

``fuse``/``attach`` are the derived theta' operators (theta composed with a
source-dropping sigma; attach splices a vertex's introducing leaf into an
existing copy).
"""
from __future__ import annotations

from typing import NamedTuple

from .core import FeatureId, WeightedGraph, edge, vertex
from .treedec import ShallowDecomposition


class ParseTreeError(ValueError):
    pass


class ParseNode:
    __slots__ = ("op", "children", "srcs", "feature", "nid")

    def __init__(self, op, children, srcs, feature=None, nid=-1):
        self.op = op
        self.children = children        # () for leaves, else 1- or 2-tuple
        self.srcs = srcs                # tuple of global vertex ids
        self.feature = feature          # FeatureId introduced here, or None
        self.nid = nid

    @property
    def order(self) -> int:
        return len(self.srcs)

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self):
        return f"ParseNode({self.op}, order={self.order}, srcs={self.srcs})"


class ParseTree(NamedTuple):
    root: ParseNode
    nodes: list[ParseNode]               # postorder; nid indexes this list
    depth: int
    max_order: int
    introducer: dict[FeatureId, ParseNode]
    graph: WeightedGraph


def build_parse_tree(sd: ShallowDecomposition, g: WeightedGraph) -> ParseTree:
    """Translate a shallow decomposition into a parse tree.

    Each decomposition bag becomes a constant-size gadget: join the child
    fragments and the leaves of edges assigned to this bag, fuse duplicate
    copies of shared vertices, splice in the introducing vertex leaf at the
    vertex's topmost bag, and project down to the interface with the parent
    bag.  Every edge gets exactly one edge leaf and every vertex exactly one
    introducing vertex leaf.  A bag with no parts gives no fragment, so no
    join takes an empty child.  ``sd`` must be valid (``balance`` checks
    it): then a vertex's topmost bag is the one bag holding it whose parent
    does not, and an edge's is the deeper of its ends' topmost bags.
    Equal op tuples are one object.

    The parts are joined one at a time (see ``_join_order``).  Next comes
    the part that adds the fewest new vertices, so the running order stays
    small; then the one sharing the most; on a full tie, leaves come before
    child fragments, so the paths up from the fragments pass few of the
    bag's joins.  A self-loop's leaf is fused before it is joined, so both
    sides of a join have distinct sources in the bag, and a join's order is
    at most |bag| + the part's order <= 2 |bag|.

    A vertex is forgotten as early as possible, as in a nice tree
    decomposition: before each join, every vertex that the parent bag does
    not share and that no part left to join holds gets its introducing leaf
    spliced in (if it has none yet) and is projected out.  So introducing
    leaves sit low in the gadget and the later joins carry fewer sources.
    """
    bags = sd.bags
    children = sd.children

    parent: dict[int, int | None] = {sd.root: None}
    top_bag: dict[int, int] = {}
    order: list[int] = [sd.root]
    for b in order:
        p = parent[b]
        for v in bags[b] if p is None else bags[b] - bags[p]:
            top_bag[v] = b
        for c in children.get(b, ()):
            parent[c] = b
            order.append(c)

    if len(top_bag) != g.n:
        missing = [v for v in range(1, g.n + 1) if v not in top_bag]
        raise ParseTreeError(f"decomposition misses vertices {missing[:5]}")

    edges_at: dict[int, list[tuple[int, int, int]]] = {}
    for ei, (t, h) in enumerate(g.edges, 1):
        b = top_bag[t]
        if h not in bags[b]:
            b = top_bag[h]
            if t not in bags[b]:
                raise ParseTreeError(f"edge e{ei} covered by no bag")
        edges_at.setdefault(b, []).append((ei, t, h))

    edge_op = ("edge", "fwd" if g.directed else "undir")
    nodes: list[ParseNode] = []
    height: list[int] = []               # by nid, recorded as nodes are made
    ops: dict[tuple, tuple] = {}         # equal op tuples are one object
    introducer: dict[FeatureId, ParseNode] = {}
    introduced: set[int] = set()         # vertices with an introducing leaf

    def mk(op, children_, srcs, feature=None) -> ParseNode:
        node = ParseNode(ops.setdefault(op, op), children_, srcs, feature,
                         len(nodes))
        nodes.append(node)
        h = 0
        for c in children_:
            if height[c.nid] >= h:
                h = height[c.nid] + 1
        height.append(h)
        return node

    def vertex_leaf(v: int) -> ParseNode:
        f = vertex(v)
        introduced.add(v)
        node = introducer[f] = mk(("vertex",), (), (v,), f)
        return node

    def fuse_duplicates(cur: ParseNode) -> ParseNode:
        """Fuse each later copy of a source into its first, left to right."""
        srcs = cur.srcs
        if len(set(srcs)) == len(srcs):
            return cur
        pos: dict[int, int] = {}         # vertex -> its first copy's position
        for v in cur.srcs:
            if v in pos:
                j = len(pos)             # the copy's position after the fuses
                srcs = srcs[:j] + srcs[j + 1:]
                cur = mk(("fuse", pos[v], j), (cur,), srcs)
            else:
                pos[v] = len(pos)
        return cur

    def project(cur: ParseNode, keep: tuple) -> ParseNode:
        """Splice in the introducing leaf of each source not in keep that
        still lacks one, then reindex the sources to keep."""
        if keep == cur.srcs:
            return cur
        for v in sorted(cur.srcs):
            if v not in keep and v not in introduced:
                leaf = vertex_leaf(v)
                cur = mk(("attach", cur.srcs.index(v)), (cur, leaf), cur.srcs)
        return mk(("proj", tuple(map(cur.srcs.index, keep))), (cur,), keep)

    def build_bag(b: int) -> ParseNode | None:
        kids = [k for k in map(build_bag, children.get(b, ())) if k]
        leaves = []
        for ei, t, h in edges_at.get(b, ()):
            f = edge(ei)
            leaf = introducer[f] = mk(edge_op, (), (t, h), f)
            leaves.append(fuse_duplicates(leaf) if t == h else leaf)
        p = parent[b]
        shared = bags[b] & bags[p] if p is not None else frozenset()
        copies = set().union(*[part.srcs for part in kids + leaves])
        for v in sorted(bags[b] - shared - copies):  # introduced here
            leaves.append(vertex_leaf(v))

        # Join one part at a time, fusing shared vertices immediately and
        # forgetting the unshared ones no part left to join holds.
        parts = _join_order(leaves + kids)
        last: dict[int, int] = {}        # vertex -> last part holding it
        for i, part in enumerate(parts):
            for v in part.srcs:
                last[v] = i
        cur = parts[0] if parts else None
        for i in range(1, len(parts)):
            cur = project(cur, tuple([v for v in cur.srcs
                                      if v in shared or last[v] >= i]))
            cur = fuse_duplicates(
                mk(("join",), (cur, parts[i]), cur.srcs + parts[i].srcs))
        if cur is None:
            return None

        if not bags[b].issuperset(cur.srcs):
            stray = [v for v in cur.srcs if v not in bags[b]]
            raise ParseTreeError(f"bag {b}: stray source vertices {stray}")
        # Project to the interface with the parent bag (canonical order);
        # only vertices with a copy in this fragment are passed up.
        return project(cur, tuple(sorted(shared.intersection(cur.srcs))))

    root = build_bag(sd.root)
    del build_bag                        # recursive closure: break the cycle
    if root.order != 0:
        raise ParseTreeError("root fragment still has sources")

    if len(introducer) != g.n + g.m:
        for fid in list(g.vertex_features()) + list(g.edge_features()):
            if fid not in introducer:
                raise ParseTreeError(f"feature {fid} has no introducing leaf")

    max_order = max(len(n.srcs) for n in nodes)
    return ParseTree(root, nodes, height[root.nid], max_order, introducer, g)


def _join_order(parts: list[ParseNode]) -> list[ParseNode]:
    """``parts`` in the order a bag gadget joins them.  Parts on one vertex
    set go together, in part order; the next set is the one that adds the
    fewest vertices to those joined so far, then the one sharing the most
    with them, then the first in part order.  Grouping by set keeps this
    quadratic in the bag's distinct sets, not in its parallel edges."""
    if len(parts) < 2:
        return parts
    by_set: dict[frozenset[int], list[ParseNode]] = {}
    for p in parts:
        by_set.setdefault(frozenset(p.srcs), []).append(p)
    sets = list(by_set)
    joined: frozenset[int] = frozenset()
    out = []
    while len(sets) > 1:
        best, best_key = None, None
        for s in sets:
            key = (len(s - joined), -len(s))     # equal new: larger shares more
            if best is None or key < best_key:
                best, best_key = s, key
        sets.remove(best)
        joined |= best
        out += by_set[best]
    return out + by_set[sets[0]]


# --- reference semantics (testing only) -------------------------------------

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
