"""Full binary parse trees over the derived hypergraph algebra.

Node operators (all inner nodes have exactly two children):

* ``('const0',)``                  -- empty hypergraph leaf
* ``('vertex',)``                  -- one-source hypergraph leaf (a copy of a
                                      graph vertex; at most one leaf per
                                      vertex is flagged as its introducer)
* ``('edge', label)``              -- single-edge hypergraph leaf, order 2
* ``('join',)``                    -- disjoint union, sources concatenated
* ``('fuse', i, j)``               -- fuse sources i and j (0-based, i < j)
                                      and the right child's dummy vertex into
                                      one vertex; source j is dropped
* ``('attach', i)``                -- fuse only the right child's vertex into
                                      source i; order unchanged
* ``('proj', alpha)``              -- reindex sources: new source k is old
                                      source alpha[k]; right child is const0

``fuse``/``attach`` are the derived theta' operators (theta composed with a
source-dropping sigma; attach is the i == j case used to splice a vertex's
introducing leaf into an existing copy).
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import FeatureId, WeightedGraph, edge, vertex
from .treedec import ShallowDecomposition


class ParseTreeError(ValueError):
    pass


class ParseNode:
    __slots__ = ("op", "children", "srcs", "feature", "nid")

    def __init__(self, op, children, srcs, feature=None, nid=-1):
        self.op = op
        self.children = children        # () for leaves, 2-tuple for inner
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


@dataclass
class ParseTree:
    root: ParseNode
    nodes: list[ParseNode]               # postorder; nid indexes this list
    depth: int
    max_order: int
    introducer: dict[FeatureId, ParseNode]
    graph: WeightedGraph


def build_parse_tree(sd: ShallowDecomposition, g: WeightedGraph) -> ParseTree:
    """Translate a shallow decomposition into a full binary parse tree.

    Each decomposition bag becomes a constant-size gadget: join the child
    fragments and the leaves of edges assigned to this bag, fuse duplicate
    copies of shared vertices, splice in the introducing vertex leaf at the
    vertex's topmost bag, and project down to the interface with the parent
    bag.  Every edge gets exactly one edge leaf and every vertex exactly one
    introducing vertex leaf.

    The parts are joined one at a time (see ``_join_order``).  Next comes
    the part that adds the fewest new vertices, so the running order stays
    small; then the one sharing the most; on a full tie, leaves come before
    child fragments, so the paths up from the fragments pass few of the
    bag's joins.  A self-loop's leaf is fused before it is joined, so both
    sides of a join have distinct sources in the bag, and a join's order is
    at most |bag| + the part's order <= 2 |bag|.
    """
    bags = sd.bags
    children = sd.children
    root_bag = sd.root

    parent: dict[int, int | None] = {root_bag: None}
    order: list[int] = [root_bag]
    for b in order:
        for c in children.get(b, ()):
            parent[c] = b
            order.append(c)

    depth_of = {root_bag: 0}
    for b in order[1:]:
        depth_of[b] = depth_of[parent[b]] + 1

    # Topmost bag of each vertex (shallowest; ties by bag id for determinism).
    top_bag: dict[int, int] = {}
    for b in order:
        for v in bags[b]:
            t = top_bag.get(v)
            if t is None or (depth_of[b], b) < (depth_of[t], t):
                top_bag[v] = b

    missing = [v for v in range(1, g.n + 1) if v not in top_bag]
    if missing:
        raise ParseTreeError(f"decomposition misses vertices {missing[:5]}")

    holders: dict[int, list[int]] = {}
    for b in order:
        for v in bags[b]:
            holders.setdefault(v, []).append(b)

    # Assign each edge to the topmost bag containing both endpoints.
    edges_at: dict[int, list[int]] = {b: [] for b in bags}
    for ei, (t, h) in enumerate(g.edges, 1):
        t_bags, h_bags = holders.get(t, ()), holders.get(h, ())
        if len(t_bags) > len(h_bags):
            t_bags = h_bags
        best = None
        for b in t_bags:
            if t in bags[b] and h in bags[b]:
                if best is None or (depth_of[b], b) < (depth_of[best], best):
                    best = b
        if best is None:
            raise ParseTreeError(f"edge e{ei} covered by no bag")
        edges_at[best].append(ei)

    label = "fwd" if g.directed else "undir"
    nodes: list[ParseNode] = []
    introducer: dict[FeatureId, ParseNode] = {}

    def mk(op, children_, srcs, feature=None) -> ParseNode:
        node = ParseNode(op, children_, srcs, feature, nid=len(nodes))
        nodes.append(node)
        return node

    def vertex_leaf(v: int, introduce: bool) -> ParseNode:
        feat = vertex(v) if introduce else None
        node = mk(("vertex",), (), (v,), feat)
        if introduce:
            introducer[feat] = node
        return node

    def fuse_duplicates(cur: ParseNode) -> ParseNode:
        while True:
            seen: dict[int, int] = {}
            hit = None
            for k, v in enumerate(cur.srcs):
                if v in seen:
                    hit = (seen[v], k)
                    break
                seen[v] = k
            if hit is None:
                return cur
            i, j = hit
            dummy = vertex_leaf(cur.srcs[j], False)
            srcs = cur.srcs[:j] + cur.srcs[j + 1:]
            cur = mk(("fuse", i, j), (cur, dummy), srcs)

    def build_bag(b: int) -> ParseNode:
        kids = [build_bag(c) for c in children.get(b, ())]
        leaves = []
        for ei in edges_at[b]:
            t, h = g.edges[ei - 1]
            leaf = mk(("edge", label), (), (t, h), edge(ei))
            introducer[edge(ei)] = leaf
            leaves.append(fuse_duplicates(leaf) if t == h else leaf)
        introduced_here = sorted(v for v in bags[b] if top_bag[v] == b)
        copies = {v for p in kids + leaves for v in p.srcs}
        for v in introduced_here:
            if v not in copies:
                leaves.append(vertex_leaf(v, True))

        # Join one part at a time, fusing shared vertices immediately.
        cur = None
        for p in _join_order(leaves + kids):
            cur = p if cur is None else fuse_duplicates(
                mk(("join",), (cur, p), cur.srcs + p.srcs))
        if cur is None:
            cur = mk(("const0",), (), ())

        # Splice the introducing leaf into vertices that already have a copy.
        for v in introduced_here:
            if vertex(v) not in introducer:
                i = cur.srcs.index(v)
                dummy = vertex_leaf(v, True)
                cur = mk(("attach", i), (cur, dummy), cur.srcs)

        stray = [v for v in cur.srcs if v not in bags[b]]
        if stray:
            raise ParseTreeError(f"bag {b}: stray source vertices {stray}")

        # Project to the interface with the parent bag (canonical order);
        # only vertices with a copy in this fragment are passed up.
        p = parent[b]
        shared = bags[b] & bags[p] if p is not None else set()
        interface = sorted(v for v in shared if v in cur.srcs)
        pos_of = {v: k for k, v in enumerate(cur.srcs)}
        alpha = tuple(pos_of[v] for v in interface)
        if alpha != tuple(range(len(cur.srcs))):
            zero = mk(("const0",), (), ())
            cur = mk(("proj", alpha), (cur, zero), tuple(interface))
        return cur

    root = build_bag(root_bag)
    del build_bag                        # recursive closure: break the cycle
    if root.order != 0:
        raise ParseTreeError("root fragment still has sources")

    for fid in list(g.vertex_features()) + list(g.edge_features()):
        if fid not in introducer:
            raise ParseTreeError(f"feature {fid} has no introducing leaf")

    # Heights in postorder, where children precede their parent.
    height = [0] * len(nodes)
    for u in nodes:
        if u.children:
            a, b = u.children
            height[u.nid] = 1 + max(height[a.nid], height[b.nid])
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
    while sets:
        best, best_key = None, None
        for s in sets:
            key = (len(s - joined), -len(s))     # equal new: larger shares more
            if best is None or key < best_key:
                best, best_key = s, key
        sets.remove(best)
        joined |= best
        out += by_set[best]
    return out


# --- reference semantics (testing only) -------------------------------------

@dataclass
class Hypergraph:
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
        if op == "const0":
            return Hypergraph({}, {}, ())
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
        left = walk(u.children[0])
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
        if op in ("fuse", "attach"):
            if right.hyperedges or len(right.src) != 1:
                raise ParseTreeError("fuse/attach right child must be a vertex leaf")
            verts = dict(left.verts) | dict(right.verts)
            merged = Hypergraph(verts, dict(left.hyperedges), left.src + right.src)
            if op == "fuse":
                i, j = u.op[1], u.op[2]
                atoms = [merged.src[i], merged.src[j], merged.src[-1]]
                merged = fuse_atoms(merged, atoms)
                src = merged.src[:j] + merged.src[j + 1:-1]
            else:
                i = u.op[1]
                merged = fuse_atoms(merged, [merged.src[i], merged.src[-1]])
                src = merged.src[:-1]
            return Hypergraph(merged.verts, merged.hyperedges, src)
        if op == "proj":
            if right.verts or right.src:
                raise ParseTreeError("proj right child must be const0")
            alpha = u.op[1]
            return Hypergraph(left.verts, left.hyperedges,
                              tuple(left.src[a] for a in alpha))
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
