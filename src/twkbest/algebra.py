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

from .core import FeatureId, WeightedGraph
from .treedec import ShallowDecomposition


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


class Gadget:
    """The parse nodes that each bag of one shape makes, in the order
    ``build_parse_tree`` makes them.  A shape is the bag's size, the ranks
    it shares with its parent bag, its children's interfaces and its edges
    in edge order, all as ranks in the bag's sorted vertices.

    Node j is index j of each tuple: ``ops``, its op; ``children``, each a
    node of the gadget (j >= 0) or the fragment of the bag's s-th child
    (-1 - s); ``srcs``, its sources as ranks; ``features``, at a leaf
    (FeatureId rank, index), the index into the bag's edges or vertices,
    else None.  ``kid_srcs`` are the children's interfaces.  ``out`` is the
    bag's fragment: its last node, a child's (-1 - s), or None if it has no
    parts.  The fragment's height is ``base`` (its height over the bag's
    own leaves, -1 if none) or a child's height plus its ``dist`` to it,
    whichever is larger; ``order`` is the largest order of the nodes."""

    __slots__ = ("ops", "children", "srcs", "features", "kid_srcs", "out",
                 "base", "dist", "order")

    def __init__(self, ops: tuple, children: tuple, srcs: tuple,
                 features: tuple, kid_srcs: tuple, out: int | None):
        self.ops, self.children, self.srcs = ops, children, srcs
        self.features, self.kid_srcs, self.out = features, kid_srcs, out
        self.order = max(map(len, srcs), default=0)
        height = []                      # over the bag's own leaves
        for refs in children:
            h = -1 if refs else 0
            for c in refs:
                if c >= 0 and height[c] >= h:
                    h = height[c] + 1
            height.append(h)
        self.base = height[-1] if ops else -1
        below = [0] * len(ops)           # edges from each node up to out
        self.dist = [0] * len(kid_srcs)
        for j in reversed(range(len(ops))):
            for c in children[j]:
                if c >= 0:
                    below[c] = below[j] + 1
                else:
                    self.dist[-1 - c] = below[j] + 1


class Bag(NamedTuple):
    """A bag that makes parse nodes: its gadget and what fills it."""

    gadget: Gadget
    verts: tuple[int, ...]               # sorted: rank r is verts[r]
    eids: tuple[int, ...]                # its edges' indices, in edge order
    kids: tuple[int, ...]                # per child fragment, the position
                                         # in ParseTree.bags of its bag

    def feature(self, j: int) -> FeatureId | None:
        """The feature that node j of the gadget introduces here, or None."""
        feat = self.gadget.features[j]
        if feat is None:
            return None
        rank, i = feat
        return FeatureId(rank, (self.eids if rank else self.verts)[i])


class ParseTree(NamedTuple):
    """A parse tree by bags: ``bags`` in postorder, the last making the
    root.  Node i of the bag at position p has nid ``offset + i``, where
    offset counts the nodes of the bags before it.  Reading ``nodes``
    expands it into ``ParseNode``s, once, and ``root`` is the last of
    them; nothing else makes one."""

    bags: list[Bag]
    size: int                            # parse nodes
    depth: int
    max_order: int
    graph: WeightedGraph
    expansion: list                      # the nodes, once read

    @property
    def root(self) -> ParseNode:
        return self.nodes[-1]

    @property
    def nodes(self) -> list[ParseNode]:  # postorder; nid indexes this list
        if not self.expansion:
            nodes: list[ParseNode] = []
            last = []                    # bag position -> its fragment's nid
            for bag in self.bags:
                g, verts, base = bag.gadget, bag.verts, len(nodes)
                kids = [nodes[last[k]] for k in bag.kids]
                for j, refs in enumerate(g.children):
                    nodes.append(ParseNode(
                        g.ops[j], tuple([nodes[base + c] if c >= 0
                                         else kids[-1 - c] for c in refs]),
                        tuple([verts[r] for r in g.srcs[j]]), bag.feature(j),
                        base + j))
                last.append(len(nodes) - 1)
            self.expansion[:] = nodes
        return self.expansion


def build_parse_tree(sd: ShallowDecomposition, g: WeightedGraph) -> ParseTree:
    """Translate a shallow decomposition into a parse tree, by bags.

    Each decomposition bag becomes a constant-size gadget: join the child
    fragments and the leaves of edges assigned to this bag, fuse duplicate
    copies of shared vertices, splice in the introducing vertex leaf at the
    vertex's topmost bag, and project down to the interface with the parent
    bag.  A bag with no parts gives no fragment, so no join takes an empty
    child.

    ``sd`` must be valid; ``balance`` validates its result, and nothing
    here checks it again.  Then a vertex's topmost bag is the one bag
    holding it whose parent does not, and an edge's is the deeper of its
    ends' topmost bags.  So each edge gets one leaf, and each vertex one
    introducing leaf, at its topmost bag or where it is forgotten; a
    child's sources are among its parent's vertices, and the root has none.

    These decisions read only the bag's shape (see ``Gadget``), so they are
    made once per shape (``_gadget``), and each bag records its gadget, its
    vertices and edges and its children's bags.  The tree's depth, largest
    order and node count come from the gadgets; no ``ParseNode`` is made
    until ``nodes`` or ``root`` is read.  Equal op tuples are one object.
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

    eids_at: dict[int, list[int]] = {}   # bag -> its edges' indices
    ends_at: dict[int, list[int]] = {}   # bag -> its edges' ends, flat
    for ei, (t, h) in enumerate(g.edges, 1):
        b = top_bag[t]
        if h not in bags[b]:
            b = top_bag[h]
        if b in eids_at:
            eids_at[b].append(ei)
            ends_at[b] += t, h
        else:
            eids_at[b] = [ei]
            ends_at[b] = [t, h]

    edge_op = ("edge", "fwd" if g.directed else "undir")
    ops: dict[tuple, tuple] = {}         # equal op tuples are one object
    gadgets: dict[tuple, Gadget] = {}    # shape -> its gadget
    made: list[Bag] = []
    height: list[int] = []               # bag position -> its fragment's

    def visit(b: int):
        """The bag's fragment, as (position of the bag making it, its
        sources), or None."""
        kids = [k for k in map(visit, children.get(b, ())) if k]
        verts = tuple(sorted(bags[b]))
        rank = verts.index
        p = parent[b]
        kid_srcs = tuple([tuple(map(rank, srcs)) for _, srcs in kids])
        shared = () if p is None else sorted(bags[b] & bags[p])
        shape = (len(verts), tuple(map(rank, shared)), kid_srcs,
                 tuple(map(rank, ends_at.get(b, ()))))
        gad = gadgets.get(shape)
        if gad is None:
            gad = gadgets[shape] = _gadget(*shape, edge_op, ops)
        if gad.out is None:
            return None
        if gad.out < 0:                  # a child's fragment, passed up
            return kids[-1 - gad.out]
        positions = tuple([k for k, _ in kids])
        made.append(Bag(gad, verts, tuple(eids_at.get(b, ())), positions))
        h = gad.base
        for k, d in zip(positions, gad.dist):
            if height[k] + d > h:
                h = height[k] + d
        height.append(h)
        return len(made) - 1, tuple(map(verts.__getitem__, gad.srcs[-1]))

    root = visit(sd.root)
    del visit                            # recursive closure: break the cycle
    assert root[0] == len(made) - 1, "the last bag makes the root"
    return ParseTree(made, sum(len(bag.gadget.ops) for bag in made),
                     height[-1], max(bag.gadget.order for bag in made), g, [])


def _gadget(size: int, shared: tuple, kid_srcs: tuple, edges: tuple,
            edge_op: tuple, ops: dict) -> Gadget:
    """The gadget of one bag shape (see ``Gadget``), in ranks; ``edges``
    holds the ends of the bag's edges, flat.

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
    node_ops: list[tuple] = []           # per node, as in Gadget
    children: list[tuple] = []
    node_srcs: list[tuple] = []
    features: list = []
    introduced: set[int] = set()         # ranks with an introducing leaf

    def srcs(x: int) -> tuple:
        """The sources of node x, or of a child fragment (x < 0)."""
        return node_srcs[x] if x >= 0 else kid_srcs[-1 - x]

    def mk(op, refs, srcs_, feature=None) -> int:
        node_ops.append(ops.setdefault(op, op))
        children.append(refs)
        node_srcs.append(srcs_)
        features.append(feature)
        return len(node_ops) - 1

    def vertex_leaf(r: int) -> int:
        introduced.add(r)
        return mk(("vertex",), (), (r,), (0, r))

    def fuse_duplicates(cur: int) -> int:
        """Fuse each later copy of a source into its first, left to right."""
        old = now = srcs(cur)
        if len(set(old)) == len(old):
            return cur
        pos: dict[int, int] = {}         # vertex -> its first copy's position
        for v in old:
            if v in pos:
                j = len(pos)             # the copy's position after the fuses
                now = now[:j] + now[j + 1:]
                cur = mk(("fuse", pos[v], j), (cur,), now)
            else:
                pos[v] = len(pos)
        return cur

    def project(cur: int, keep: tuple) -> int:
        """Splice in the introducing leaf of each source not in keep that
        still lacks one, then reindex the sources to keep."""
        have = srcs(cur)
        if keep == have:
            return cur
        for v in sorted(have):
            if v not in keep and v not in introduced:
                leaf = vertex_leaf(v)
                cur = mk(("attach", have.index(v)), (cur, leaf), have)
        return mk(("proj", tuple(map(have.index, keep))), (cur,), keep)

    kids = [-1 - s for s in range(len(kid_srcs))]
    leaves = []
    for j in range(len(edges) // 2):
        t, h = edges[2 * j], edges[2 * j + 1]
        leaf = mk(edge_op, (), (t, h), (1, j))
        leaves.append(fuse_duplicates(leaf) if t == h else leaf)
    copies = set().union(*map(srcs, kids + leaves))
    for r in range(size):
        if r not in shared and r not in copies:     # introduced here
            leaves.append(vertex_leaf(r))

    # Join one part at a time, fusing shared vertices immediately and
    # forgetting the unshared ones no part left to join holds.
    parts = _join_order(leaves + kids, srcs)
    last: dict[int, int] = {}            # vertex -> last part holding it
    for i, part in enumerate(parts):
        for v in srcs(part):
            last[v] = i
    cur = parts[0] if parts else None
    for i in range(1, len(parts)):
        cur = project(cur, tuple([v for v in srcs(cur)
                                  if v in shared or last[v] >= i]))
        cur = fuse_duplicates(
            mk(("join",), (cur, parts[i]), srcs(cur) + srcs(parts[i])))
    if cur is not None:
        # Project to the interface with the parent bag (canonical order);
        # only vertices with a copy in this fragment are passed up.
        cur = project(cur, tuple(sorted(set(shared).intersection(srcs(cur)))))
    assert not node_ops or cur == len(node_ops) - 1, \
        "a gadget's fragment is its last node"
    return Gadget(tuple(node_ops), tuple(children), tuple(node_srcs),
                  tuple(features), kid_srcs, cur)


def _join_order(parts: list[int], srcs) -> list[int]:
    """``parts``, nodes whose sources are ``srcs(part)``, in the order a
    bag gadget joins them.  Parts on one vertex set go together, in part
    order; the next set is the one that adds the fewest vertices to those
    joined so far, then the one sharing the most with them, then the first
    in part order.  Grouping by set keeps this quadratic in the bag's
    distinct sets, not in its parallel edges."""
    if len(parts) < 2:
        return parts
    by_set: dict[frozenset[int], list[int]] = {}
    for p in parts:
        by_set.setdefault(frozenset(srcs(p)), []).append(p)
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
