"""Tree decompositions: validation, PACE-style I/O, a min-fill heuristic,
and depth balancing into binary log-depth ("shallow") decompositions."""
from __future__ import annotations

import heapq
import math
from typing import NamedTuple

from .core import WeightedGraph

DEFAULT_C_DEPTH = 4


class TreeDecompositionError(ValueError):
    pass


class TreeDecomposition:
    """Bags indexed by node id, plus the tree edges between them, each
    stored as a sorted pair."""

    __slots__ = ("bags", "tree_edges")

    def __init__(self, bags: dict[int, frozenset[int]], tree_edges=()):
        self.bags = bags
        self.tree_edges: set[tuple[int, int]] = {
            (a, b) if a <= b else (b, a) for a, b in tree_edges}

    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def neighbors(self) -> dict[int, list[int]]:
        """Adjacency of the declared bags; an edge naming an undeclared bag
        is left out (``validate`` reports it)."""
        adj: dict[int, list[int]] = {b: [] for b in self.bags}
        for a, b in sorted(self.tree_edges):
            if a in adj and b in adj:
                adj[a].append(b)
                adj[b].append(a)
        return adj


class ValidationReport(NamedTuple):
    violations: list[str]
    width: int

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(td: TreeDecomposition, g: WeightedGraph) -> ValidationReport:
    """Check the three decomposition conditions; violations are data, not errors.

    The walk that checks the bag graph is a tree also records each bag's
    parent.  A bag is a top bag of each vertex it holds and its parent does
    not (a bag the walk does not reach has no parent).  In a tree, the bags
    holding v form a subtree exactly when v has one top bag, and an edge
    (t, h) is covered exactly when h is in t's top bag or t in h's.  Only a
    vertex with two top bags, or an edge failing that test, takes the
    per-vertex search or the per-edge scan that writes its report, so the
    reports do not depend on the shortcut (nor on whether the bag graph is
    a tree: a vertex with one top bag is connected in any bag graph)."""
    violations: list[str] = []
    bags = td.bags
    adj = td.neighbors()

    # The tree_edges must actually form a tree over the bag ids.
    parent: dict[int, int | None] = {}
    if bags:
        start = min(bags)
        parent[start] = None
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    stack.append(v)
        if len(parent) != len(bags):
            violations.append(f"bag graph is disconnected ({len(parent)} of {len(bags)} bags reachable)")
        if len(td.tree_edges) != len(bags) - 1:
            violations.append(f"bag graph has {len(td.tree_edges)} edges for {len(bags)} bags (not a tree)")
    for a, b in td.tree_edges:
        if a not in bags or b not in bags:
            violations.append(f"tree edge ({a},{b}) references unknown bag")

    top: dict[int, frozenset[int]] = {}  # vertex -> its first top bag
    split = set()                        # vertices with two top bags or more
    for bid, b in bags.items():
        p = parent.get(bid)
        for v in b if p is None else b - bags[p]:
            if v in top:
                split.add(v)
            else:
                top[v] = b

    if top and (min(top) < 1 or max(top) > g.n):
        for bid, b in bags.items():
            for v in sorted(v for v in b if not 1 <= v <= g.n):
                violations.append(f"bag {bid}: vertex {v} outside 1..{g.n}")
    for v in sorted(set(range(1, g.n + 1)).difference(top)):
        violations.append(f"vertex {v} appears in no bag")

    empty = frozenset()
    unsure = [(i, t, h) for i, (t, h) in enumerate(g.edges, 1)
              if h not in top.get(t, empty) and t not in top.get(h, empty)]
    if not (unsure or split):
        return ValidationReport(violations, td.width())

    holders: dict[int, list[int]] = {}
    for bid, b in bags.items():
        for v in b:
            holders.setdefault(v, []).append(bid)

    for i, t, h in unsure:
        t_bags = holders.get(t, ())
        h_bags = holders.get(h, ())
        # Scan the smaller holder list against a set of the other.
        if len(t_bags) > len(h_bags):
            t_bags, h_bags = h_bags, t_bags
        if not set(t_bags) & set(h_bags):
            violations.append(f"edge e{i}=({t},{h}) has no bag containing both endpoints")

    # Connectivity: for each vertex, bags containing it induce a subtree.
    for v, bag_ids in holders.items():
        if v not in split:
            continue
        want = set(bag_ids)
        start = bag_ids[0]
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj.get(u, []):
                if w in want and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != want:
            missing = sorted(want - seen)
            violations.append(f"vertex {v}: bags {missing} disconnected from bag {start}")

    return ValidationReport(violations, td.width())


def _ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise TreeDecompositionError(f"line {lineno}: non-integer field") from None


def load_td(text: str) -> TreeDecomposition:
    """Parse a PACE 2017 .td file."""
    bags: dict[int, frozenset[int]] = {}
    tree_edges: set[tuple[int, int]] = set()
    header = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise TreeDecompositionError(f"line {lineno}: duplicate 's td' header")
            if len(parts) != 5 or parts[1] != "td":
                raise TreeDecompositionError(f"line {lineno}: header must be 's td <bags> <max_bag_size> <n>'")
            header = tuple(_ints(parts[2:], lineno))
        elif parts[0] == "b":
            if header is None:
                raise TreeDecompositionError(f"line {lineno}: bag line before header")
            if len(parts) < 2:
                raise TreeDecompositionError(f"line {lineno}: bag line must be 'b <bag> <vertices>'")
            bid, *verts = _ints(parts[1:], lineno)
            if bid in bags:
                raise TreeDecompositionError(f"line {lineno}: duplicate bag {bid}")
            bags[bid] = frozenset(verts)
        else:
            if header is None:
                raise TreeDecompositionError(f"line {lineno}: edge line before header")
            if len(parts) != 2:
                raise TreeDecompositionError(f"line {lineno}: expected '<bag> <bag>'")
            tree_edges.add(tuple(_ints(parts, lineno)))
    if header is None:
        raise TreeDecompositionError("missing 's td' header")
    if len(bags) != header[0]:
        raise TreeDecompositionError(f"header declares {header[0]} bags but found {len(bags)}")
    return TreeDecomposition(bags, tree_edges)


def save_td(td: TreeDecomposition, n: int | None = None) -> str:
    if n is None:
        n = max((max(b) for b in td.bags.values() if b), default=0)
    max_size = max((len(b) for b in td.bags.values()), default=0)
    lines = [f"s td {len(td.bags)} {max_size} {n}"]
    for bid in sorted(td.bags):
        lines.append("b " + " ".join([str(bid)] + [str(v) for v in sorted(td.bags[bid])]))
    for a, b in sorted(td.tree_edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def heuristic_decomposition(g: WeightedGraph) -> TreeDecomposition:
    """Min-fill elimination ordering; valid but not necessarily optimal width.

    Each step eliminates the vertex with the least (fill, degree, id), its
    fill being the missing edges among its neighbours.  Disconnected graphs
    are handled by the elimination construction directly: component roots
    are linked through a chain of empty bags.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for t, h in g.edges:
        if t != h:
            nbrs[t].add(h)
            nbrs[h].add(t)

    def score(v: int) -> tuple[int, int, int]:
        # Each u in N(v) misses |N(v) - N(u)| - 1 of the others.
        ns = nbrs[v]
        return (sum(len(ns - nbrs[u]) for u in ns) - len(ns)) // 2, len(ns), v

    # Lazy heap: entries may be stale; recompute on pop and re-push until the
    # popped score is current.  Only vertices near an elimination change
    # score.  latest[v], v's newest entry, is in the heap while v is alive,
    # and a push equal to it is skipped: equal entries pop one after another.
    latest = {v: score(v) for v in nbrs}
    heap = list(latest.values())
    heapq.heapify(heap)

    def push(cur: tuple[int, int, int]) -> None:
        if cur != latest[cur[2]]:
            latest[cur[2]] = cur
            heapq.heappush(heap, cur)

    bags: dict[int, frozenset[int]] = {}
    bag_of: dict[int, int] = {}          # vertex -> its elimination bag
    while nbrs:
        entry = heapq.heappop(heap)
        v = entry[2]
        if v not in nbrs:
            continue
        cur = score(v)
        if cur != entry:
            push(cur)
            continue
        ns = nbrs.pop(v)
        bag_of[v] = len(bags) + 1
        bags[bag_of[v]] = frozenset(ns | {v})
        for u in ns:
            nbrs[u] |= ns
            nbrs[u] -= {u, v}
        for u in ns:
            push(score(u))

    # A bag's parent is the bag of the first of its other vertices eliminated.
    tree_edges: set[tuple[int, int]] = set()
    component_roots: list[int] = []
    for i, bag in bags.items():
        later = [bag_of[u] for u in bag if bag_of[u] > i]
        if later:
            tree_edges.add((i, min(later)))
        else:
            component_roots.append(i)

    # Link component roots through a chain of empty bags.
    if len(component_roots) > 1:
        first = len(bags) + 1
        for j, r in enumerate(component_roots):
            bags[first + j] = frozenset()
            tree_edges.add((r, first + j))
            if j:
                tree_edges.add((first + j - 1, first + j))
    return TreeDecomposition(bags, tree_edges)


class ShallowDecomposition(NamedTuple):
    """A rooted binary tree decomposition with recorded depth and width."""

    bags: dict[int, frozenset[int]]
    children: dict[int, tuple[int, ...]]
    root: int
    depth: int
    width: int

    def to_tree_decomposition(self) -> TreeDecomposition:
        return TreeDecomposition(dict(self.bags), [
            (p, c) for p, cs in self.children.items() for c in cs])


def _binarize(bags: dict[int, frozenset[int]], children: dict[int, list[int]],
              root: int, fresh: list[int]) -> None:
    """Split nodes with >2 children by chaining same-bag copies (in place)."""
    stack = [root]
    while stack:
        u = stack.pop()
        while len(children[u]) > 2:
            copy = fresh[0]
            fresh[0] += 1
            bags[copy] = bags[u]
            children[copy] = children[u][1:]
            children[u] = [children[u][0], copy]
        stack.extend(children[u])


def balance(td: TreeDecomposition, g: WeightedGraph) -> ShallowDecomposition:
    """Rebuild ``td`` as a binary decomposition of logarithmic depth.

    Recursive centroid splitting of a component with at most two marked
    boundary bags.  A mark is a bag of the component with a tree edge that
    leaves it, paired with its adhesion: the vertices it shares with the
    bag across that edge.  The component's new root bag is the split bag
    unioned with the marks' adhesions, which is all the rest of the tree
    needs from it: a vertex in the component and outside it lies, by
    connectivity, in the two bags of a boundary edge.  Each adhesion lies in
    its mark's bag, so the new bag has size <= 3*(w+1) and width <= 3w+2.
    With two marks the split node is chosen on the path between them, so
    marks never accumulate; sizes halve at least every other level, giving
    depth <= DEFAULT_C_DEPTH * ceil(log2(bags+1)).

    Each split makes one walk of its component, rooted at its first mark
    (or any bag), for parent pointers and subtree sizes: the centroid is
    found by walking down into any part larger than half, and the path
    between two marks by following parent pointers.  Neither depends on
    where the walk starts.  The same walk gives the parts left by the
    split: each bag is labelled with its part's bag next to the split bag,
    that part's new mark, and the parts are built in order of their
    smallest bag id.  So the output's bags and child order depend only on
    the input's bags, its tree edges and the order of its bag ids; the
    output's ids are numbered on from the largest input id.

    ``td`` is not validated up front: the CLI validates a ``--td`` before
    it runs, and a min-fill decomposition is valid by construction.  The
    result is validated.  Only when that check fails, or the bag graph is
    not connected, is ``td`` validated, so that an invalid input is refused
    with its own first violation (or balances to a valid result anyway).
    """
    in_bags = len(td.bags)
    bags: dict[int, frozenset[int]] = dict(td.bags)
    adj = td.neighbors()

    # Root at the smallest bag id and binarize before splitting.
    if not bags:
        _refuse(td, g, "cannot balance a decomposition without bags")
    root = min(bags)
    children: dict[int, list[int]] = {u: [] for u in bags}
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                stack.append(v)
    if len(seen) != in_bags:
        _refuse(td, g, "cannot balance a disconnected bag graph")
    fresh = [max(bags) + 1]
    _binarize(bags, children, root, fresh)

    adj = {u: list(cs) for u, cs in children.items()}   # children, then parent
    for u, cs in children.items():
        for v in cs:
            adj[v].append(u)

    out_bags: dict[int, frozenset[int]] = {}
    out_children: dict[int, list[int]] = {}

    def new_node(bag: frozenset[int]) -> int:
        nid = fresh[0]
        fresh[0] += 1
        out_bags[nid] = bag
        out_children[nid] = []
        return nid

    def pick_split(nodes: set[int], marks: list[int]) -> tuple[int, dict, list[int]]:
        # One walk of the tree induced on `nodes`, rooted at the first mark
        # (or any node): parent pointers, then subtree sizes bottom-up.  The
        # split node is returned with the walk's parent pointers and order.
        start = marks[0] if marks else next(iter(nodes))
        up = {start: None}
        walk = [start]
        for u in walk:
            p = up[u]
            for w in adj[u]:
                if w != p and w in nodes:
                    up[w] = u
                    walk.append(w)
        size = dict.fromkeys(walk, 1)
        for u in walk[:0:-1]:
            size[up[u]] += size[u]
        total = len(nodes)
        if len(marks) < 2:
            # Centroid: walk down into any part larger than half.  A part of
            # exactly half makes its root a second centroid; the smaller id
            # wins.
            u = start
            while True:
                big = [w for w in adj[u] if w != up[u] and w in nodes
                       and 2 * size[w] >= total]
                if not big or 2 * size[big[0]] == total:
                    return min([u] + big), up, walk
                u = big[0]
        # Split on the path between the two marks: every component of
        # nodes - {c} then holds at most one mark.  Walking from marks[0],
        # take the first node where the part before the next path node
        # reaches half; both mark-side components then have <= total/2.
        path = [marks[1]]
        while path[-1] != start:
            path.append(up[path[-1]])
        path.reverse()
        c = next((u for u, nxt in zip(path, path[1:])
                  if 2 * (total - size[nxt]) >= total), path[-1])
        return c, up, walk

    def build(nodes: set[int], marks: dict[int, frozenset[int]]) -> int:
        if len(nodes) == 1:              # its marks' adhesions lie in its bag
            return new_node(bags[next(iter(nodes))])
        c, up, walk = pick_split(nodes, sorted(marks))
        me = new_node(bags[c].union(*marks.values()))
        # Label each node of nodes - {c} with its part's node next to c: a
        # child of c labels itself, any other node its parent's label (the
        # walk lists parents first), and the walk's root, parent None, up[c].
        label = {None: up[c]}
        parts: dict[int, set[int]] = {}
        for u in walk:
            if u != c:
                b = label[u] = u if up[u] == c else label[up[u]]
                parts.setdefault(b, set()).add(u)
        kids = []
        for b, part in sorted(parts.items(), key=lambda bp: min(bp[1])):
            sub_marks = {m: a for m, a in marks.items() if m in part}
            sub_marks[b] = sub_marks.get(b, frozenset()) | (bags[b] & bags[c])
            kids.append(build(part, sub_marks))
        # Binarize the <=3 children under same-bag spacer nodes.
        cur = me
        while len(kids) > 2:
            spacer = new_node(out_bags[me])
            out_children[cur] = [kids.pop(), spacer]
            cur = spacer
        out_children[cur] = kids
        return me

    out_root = build(set(bags), {})
    del build                            # recursive closure: break the cycle

    depth, level = -1, [out_root]
    while level:
        depth += 1
        level = [w for u in level for w in out_children[u]]
    width = max(len(b) for b in out_bags.values()) - 1
    bound = DEFAULT_C_DEPTH * math.ceil(math.log2(in_bags + 1))
    if depth > bound:
        _refuse(td, g, f"balancer produced depth {depth} > {bound}")
    if width > 3 * td.width() + 2:
        _refuse(td, g, f"balancer produced width {width} > {3 * td.width() + 2}")
    sd = ShallowDecomposition(out_bags, {u: tuple(cs) for u, cs in out_children.items()},
                              out_root, depth, width)
    check = validate(sd.to_tree_decomposition(), g)
    if not check.ok:
        _refuse(td, g, "balancer produced invalid decomposition: " + check.violations[0])
    return sd


def _refuse(td: TreeDecomposition, g: WeightedGraph, fault: str):
    """Raise for a failed ``balance``: the input's first violation if it has
    one, else the balancer's own fault."""
    report = validate(td, g)
    if not report.ok:
        raise TreeDecompositionError("cannot balance an invalid decomposition: " + report.violations[0])
    raise TreeDecompositionError(fault)
