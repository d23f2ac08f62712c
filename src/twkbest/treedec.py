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
            tuple(sorted(e)) for e in tree_edges}

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
    """Check the three decomposition conditions; violations are data, not errors."""
    violations: list[str] = []
    adj = td.neighbors()

    # The tree_edges must actually form a tree over the bag ids.
    if td.bags:
        seen = set()
        start = min(td.bags)
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adj[u]:
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

    holders: dict[int, list[int]] = {}
    for bid, b in td.bags.items():
        for v in b:
            holders.setdefault(v, []).append(bid)

    for i, (t, h) in enumerate(g.edges, 1):
        t_bags = holders.get(t, ())
        h_bags = holders.get(h, ())
        # Scan the smaller holder list against a set of the other.
        if len(t_bags) > len(h_bags):
            t_bags, h_bags = h_bags, t_bags
        if not set(t_bags) & set(h_bags):
            violations.append(f"edge e{i}=({t},{h}) has no bag containing both endpoints")

    # Connectivity: for each vertex, bags containing it induce a subtree.
    for v, bag_ids in holders.items():
        if len(bag_ids) <= 1:
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

    Disconnected graphs are handled by the elimination construction directly:
    component roots are linked through a chain of empty bags.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for t, h in g.edges:
        if t != h:
            nbrs[t].add(h)
            nbrs[h].add(t)

    def fill_in(v: int) -> int:
        ns = list(nbrs[v])
        cnt = 0
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                if ns[j] not in nbrs[ns[i]]:
                    cnt += 1
        return cnt

    order: list[int] = []
    elim_bag: dict[int, frozenset[int]] = {}
    remaining = set(nbrs)
    # Lazy heap: entries may be stale; recompute on pop and re-push until the
    # popped score is current.  Only vertices near an elimination change score.
    heap = [(fill_in(v), len(nbrs[v]), v) for v in sorted(nbrs)]
    heapq.heapify(heap)
    while remaining:
        fill, deg, v = heapq.heappop(heap)
        if v not in remaining:
            continue
        cur = (fill_in(v), len(nbrs[v]), v)
        if cur != (fill, deg, v):
            heapq.heappush(heap, cur)
            continue
        order.append(v)
        elim_bag[v] = frozenset({v} | nbrs[v])
        ns = list(nbrs[v])
        for i in range(len(ns)):
            for j in range(i + 1, len(ns)):
                nbrs[ns[i]].add(ns[j])
                nbrs[ns[j]].add(ns[i])
        for u in ns:
            nbrs[u].discard(v)
        del nbrs[v]
        remaining.discard(v)
        for u in ns:
            heapq.heappush(heap, (fill_in(u), len(nbrs[u]), u))

    elim_index = {v: i for i, v in enumerate(order)}
    bags = {i + 1: elim_bag[v] for i, v in enumerate(order)}
    tree_edges: set[tuple[int, int]] = set()
    component_roots: list[int] = []
    for i, v in enumerate(order):
        later = [u for u in elim_bag[v] if u != v]
        if later:
            parent_vertex = min(later, key=lambda u: elim_index[u])
            tree_edges.add(tuple(sorted((i + 1, elim_index[parent_vertex] + 1))))
        else:
            component_roots.append(i + 1)

    # Link component roots through a chain of empty bags.
    if len(component_roots) > 1:
        next_id = len(order) + 1
        prev = None
        for r in component_roots:
            bags[next_id] = frozenset()
            tree_edges.add(tuple(sorted((next_id, r))))
            if prev is not None:
                tree_edges.add(tuple(sorted((prev, next_id))))
            prev = next_id
            next_id += 1
    return TreeDecomposition(bags, tree_edges)


class ShallowDecomposition(NamedTuple):
    """A rooted binary tree decomposition with recorded depth and width."""

    bags: dict[int, frozenset[int]]
    children: dict[int, tuple[int, ...]]
    root: int
    depth: int
    width: int

    def to_tree_decomposition(self) -> TreeDecomposition:
        edges = {tuple(sorted((p, c))) for p, cs in self.children.items() for c in cs}
        return TreeDecomposition(dict(self.bags), edges)


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
    """
    report = validate(td, g)
    if not report.ok:
        raise TreeDecompositionError("cannot balance an invalid decomposition: " + report.violations[0])

    in_bags = len(td.bags)
    bags: dict[int, frozenset[int]] = dict(td.bags)
    adj = {u: list(vs) for u, vs in td.neighbors().items()}

    # Root at the smallest bag id and binarize before splitting.
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
    fresh = [max(bags) + 1]
    _binarize(bags, children, root, fresh)

    parent: dict[int, int | None] = {root: None}
    order = [root]
    for u in order:
        for v in children[u]:
            parent[v] = u
            order.append(v)
    adj = {u: list(children[u]) + ([parent[u]] if parent[u] is not None else []) for u in bags}

    out_bags: dict[int, frozenset[int]] = {}
    out_children: dict[int, list[int]] = {}

    def new_node(bag: frozenset[int]) -> int:
        nid = fresh[0]
        fresh[0] += 1
        out_bags[nid] = bag
        out_children[nid] = []
        return nid

    def subtree_sizes(nodes: set[int], start: int) -> dict[int, int]:
        # Iterative post-order sizes of the tree induced on `nodes`.
        size = {}
        stk = [(start, None, False)]
        while stk:
            u, p, done = stk.pop()
            if done:
                size[u] = 1 + sum(size[w] for w in adj[u] if w in nodes and w != p)
            else:
                stk.append((u, p, True))
                for w in adj[u]:
                    if w in nodes and w != p:
                        stk.append((w, u, False))
        return size

    def components_without(nodes: set[int], c: int) -> list[set[int]]:
        comps = []
        left = set(nodes)
        left.discard(c)
        while left:
            s = next(iter(left))
            comp = {s}
            stk = [s]
            while stk:
                u = stk.pop()
                for w in adj[u]:
                    if w in left and w not in comp:
                        comp.add(w)
                        stk.append(w)
            comps.append(comp)
            left -= comp
        return comps

    def centroid(nodes: set[int]) -> int:
        start = min(nodes)
        size = subtree_sizes(nodes, start)
        total = len(nodes)
        best, best_key = None, None
        for u in nodes:
            worst = 0
            below = 0
            for w in adj[u]:
                if w in nodes and size.get(w, total) < size[u]:
                    worst = max(worst, size[w])
                    below += size[w]
            worst = max(worst, total - 1 - below)
            key = (worst, u)
            if best_key is None or key < best_key:
                best, best_key = u, key
        return best

    def tree_path(nodes: set[int], a: int, b: int) -> list[int]:
        prev = {a: None}
        stk = [a]
        while stk:
            u = stk.pop()
            if u == b:
                break
            for w in adj[u]:
                if w in nodes and w not in prev:
                    prev[w] = u
                    stk.append(w)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def pick_split(nodes: set[int], marks: list[int]) -> int:
        if len(marks) < 2:
            return centroid(nodes)
        # Split on the path between the two marks: every component of
        # nodes - {c} then holds at most one mark.
        path = tree_path(nodes, marks[0], marks[1])
        total = len(nodes)
        size = subtree_sizes(nodes, marks[0])
        # hang[i]: nodes in the part hanging at path[i] (path removed).
        on_path = set(path)
        hang = []
        for u in path:
            h = 1
            for w in adj[u]:
                if w in nodes and w not in on_path and size.get(w, 0) < size.get(u, total):
                    # w is a child of u off the path
                    h += size[w]
            hang.append(h)
        # Walking from marks[0], take the first node where the prefix
        # reaches half; both mark-side components then have <= total/2.
        prefix = 0
        for i, u in enumerate(path):
            prefix += hang[i]
            if 2 * prefix >= total or i == len(path) - 1:
                return u
        return path[-1]

    def build(nodes: set[int], marks: dict[int, frozenset[int]]) -> int:
        if len(nodes) == 1:              # its marks' adhesions lie in its bag
            return new_node(bags[next(iter(nodes))])
        c = pick_split(nodes, sorted(marks))
        me = new_node(bags[c].union(*marks.values()))
        kids = []
        for comp in components_without(nodes, c):
            boundary = next(w for w in adj[c] if w in comp)
            sub_marks = {m: a for m, a in marks.items() if m in comp}
            sub_marks[boundary] = sub_marks.get(boundary, frozenset()) | (bags[boundary] & bags[c])
            kids.append(build(comp, sub_marks))
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

    def depth_of(r: int) -> int:
        best = 0
        stk = [(r, 0)]
        while stk:
            u, d = stk.pop()
            best = max(best, d)
            for w in out_children[u]:
                stk.append((w, d + 1))
        return best

    depth = depth_of(out_root)
    width = max(len(b) for b in out_bags.values()) - 1
    bound = DEFAULT_C_DEPTH * math.ceil(math.log2(in_bags + 1))
    if depth > bound:
        raise TreeDecompositionError(f"balancer produced depth {depth} > {bound}")
    if width > 3 * td.width() + 2:
        raise TreeDecompositionError(f"balancer produced width {width} > {3 * td.width() + 2}")
    sd = ShallowDecomposition(out_bags, {u: tuple(cs) for u, cs in out_children.items()},
                              out_root, depth, width)
    check = validate(sd.to_tree_decomposition(), g)
    if not check.ok:
        raise TreeDecompositionError("balancer produced invalid decomposition: " + check.violations[0])
    return sd


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
