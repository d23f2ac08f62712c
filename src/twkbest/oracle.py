"""Brute-force reference enumeration for small instances.

Enumerates entire solution families by exhaustive search and checks
feasibility with direct graph predicates.  Intended for cross-checking the
main pipeline on graphs small enough that 2^(features) is tractable.
"""
from __future__ import annotations

from itertools import combinations

from .core import EDGE, VERTEX, FeatureId, WeightedGraph, edge, vertex

ENUMERATION_CAP = 1 << 24


class OracleCapExceeded(RuntimeError):
    pass


def _edge_subsets(g: WeightedGraph):
    count = 1 << g.m
    if count > ENUMERATION_CAP:
        raise OracleCapExceeded(f"2^{g.m} candidate edge sets")
    for size in range(g.m + 1):
        for combo in combinations(range(1, g.m + 1), size):
            yield frozenset(edge(i) for i in combo)


def _vertex_subsets(g: WeightedGraph):
    count = 1 << g.n
    if count > ENUMERATION_CAP:
        raise OracleCapExceeded(f"2^{g.n} candidate vertex sets")
    for size in range(g.n + 1):
        for combo in combinations(range(1, g.n + 1), size):
            yield frozenset(vertex(v) for v in combo)


def _degrees(g: WeightedGraph, edge_set: frozenset[FeatureId]):
    deg: dict[int, int] = {}
    for f in edge_set:
        t, h = g.endpoints(f.index)
        deg[t] = deg.get(t, 0) + 1
        deg[h] = deg.get(h, 0) + 1
    return deg


def _connected_on(g: WeightedGraph, edge_set: frozenset[FeatureId], verts: set[int]) -> bool:
    if not verts:
        return True
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for f in edge_set:
        t, h = g.endpoints(f.index)
        adj[t].append(h)
        adj[h].append(t)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v])
    return seen == verts


def is_simple_path(g: WeightedGraph, edge_set: frozenset[FeatureId], s: int, t: int) -> bool:
    """Edge set forms a simple s-t path (directed: consistently oriented
    s -> t).  s == t is rejected; self-loops can never participate."""
    if s == t or not edge_set:
        return False
    if g.directed:
        outd: dict[int, int] = {}
        ind: dict[int, int] = {}
        verts: set[int] = set()
        for f in edge_set:
            a, b = g.endpoints(f.index)
            if a == b:
                return False
            outd[a] = outd.get(a, 0) + 1
            ind[b] = ind.get(b, 0) + 1
            verts.update((a, b))
        if s not in verts or t not in verts:
            return False
        for v in verts:
            o, i = outd.get(v, 0), ind.get(v, 0)
            if v == s and (o, i) != (1, 0):
                return False
            if v == t and (o, i) != (0, 1):
                return False
            if v not in (s, t) and (o, i) != (1, 1):
                return False
        return _connected_on(g, edge_set, verts)
    deg = _degrees(g, edge_set)
    for f in edge_set:
        a, b = g.endpoints(f.index)
        if a == b:
            return False
    verts = set(deg)
    if s not in verts or t not in verts:
        return False
    for v in verts:
        want = 1 if v in (s, t) else 2
        if deg[v] != want:
            return False
    return _connected_on(g, edge_set, verts)


def is_spanning_tree(g: WeightedGraph, edge_set: frozenset[FeatureId]) -> bool:
    if g.n == 0:
        return not edge_set
    if len(edge_set) != g.n - 1:
        return False
    for f in edge_set:
        a, b = g.endpoints(f.index)
        if a == b:
            return False
    return _connected_on(g, edge_set, set(range(1, g.n + 1)))


def is_perfect_matching(g: WeightedGraph, edge_set: frozenset[FeatureId]) -> bool:
    deg = _degrees(g, edge_set)
    for f in edge_set:
        a, b = g.endpoints(f.index)
        if a == b:
            return False
    return set(deg) == set(range(1, g.n + 1)) and all(d == 1 for d in deg.values())


def is_vertex_cover(g: WeightedGraph, vertex_set: frozenset[FeatureId]) -> bool:
    chosen = {f.index for f in vertex_set}
    for t, h in g.edges:
        if t not in chosen and h not in chosen:
            return False
    return True


def predicate_for(problem: str, s: int | None = None, t: int | None = None):
    """(predicate, variable kind) for a named problem over one set variable."""
    if problem == "simple-path":
        if s is None or t is None:
            raise ValueError("simple-path oracle needs terminals s and t")
        return (lambda g, fs: is_simple_path(g, fs, s, t)), EDGE
    if problem == "spanning-tree":
        return is_spanning_tree, EDGE
    if problem == "perfect-matching":
        return is_perfect_matching, EDGE
    if problem == "vertex-cover":
        return is_vertex_cover, VERTEX
    raise ValueError(f"unknown problem {problem!r}")


def enumerate_sorted(
    g: WeightedGraph,
    predicate,
    kind: str,
    required: frozenset[FeatureId] = frozenset(),
    forbidden: frozenset[FeatureId] = frozenset(),
) -> list[tuple[int, frozenset[FeatureId]]]:
    """All feasible feature sets of the given kind respecting the feature
    constraints, as (value, set) sorted by value, then by ``sorted(set)``."""
    subsets = _edge_subsets(g) if kind == EDGE else _vertex_subsets(g)
    out = []
    for fs in subsets:
        if not required <= fs or fs & forbidden:
            continue
        if predicate(g, fs):
            out.append((g.value(fs), fs))
    out.sort(key=lambda p: (p[0], sorted(p[1])))
    return out


def enumerate_paths(g: WeightedGraph, s: int, t: int,
                    limit: int = ENUMERATION_CAP,
                    ) -> list[tuple[int, frozenset[FeatureId]]]:
    """All simple s-t paths by DFS; feasible for larger graphs than subset
    enumeration.  Directed graphs follow edge orientation."""
    if s == t:
        return []
    out_edges: dict[int, list[tuple[int, int]]] = {}
    for i, (a, b) in enumerate(g.edges, 1):
        if a != b:
            out_edges.setdefault(a, []).append((i, b))
            if not g.directed:
                out_edges.setdefault(b, []).append((i, a))
    found: list[tuple[int, frozenset[FeatureId]]] = []
    # Iterative DFS: a path may be longer than Python's recursion limit.
    used_v, used_e = {s}, []
    stack = [(s, iter(out_edges.get(s, ())))]
    while stack:
        v, steps = stack[-1]
        step = next(steps, None)
        if step is None:
            stack.pop()
            used_v.remove(v)
            if used_e:
                used_e.pop()
            continue
        i, w = step
        if w == t:
            if len(found) >= limit:
                raise OracleCapExceeded(f"more than {limit} simple paths")
            fs = frozenset(edge(j) for j in used_e + [i])
            found.append((g.value(fs), fs))
        elif w not in used_v:
            used_v.add(w)
            used_e.append(i)
            stack.append((w, iter(out_edges.get(w, ()))))
    found.sort(key=lambda p: (p[0], sorted(p[1])))
    return found
