"""Yen's k shortest simple paths, as a value check independent of twkbest.

``yen(g, s, t, k)`` lists the first k simple s-t paths of a
``twkbest.core.WeightedGraph`` by value.  The algorithm is Yen's (*Finding
the k shortest loopless paths in a network*, Management Science 17(11),
1971): each new path is the cheapest of the candidates that leave an
accepted path at one of its vertices (the spur node) and reach t by a
shortest path that avoids the accepted path's earlier vertices and every
edge by which an accepted path with the same root leaves that spur node.
One stdlib ``heapq`` Dijkstra runs per spur node.  Paths are sequences of
edge indices, so parallel edges give distinct paths; self-loops never lie
on a simple path.  Dijkstra needs nonnegative weights, so a negative weight
is refused.  It reads only the graph record, none of the engine.
"""
from __future__ import annotations

import heapq

from twkbest.core import edge


def _adjacency(g):
    """(vertex -> (neighbour, edge index) per edge leaving it, edge index
    -> weight)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.n + 1)}
    weight: dict[int, int] = {}
    for i, (a, b) in enumerate(g.edges, 1):
        w = weight[i] = g.weights.get(edge(i), 0)
        if w < 0:
            raise ValueError(f"edge {i} has negative weight {w}")
        if a != b:
            adj[a].append((b, i))
            if not g.directed:
                adj[b].append((a, i))
    return adj, weight


def _dijkstra(adj, weight, s: int, t: int, banned_vertices, banned_edges):
    """(cost, edge indices, vertices) of a shortest s-t path avoiding the
    banned vertices and edges, or None."""
    dist = {s: 0}
    back: dict[int, tuple[int, int]] = {}     # vertex -> (previous, edge)
    heap = [(0, s)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v == t:
            edges, verts = [], [t]
            while v != s:
                v, i = back[v]
                edges.append(i)
                verts.append(v)
            return d, edges[::-1], verts[::-1]
        for u, i in adj[v]:
            if u in done or u in banned_vertices or i in banned_edges:
                continue
            du = d + weight[i]
            if u not in dist or du < dist[u]:
                dist[u] = du
                back[u] = (v, i)
                heapq.heappush(heap, (du, u))
    return None


def yen(g, s: int, t: int, k: int) -> list[tuple[int, tuple[int, ...]]]:
    """The first min(k, all) simple s-t paths by value: (value, edge
    indices in path order).  Raises ValueError on a negative weight."""
    adj, weight = _adjacency(g)
    if s == t or k < 1:
        return []
    first = _dijkstra(adj, weight, s, t, set(), set())
    if first is None:
        return []
    accepted = [first]
    seen = {tuple(first[1])}
    candidates: list = []                     # (cost, edges, vertices)
    while len(accepted) < k:
        _, edges, verts = accepted[-1]
        root_cost = 0
        for i, spur in enumerate(verts[:-1]):
            root = edges[:i]
            banned = {p[1][i] for p in accepted if p[1][:i] == root}
            found = _dijkstra(adj, weight, spur, t, set(verts[:i]), banned)
            if found is not None and tuple(root + found[1]) not in seen:
                seen.add(tuple(root + found[1]))
                heapq.heappush(candidates, (root_cost + found[0],
                                            root + found[1],
                                            verts[:i] + found[2]))
            root_cost += weight[edges[i]]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [(cost, tuple(edges)) for cost, edges, _ in accepted]
