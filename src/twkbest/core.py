"""Graph, feature, and cost model shared by the whole pipeline.

Weights are 64-bit signed integers.  Sums are exact Python integers; a
value that is reported outside the 64-bit range raises
:class:`WeightOverflowError` instead of wrapping.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

VERTEX = "v"
EDGE = "e"

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class GraphFormatError(ValueError):
    """Malformed .gr input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WeightOverflowError(ArithmeticError):
    """A weight sum left the 64-bit signed range."""


def check_int64(s: int) -> int:
    """Return s; raise WeightOverflowError if it is outside the 64-bit range."""
    if s < INT64_MIN or s > INT64_MAX:
        raise WeightOverflowError(f"weight sum {s} exceeds 64-bit range")
    return s


@functools.total_ordering
@dataclass(frozen=True)
class FeatureId:
    """A vertex or edge of the input graph, identified by kind and 1-based index.

    The total order is: all vertices before all edges, then by index.  Every
    canonical ordering in the pipeline (solution encodings, pivot selection)
    uses this order.
    """

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (VERTEX, EDGE):
            raise ValueError(f"bad feature kind {self.kind!r}")
        if self.index < 1:
            raise ValueError(f"feature index must be positive, got {self.index}")

    @property
    def sort_key(self) -> tuple[int, int]:
        return (0 if self.kind == VERTEX else 1, self.index)

    def __lt__(self, other: "FeatureId") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"{self.kind}{self.index}"


def vertex(i: int) -> FeatureId:
    return FeatureId(VERTEX, i)


def edge(i: int) -> FeatureId:
    return FeatureId(EDGE, i)


def parse_feature(name: str) -> FeatureId:
    if len(name) < 2 or name[0] not in (VERTEX, EDGE):
        raise ValueError(f"bad feature name {name!r}")
    return FeatureId(name[0], int(name[1:]))


@dataclass(frozen=True)
class WeightedGraph:
    """A directed or undirected multigraph with per-feature integer weights.

    Vertices are 1..n.  Edge i is the i-th edge line of the input; parallel
    edges and self-loops are allowed.  ``weights`` maps features to weights;
    vertex weights default to 0 when absent.
    """

    n: int
    m: int
    directed: bool
    edges: tuple[tuple[int, int], ...]
    weights: dict[FeatureId, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.edges) != self.m:
            raise ValueError(f"expected {self.m} edges, got {len(self.edges)}")
        for t, h in self.edges:
            if not (1 <= t <= self.n and 1 <= h <= self.n):
                raise ValueError(f"edge endpoint out of range: ({t}, {h})")
        for fid, w in self.weights.items():
            if not (INT64_MIN <= w <= INT64_MAX):
                raise ValueError(f"weight of {fid} outside 64-bit range")

    def weight(self, fid: FeatureId) -> int:
        return self.weights.get(fid, 0)

    def vertex_features(self) -> Iterator[FeatureId]:
        return (vertex(i) for i in range(1, self.n + 1))

    def edge_features(self) -> Iterator[FeatureId]:
        return (edge(i) for i in range(1, self.m + 1))

    def endpoints(self, edge_index: int) -> tuple[int, int]:
        return self.edges[edge_index - 1]


def undirected_shadow(g: WeightedGraph) -> WeightedGraph:
    """Forget edge orientations; edge indices and weights are preserved."""
    if not g.directed:
        return g
    return WeightedGraph(g.n, g.m, False, g.edges, dict(g.weights))


@functools.total_ordering
@dataclass(frozen=True)
class Solution:
    """One feature set per free variable, compared by canonical encoding."""

    sets: tuple[frozenset[FeatureId], ...]

    def encoding(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(sorted(f.sort_key for f in s)) for s in self.sets)

    def __lt__(self, other: "Solution") -> bool:
        return self.encoding() < other.encoding()

    def __repr__(self):
        parts = []
        for s in self.sets:
            parts.append("{" + ",".join(str(f) for f in sorted(s)) + "}")
        return "(" + ";".join(parts) + ")"


def make_solution(*sets: Iterable[FeatureId]) -> Solution:
    return Solution(tuple(frozenset(s) for s in sets))


@dataclass(frozen=True)
class CostModel:
    """Feature costs of the one set variable: ``cost[feature]``.

    ``kind`` is VERTEX or EDGE; costs are only defined for features of that
    kind.  Features absent from ``cost`` are free (cost 0).
    """

    kind: str
    cost: dict[FeatureId, int]

    def __post_init__(self):
        for fid in self.cost:
            if fid.kind != self.kind:
                raise ValueError(f"cost defined for {fid} but the variable has type {self.kind}")

    @staticmethod
    def edge_costs(g: WeightedGraph) -> "CostModel":
        """Edge-set variable priced by the graph's edge weights."""
        cost = {edge(i): g.weight(edge(i)) for i in range(1, g.m + 1)}
        return CostModel(EDGE, cost)

    @staticmethod
    def vertex_costs(g: WeightedGraph) -> "CostModel":
        """Vertex-set variable priced by the graph's vertex weights."""
        cost = {vertex(i): g.weight(vertex(i)) for i in range(1, g.n + 1)}
        return CostModel(VERTEX, cost)


def solution_value(s: Solution, c: CostModel) -> int:
    """Exact integer value of a solution; not range-checked, since only
    reported values must fit in 64 bits."""
    if len(s.sets) != 1:
        raise ValueError(f"solution has {len(s.sets)} sets, cost model expects 1")
    for fid in s.sets[0]:
        if fid.kind != c.kind:
            raise ValueError(f"feature {fid} does not match variable type {c.kind}")
    return sum(c.cost.get(fid, 0) for fid in s.sets[0])


def load_graph(text: str) -> WeightedGraph:
    """Parse a .gr file: one ``p kbest <n> <m> <directed>`` header, then m
    ``e <tail> <head> <weight>`` lines.  Edge i is the i-th e-line."""
    header = None
    edges: list[tuple[int, int]] = []
    weights: dict[FeatureId, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(parts) != 5 or parts[1] != "kbest":
                raise GraphFormatError("header must be 'p kbest <n> <m> <directed>'", lineno)
            try:
                n, m, d = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise GraphFormatError("non-integer header fields", lineno) from None
            if n < 1 or m < 0 or d not in (0, 1):
                raise GraphFormatError("bad header values", lineno)
            header = (n, m, bool(d))
        elif parts[0] == "e":
            if header is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(parts) != 4:
                raise GraphFormatError("edge line must be 'e <tail> <head> <weight>'", lineno)
            try:
                t, h, w = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphFormatError("non-integer edge fields", lineno) from None
            n = header[0]
            if not (1 <= t <= n and 1 <= h <= n):
                raise GraphFormatError(f"endpoint out of range in edge ({t}, {h})", lineno)
            if not (INT64_MIN <= w <= INT64_MAX):
                raise GraphFormatError("edge weight outside 64-bit range", lineno)
            edges.append((t, h))
            weights[edge(len(edges))] = w
        else:
            raise GraphFormatError(f"unrecognized line {line!r}", lineno)
    if header is None:
        raise GraphFormatError("missing 'p kbest' header")
    n, m, d = header
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges but found {len(edges)}")
    return WeightedGraph(n, m, d, tuple(edges), weights)


def save_graph(g: WeightedGraph) -> str:
    lines = [f"p kbest {g.n} {g.m} {1 if g.directed else 0}"]
    for i, (t, h) in enumerate(g.edges, 1):
        lines.append(f"e {t} {h} {g.weight(edge(i))}")
    return "\n".join(lines) + "\n"
