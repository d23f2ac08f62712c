"""Graph and features shared by the whole pipeline.

A solution is a ``frozenset`` of features and its value is
``WeightedGraph.value`` of it.  Weights are 64-bit signed integers.  Sums are
exact Python integers; a value that is reported outside the 64-bit range
raises :class:`WeightOverflowError` instead of wrapping.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

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


class FeatureId(NamedTuple):
    """A vertex (rank 0) or edge (rank 1) of the input graph and its 1-based
    index.  Tuple order is the canonical order: all vertices before all
    edges, then by index; solution tie keys and pivot selection use it."""

    rank: int
    index: int

    @property
    def kind(self) -> str:
        return EDGE if self.rank else VERTEX

    def __repr__(self):
        return f"{self.kind}{self.index}"


def vertex(i: int) -> FeatureId:
    return FeatureId(0, i)


def edge(i: int) -> FeatureId:
    return FeatureId(1, i)


def parse_feature(name: str) -> FeatureId:
    """The feature named as ``repr`` prints it: ``v<i>`` or ``e<i>``, i >= 1."""
    kind, digits = name[:1], name[1:]
    if (kind not in (VERTEX, EDGE) or not (digits.isascii() and digits.isdigit())
            or int(digits) < 1):
        raise ValueError(f"bad feature name {name!r}")
    return (edge if kind == EDGE else vertex)(int(digits))


class _Graph(NamedTuple):
    n: int
    m: int
    directed: bool
    edges: tuple[tuple[int, int], ...]
    weights: dict[FeatureId, int]


class WeightedGraph(_Graph):
    """A directed or undirected multigraph with per-feature integer weights.

    Vertices are 1..n.  Edge i is the i-th edge line of the input; parallel
    edges and self-loops are allowed.  ``weights`` maps features to weights
    (default: a new empty dict); vertex weights default to 0 when absent.
    An immutable record; ``_replace`` skips the checks below.
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, directed: bool,
                edges: tuple[tuple[int, int], ...],
                weights: dict[FeatureId, int] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(edges) != m:
            raise ValueError(f"expected {m} edges, got {len(edges)}")
        for t, h in edges:
            if not (1 <= t <= n and 1 <= h <= n):
                raise ValueError(f"edge endpoint out of range: ({t}, {h})")
        weights = {} if weights is None else weights
        for fid, w in weights.items():
            if not (INT64_MIN <= w <= INT64_MAX):
                raise ValueError(f"weight of {fid} outside 64-bit range")
        return super().__new__(cls, n, m, directed, edges, weights)

    def value(self, features) -> int:
        """Exact sum of the features' weights; not range-checked, since only
        reported values must fit in 64 bits."""
        return sum(self.weights.get(f, 0) for f in features)

    def vertex_features(self) -> Iterator[FeatureId]:
        return (vertex(i) for i in range(1, self.n + 1))

    def edge_features(self) -> Iterator[FeatureId]:
        return (edge(i) for i in range(1, self.m + 1))

    def endpoints(self, edge_index: int) -> tuple[int, int]:
        return self.edges[edge_index - 1]


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
