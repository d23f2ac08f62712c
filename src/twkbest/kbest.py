"""Best-first enumeration of the k minimum-weight solutions.

The subproblem space is a binary tree of versions: each expandable version
(second-best value finite) splits on a pivot feature into a forced child and
an excluded child, which partition its solution set minus its best solution.
Every solution except the global best is the second-best of exactly one
version, so a best-first scan over second-best values emits solutions in
nondecreasing order.
"""
from __future__ import annotations

import contextlib
import gc
import heapq
from time import perf_counter

from .core import FeatureId, WeightedGraph, check_int64
from .treedec import TreeDecomposition, balance, heuristic_decomposition
from .algebra import build_parse_tree
from .evaluation import INF, Evaluator
from .problems import builtin
from .persist import (
    best_pair,
    constrain,
    initial_version,
    pivot_query,
    solution_at,
)

DIRECT_K_LIMIT = 64


class RunStats:
    """Counters of one ``k_best`` run, and the seconds of each of its
    stages (``STAGES``): the min-fill heuristic (0 when a decomposition is
    given), balancing, the parse tree, the initial evaluation, and the
    enumeration loop."""

    __slots__ = ("expansions", "max_copies", "exhausted_after", "infeasible",
                 "tree_depth", "max_order", "state_count", "stage_s")
    STAGES = ("decompose", "balance", "parse", "build", "loop")

    def __init__(self):
        self.expansions = self.max_copies = 0
        self.exhausted_after: int | None = None
        self.infeasible = False
        self.tree_depth = self.max_order = self.state_count = 0
        self.stage_s = dict.fromkeys(self.STAGES, 0.0)


def prepare(g: WeightedGraph, problem: str, s: int | None = None,
            t: int | None = None, td: TreeDecomposition | None = None,
            stats: RunStats | None = None):
    """Build the automaton (it checks the terminals), then the parse tree;
    time its stages into stats if given."""
    automaton = builtin(problem, g, s, t)
    t0 = perf_counter()
    if td is None:
        td = heuristic_decomposition(g)
    t1 = perf_counter()
    sd = balance(td, g)
    t2 = perf_counter()
    tree = build_parse_tree(sd, g)
    if stats is not None:
        stats.stage_s.update(decompose=t1 - t0, balance=t2 - t1,
                             parse=perf_counter() - t2)
    return tree, automaton


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic collector: the trees a run builds are acyclic, so
    reference counting frees them and a collection would only rescan them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def k_best(g: WeightedGraph, problem: str, k: int, s: int | None = None,
           t: int | None = None, want_solutions: bool = False,
           td: TreeDecomposition | None = None,
           stats: RunStats | None = None,
           ) -> list[tuple[int, frozenset[FeatureId] | None]]:
    """The first min(k, m) values of the nondecreasing feasible-value
    sequence; with want_solutions, distinct feasible solutions achieving
    them.  Raises WeightOverflowError if one of them leaves the 64-bit
    range."""
    if k < 1:
        raise ValueError("k must be positive")
    stats = RunStats() if stats is None else stats
    tree, automaton = prepare(g, problem, s, t, td, stats)
    stats.tree_depth = tree.depth
    stats.max_order = tree.max_order
    t0 = perf_counter()
    v0 = initial_version(tree, automaton)
    t1 = perf_counter()
    stats.stage_s["build"] = t1 - t0
    del tree                             # the enumeration reads only v0
    stats.state_count = sum(map(len, v0.evaluator.relevant))
    first, second = best_pair(v0)
    if first is INF:
        stats.infeasible = True
        return []
    best = solution_at(v0, 0) if want_solutions else None
    out = [(check_int64(first), best)]
    # Each entry carries its version's best solution, already in out, from
    # which solution_at finds the second by difference.
    heap: list = []
    seq = 0
    if second is not INF:
        heapq.heappush(heap, (second, seq, best, v0))
        seq += 1
    last_key = None
    while len(out) < k and heap:
        key, _, best, v = heapq.heappop(heap)
        assert last_key is None or key >= last_key
        last_key = key
        sol = solution_at(v, 1, best) if want_solutions else None
        out.append((check_int64(key), sol))
        report = pivot_query(v)
        for force in (True, False):
            child = constrain(v, report, force)
            stats.max_copies = max(stats.max_copies, child.copied_nodes)
            _, csecond = best_pair(child)
            if csecond is not INF:
                # The child's best is the survivor: v's best or its second.
                cbest = best if report.best_contains == force else sol
                heapq.heappush(heap, (csecond, seq, cbest, child))
                seq += 1
        stats.expansions += 1
    if len(out) < k:
        stats.exhausted_after = len(out)
    stats.stage_s["loop"] = perf_counter() - t1
    return out


@_gc_paused()
def k_best_direct(g: WeightedGraph, problem: str, k: int,
                  s: int | None = None, t: int | None = None,
                  td: TreeDecomposition | None = None) -> list[int]:
    """Independent cross-check: the first min(k, m) values by one values-only
    fold under ``TopKStructure(k)``, sharing only the relevance tables with
    ``k_best``."""
    if not (1 <= k <= DIRECT_K_LIMIT):
        raise ValueError(f"direct mode supports 1 <= k <= {DIRECT_K_LIMIT}")
    tree, automaton = prepare(g, problem, s, t, td)
    values = Evaluator(automaton).top_values(tree, k)
    return [check_int64(v) for v in values]

