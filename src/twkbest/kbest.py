"""Best-first enumeration of the k minimum-weight solutions.

The subproblem space is a binary tree of versions: each expandable version
(second-best value finite) splits on a pivot feature into a forced child and
an excluded child, which partition its solution set minus its best solution.
Every solution except the global best is the second-best of exactly one
version, so a best-first scan over second-best values emits solutions in
nondecreasing order.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .core import CostModel, Solution, WeightedGraph, check_int64
from .treedec import TreeDecomposition, balance, heuristic_decomposition
from .algebra import build_parse_tree
from .evaluation import INF, Evaluator, TopKStructure, root_values
from .problems import builtin
from .persist import (
    best_pair,
    constrain,
    initial_version,
    pivot_query,
    solution_at,
)

DIRECT_K_LIMIT = 64


@dataclass
class RunStats:
    expansions: int = 0
    max_copies: int = 0
    exhausted_after: int | None = None
    infeasible: bool = False
    tree_depth: int = 0
    max_order: int = 0
    state_count: int = 0


def prepare(g: WeightedGraph, problem: str, s: int | None = None,
            t: int | None = None, td: TreeDecomposition | None = None):
    """Decompose, balance, build the parse tree and the problem automaton."""
    if td is None:
        td = heuristic_decomposition(g)
    sd = balance(td, g)
    tree = build_parse_tree(sd, g)
    automaton = builtin(problem, g, s, t)
    cost = (CostModel.edge_costs(g) if automaton.kind == "e"
            else CostModel.vertex_costs(g))
    return tree, automaton, cost


def k_best(g: WeightedGraph, problem: str, k: int, s: int | None = None,
           t: int | None = None, want_solutions: bool = False,
           td: TreeDecomposition | None = None,
           stats: RunStats | None = None) -> list[tuple[int, Solution | None]]:
    """The first min(k, m) values of the nondecreasing feasible-value
    sequence; with want_solutions, distinct feasible solutions achieving
    them.  Raises WeightOverflowError if one of them leaves the 64-bit
    range."""
    if k < 1:
        raise ValueError("k must be positive")
    tree, automaton, cost = prepare(g, problem, s, t, td)
    if stats is not None:
        stats.tree_depth = tree.depth
        stats.max_order = tree.max_order
    v0 = initial_version(tree, automaton, cost)
    if stats is not None:
        stats.state_count = sum(map(len, v0.evaluator.relevant.values()))
    first, second = best_pair(v0)
    if first is INF:
        if stats is not None:
            stats.infeasible = True
        return []
    out = [(check_int64(first), solution_at(v0, 0) if want_solutions else None)]
    heap: list = []
    seq = 0
    if second is not INF:
        heapq.heappush(heap, (second, seq, v0))
        seq += 1
    last_key = None
    while len(out) < k and heap:
        key, _, v = heapq.heappop(heap)
        assert last_key is None or key >= last_key
        last_key = key
        out.append((check_int64(key),
                    solution_at(v, 1) if want_solutions else None))
        report = pivot_query(v)
        for force in (True, False):
            child = constrain(v, report, force)
            if stats is not None:
                stats.max_copies = max(stats.max_copies, child.copied_nodes)
            _, csecond = best_pair(child)
            if csecond is not INF:
                heapq.heappush(heap, (csecond, seq, child))
                seq += 1
        if stats is not None:
            stats.expansions += 1
    if stats is not None and len(out) < k:
        stats.exhausted_after = len(out)
    return out


def k_best_direct(g: WeightedGraph, problem: str, k: int,
                  s: int | None = None, t: int | None = None,
                  td: TreeDecomposition | None = None) -> list[int]:
    """Independent cross-check: one evaluation under the top-k structure,
    no persistence involved."""
    if not (1 <= k <= DIRECT_K_LIMIT):
        raise ValueError(f"direct mode supports 1 <= k <= {DIRECT_K_LIMIT}")
    tree, automaton, cost = prepare(g, problem, s, t, td)
    root = Evaluator(automaton, cost, TopKStructure(k)).build(tree)
    return [check_int64(v) for v in root_values(root, automaton)]


def exhaust(g: WeightedGraph, problem: str, s: int | None = None,
            t: int | None = None, order: str = "best",
            rng: random.Random | None = None, cap: int = 100000,
            td: TreeDecomposition | None = None):
    """Expand the entire subproblem tree in a pluggable order and return
    (sorted value list, all versions created).  The value multiset is
    independent of the expansion order; used to exercise persistence."""
    tree, automaton, cost = prepare(g, problem, s, t, td)
    v0 = initial_version(tree, automaton, cost)
    versions = [v0]
    first, second = best_pair(v0)
    if first is INF:
        return [], versions
    values = [first]
    frontier = [v0] if second is not INF else []
    steps = 0
    while frontier:
        steps += 1
        if steps > cap:
            raise RuntimeError("subproblem tree larger than cap")
        if order == "best":
            i = min(range(len(frontier)),
                    key=lambda j: best_pair(frontier[j])[1])
        elif order == "dfs":
            i = len(frontier) - 1
        elif order == "random":
            i = (rng or random).randrange(len(frontier))
        else:
            raise ValueError(f"unknown order {order!r}")
        v = frontier.pop(i)
        values.append(best_pair(v)[1])
        report = pivot_query(v)
        for force in (True, False):
            child = constrain(v, report, force)
            versions.append(child)
            if best_pair(child)[1] is not INF:
                frontier.append(child)
    return sorted(values), versions
