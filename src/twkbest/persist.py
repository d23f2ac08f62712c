"""Persistent evaluation trees.

A ``Version`` is an immutable evaluation tree identified by its root node.
``constrain`` derives a new version by forcing or excluding the pivot
feature at its own leaf, the only one whose entries name it, and
re-evaluating only the root-to-leaf path (path copying) over the per-node
tables ``Evaluator.build`` fixed, without calling the automaton; all other
nodes are shared, so earlier versions keep answering queries unchanged.
A feature is constrained once: every solution of the new version agrees on
it, so no version derived from that one pivots on it again.
The evaluation tree is the contracted parse tree, so a path holds only the
pivot's leaf and joins with two live sides, never a unary step over a
constant subtree.  States are named by their per-node ids; the root state
is id 0.
One walk over the nodes where a version's best two solutions carry
different IDs gives the pivot's path (its first root-to-leaf branch) and
the second-best solution, as a difference from the best (all of it).  A
leaf's entry is its feature where the solution takes it and None where it
does not, so the two entries of a leaf on that walk are its feature and
None: the pivot is that feature, and a solution adds or drops it.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import FeatureId
from .algebra import ParseTree
from .evaluation import INF, EvalNode, Evaluator, reconstruct
from .problems import EvalAutomaton


class VersionError(ValueError):
    pass


class Version(NamedTuple):
    """An evaluation tree named by its root.  It keeps no constraint list:
    each constraint lives in the filtered table of its feature's leaf."""

    evaluator: Evaluator
    root: EvalNode
    copied_nodes: int = 0      # nodes allocated to create this version


class PivotReport(NamedTuple):
    feature: FeatureId
    # root-to-leaf trace: (node, best entry (state id, rank), second entry)
    path: tuple
    best_contains: bool        # pivot lies in the best (rank-0) solution


def initial_version(tree: ParseTree, automaton: EvalAutomaton) -> Version:
    ev = Evaluator(automaton)
    return Version(ev, ev.build(tree), len(ev.relevant))


def best_pair(v: Version) -> tuple:
    table = v.root.table
    return table[0] if table and table[0] is not None else (INF, INF)


def _differing(v: Version):
    """(node, rank-0 state id, rank, rank-1 state id, rank) at each node
    where the root's rank-0 and rank-1 solutions differ, in preorder, child
    1 first.  It enters a child only where the two entries' IDs differ
    (equal IDs denote one subsolution), and one child of each inner node it
    enters differs, so the nodes before its first leaf are a root-to-leaf
    path."""
    stack = [(v.root, 0, 0, 0, 1)]
    while stack:
        item = stack.pop()
        yield item
        node, qa, ra, qb, rb = item
        if not node.children:
            continue
        da, db = node.chosen[qa][ra], node.chosen[qb][rb]
        ch1, ch2 = node.children
        differ1 = ch1.ids[da[0]][da[1]] != ch1.ids[db[0]][db[1]]
        if ch2.ids[da[2]][da[3]] != ch2.ids[db[2]][db[3]]:
            stack.append((ch2, da[2], da[3], db[2], db[3]))
        else:
            assert differ1, "two entries of one node denote one solution"
        if differ1:
            stack.append((ch1, da[0], da[1], db[0], db[1]))


def solution_at(v: Version, rank: int,
                best: frozenset[FeatureId] | None = None
                ) -> frozenset[FeatureId]:
    """The root state's solution of that rank.  Given ``best``, the rank-0
    solution, rank 1 is found by difference: along the walk of
    ``_differing``, each leaf's rank-0 entry is swapped for its rank-1
    one.  Without ``best`` the whole tree is read."""
    if best is None:
        return reconstruct(v.root, 0, rank)
    assert rank == 1 and best_pair(v)[1] is not INF
    dropped: set = set()
    added: set = set()
    for node, qa, ra, qb, rb in _differing(v):
        if not node.children:
            dropped.add(node.chosen[qa][ra])
            added.add(node.chosen[qb][rb])
    added.discard(None)
    return best - dropped | added


def pivot_query(v: Version) -> PivotReport:
    """Find a feature on which the version's best and second-best solutions
    differ: the walk of ``_differing`` up to its first leaf, a single
    root-to-leaf path."""
    if best_pair(v)[1] is INF:
        raise VersionError("version is uniquely solvable or infeasible")
    path = []
    for node, qa, ra, qb, rb in _differing(v):
        path.append((node, (qa, ra), (qb, rb)))
        if not node.children:
            break
    fa, fb = node.chosen[qa][ra], node.chosen[qb][rb]
    assert (fa is None) != (fb is None), \
        "leaf candidates identical: ID discrimination violated"
    return PivotReport(fb if fa is None else fa, tuple(path), fa is not None)


def constrain(v: Version, report: PivotReport, force: bool) -> Version:
    """New version with the pivot feature forced into / excluded from all
    solutions: the path's leaf introduces that feature, and only its entries
    are filtered.  Copies exactly the nodes on the report's path; the
    surviving solution (the one of v's best/second consistent with the
    constraint) is re-ranked first so it is the new version's best.  At the
    leaf each state keeps one entry, so the survivor's is its state's
    best."""
    if not report.path or report.path[0][0] is not v.root:
        raise VersionError("report does not belong to this version")
    survivor_is_best = report.best_contains == force
    pick = 1 if survivor_is_best else 2
    ev = v.evaluator

    leaf_entry = report.path[-1]
    leaf, (q, r) = leaf_entry[0], leaf_entry[pick]
    assert ev.feature[leaf.eid] == report.feature
    fresh = ev.leaf_node(leaf.eid, force)
    assert fresh.chosen[q][0] == leaf.chosen[q][r], \
        "survivor lost its state optimum"

    for i in range(len(report.path) - 2, -1, -1):
        entry = report.path[i]
        node, (q, r) = entry[0], entry[pick]
        on_path = report.path[i + 1][0]
        q1, r1, q2, r2 = node.chosen[q][r]
        ch1, ch2 = node.children
        if ch1 is on_path:
            new1, new2 = fresh, ch2
            d = (q1, 0, q2, r2)
        else:
            new1, new2 = ch1, fresh
            d = (q1, r1, q2, 0)
        fresh = ev.inner_node(node.eid, new1, new2, prefer=(q, d))
        assert fresh.chosen[q][0] == d, "survivor lost its state optimum"

    child = Version(ev, fresh, len(report.path))
    survivor_value = v.root.table[0][0 if survivor_is_best else 1]
    assert child.root.table[0][0] == survivor_value
    return child
