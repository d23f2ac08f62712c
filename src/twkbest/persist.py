"""Persistent evaluation trees.

A ``Version`` is an immutable evaluation tree identified by its root node.
``constrain`` derives a new version by filtering one leaf's feature sets and
re-evaluating only the root-to-leaf path (path copying) over the per-node
tables ``Evaluator.build`` fixed, without calling the automaton; all other
nodes are shared, so earlier versions keep answering queries unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import CostModel, FeatureId, Solution
from .algebra import ParseTree
from .evaluation import INF, EvalNode, Evaluator, TopKStructure, reconstruct
from .problems import EvalAutomaton


class VersionError(ValueError):
    pass


@dataclass(frozen=True)
class Version:
    evaluator: Evaluator
    root: EvalNode
    constraints: dict          # FeatureId -> True (forced) / False (excluded)
    copied_nodes: int = 0      # nodes allocated to create this version

    @property
    def automaton(self) -> EvalAutomaton:
        return self.evaluator.automaton


@dataclass(frozen=True)
class PivotReport:
    feature: FeatureId
    # root-to-leaf trace: (node, best entry (q, r), second entry (q, r))
    path: tuple
    best_contains: bool        # pivot lies in the best (rank-0) solution

    @property
    def leaf(self) -> EvalNode:
        return self.path[-1][0]


def initial_version(tree: ParseTree, automaton: EvalAutomaton,
                    cost: CostModel, k: int = 2) -> Version:
    ev = Evaluator(automaton, cost, TopKStructure(k))
    before = ev.nodes_built
    root = ev.build(tree)
    return Version(ev, root, {}, ev.nodes_built - before)


def best_pair(v: Version) -> tuple:
    vals = v.root.table.get(v.automaton.root_state())
    if vals is None:
        return (INF, INF)
    return (vals[0], vals[1])


def solution_at(v: Version, rank: int) -> Solution:
    return reconstruct(v.root, v.automaton.root_state(), rank)


def pivot_query(v: Version) -> PivotReport:
    """Find a feature on which the version's best and second-best solutions
    differ, visiting a single root-to-leaf path."""
    first, second = best_pair(v)
    if second is INF:
        raise VersionError("version is uniquely solvable or infeasible")
    node = v.root
    a = (v.automaton.root_state(), 0)
    b = (v.automaton.root_state(), 1)
    path = []
    while not node.is_leaf():
        path.append((node, a, b))
        da = node.chosen[a[0]][a[1]]
        db = node.chosen[b[0]][b[1]]
        ch1, ch2 = node.children
        if ch1.ids[da[0]][da[1]] != ch1.ids[db[0]][db[1]]:
            node, a, b = ch1, (da[0], da[1]), (db[0], db[1])
        else:
            assert ch2.ids[da[2]][da[3]] != ch2.ids[db[2]][db[3]]
            node, a, b = ch2, (da[2], da[3]), (db[2], db[3])
    path.append((node, a, b))
    fs_a = node.chosen[a[0]][a[1]]
    fs_b = node.chosen[b[0]][b[1]]
    diff = fs_a ^ fs_b
    assert diff, "leaf candidates identical: ID discrimination violated"
    feature = min(diff, key=lambda f: f.sort_key)
    return PivotReport(feature, tuple(path), feature in fs_a)


def constrain(v: Version, report: PivotReport, force: bool) -> Version:
    """New version with the pivot feature forced into / excluded from all
    solutions.  Copies exactly the nodes on the report's path; the surviving
    solution (the one of v's best/second consistent with the constraint) is
    re-ranked first so it is the new version's best.  At the leaf the
    survivor is named by its feature set, which is also its solution ID."""
    if not report.path or report.path[0][0] is not v.root:
        raise VersionError("report does not belong to this version")
    if report.feature in v.constraints:
        raise VersionError("feature already constrained")
    survivor_is_best = report.best_contains == force
    pick = 1 if survivor_is_best else 2

    constraints = dict(v.constraints)
    constraints[report.feature] = force
    ev = v.evaluator
    before = ev.nodes_built

    leaf_entry = report.path[-1]
    leaf, (q, r) = leaf_entry[0], leaf_entry[pick]
    fs = leaf.chosen[q][r]
    fresh = ev.leaf_node(leaf.pnode, constraints, prefer=(q, fs))
    assert fresh.chosen[q][0] == fs, "survivor lost its state optimum"

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
        fresh = ev.inner_node(node.pnode, new1, new2, prefer=(q, d))
        assert fresh.chosen[q][0] == d, "survivor lost its state optimum"

    copied = ev.nodes_built - before
    assert copied == len(report.path)
    child = Version(ev, fresh, constraints, copied)
    root_q = v.automaton.root_state()
    survivor_value = v.root.table[root_q][0 if survivor_is_best else 1]
    assert child.root.table[root_q][0] == survivor_value
    return child
