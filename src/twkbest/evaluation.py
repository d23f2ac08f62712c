"""Bottom-up evaluation of parse trees under top-k structures.

A value is a nondecreasing tuple of k extended weights (padded with ``INF``)
summarizing the k smallest solution values of a set.  ``combine`` is the
operator for combining two independent solution sets (values add), ``merge``
for the union of alternatives (k smallest overall).

``Evaluator.build`` produces an immutable tree of ``EvalNode`` objects
mirroring the parse tree, with per-state values, canonical chosen
decompositions per rank, and solution IDs satisfying the discriminating
property: two (state, rank) entries of one node carry the same ID iff they
denote the same solution.  Values add exactly; ``kbest`` range-checks only
the values it reports.
"""
from __future__ import annotations

import functools

from .core import CostModel, Solution, make_solution, solution_value
from .algebra import ParseNode, ParseTree
from .problems import EvalAutomaton, state_key

INF = float("inf")


class TopKStructure:
    """Evaluation structure over sorted k-tuples of extended weights."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.merge_identity = (INF,) * k
        self.combine_identity = (0,) + (INF,) * (k - 1)

    def lift(self, values) -> tuple:
        vs = sorted(values)[: self.k]
        return tuple(vs) + (INF,) * (self.k - len(vs))

    def merge(self, a: tuple, b: tuple) -> tuple:
        return tuple(sorted(a + b)[: self.k])

    def combine(self, a: tuple, b: tuple) -> tuple:
        sums = [x + y for x in a for y in b if x is not INF and y is not INF]
        return self.lift(sums)


def merge_k(a: tuple, b: tuple, k: int) -> tuple:
    return TopKStructure(k).merge(a, b)


def combine_k(a: tuple, b: tuple, k: int) -> tuple:
    return TopKStructure(k).combine(a, b)


def merge2(a: tuple, b: tuple) -> tuple:
    return merge_k(a, b, 2)


def combine2(a: tuple, b: tuple) -> tuple:
    return combine_k(a, b, 2)


class EvalNode:
    """One parse node's evaluation results; immutable after construction.

    table:  state -> k-tuple of values
    chosen: state -> per-rank decomposition: a leaf pool index, or
            (q1, r1, q2, r2) naming child states and ranks
    ids:    state -> per-rank solution ID (discriminating within the node);
            at leaves the same dict as chosen, since IDs are pool indices
    pool:   (leaves) all unfiltered solutions as (value, feature set),
            sorted by (value, encoding)
    state_sols: (leaves) state -> current (filtered, ordered) pool indices
    """

    __slots__ = ("pnode", "children", "table", "ids", "chosen",
                 "pool", "state_sols")

    # Never set; perfbench/tracing.py's copy_bytes still reads this name.
    id_map = None

    def __init__(self, pnode, children, table, ids, chosen,
                 pool=None, state_sols=None):
        self.pnode = pnode
        self.children = children
        self.table = table
        self.ids = ids
        self.chosen = chosen
        self.pool = pool
        self.state_sols = state_sols

    def is_leaf(self) -> bool:
        return not self.children


class Evaluator:
    """Builds EvalNode trees; shared by initial evaluation and path recopies.

    ``build`` fixes, once per parse node, the table every later evaluation
    of that node walks: at an inner node, each relevant output state with
    its ordered fitting (q1, q2) pairs over the child states realizable
    without constraints; at a leaf, its relevant states.  Constraints only
    shrink child tables, so a path recopy just skips the pairs whose child
    state has gone and never calls the automaton.
    """

    def __init__(self, automaton: EvalAutomaton, cost: CostModel,
                 structure: TopKStructure):
        self.automaton = automaton
        self.cost = cost
        self.structure = structure
        self.nodes_built = 0
        # nid -> {relevant state: its fitting pairs (empty at leaves)}, where
        # relevant means reachable from the root state via fitting chains.
        self.relevant: dict[int, dict] = {}

    def _compute_relevant(self, tree: ParseTree) -> None:
        """The only pass that calls ``delta`` and orders states.  Its memos
        are locals: regular graphs hit the same few (signature, realizable
        child sets) keys at every level, and they are freed once it ends."""
        automaton = self.automaton
        delta = functools.cache(automaton.delta)
        key = functools.cache(state_key)
        pair_memo: dict = {}
        realizable: dict[int, frozenset] = {}
        pairs_of: dict[int, dict] = {}
        for pn in tree.nodes:            # children precede parents
            if pn.is_leaf():
                realizable[pn.nid] = frozenset(automaton.leaf_table(pn))
                continue
            sig = automaton.signature(pn)
            states1 = realizable[pn.children[0].nid]
            states2 = realizable[pn.children[1].nid]
            pairs = pair_memo.get((sig, states1, states2))
            if pairs is None:
                pairs = pair_memo[sig, states1, states2] = {}
                ordered2 = sorted(states2, key=key)
                for q1 in sorted(states1, key=key):
                    for q2 in ordered2:
                        q = delta(sig, q1, q2)
                        if q is not None:
                            pairs.setdefault(q, []).append((q1, q2))
            pairs_of[pn.nid] = pairs
            realizable[pn.nid] = frozenset(pairs)
        rel: dict[int, dict] = {pn.nid: {} for pn in tree.nodes}
        if automaton.root_state() in realizable[tree.root.nid]:
            rel[tree.root.nid][automaton.root_state()] = ()
        for pn in reversed(tree.nodes):  # parents precede children
            if pn.is_leaf():
                continue
            pairs = pairs_of[pn.nid]
            table = rel[pn.nid]
            down1 = rel[pn.children[0].nid]
            down2 = rel[pn.children[1].nid]
            for q in table:
                plist = table[q] = pairs[q]
                for q1, q2 in plist:
                    down1[q1] = down2[q2] = ()
        self.relevant = rel

    # -- node construction ----------------------------------------------

    def leaf_node(self, pnode: ParseNode, constraints: dict,
                  prefer: tuple | None = None) -> EvalNode:
        """prefer = (state, pool_index): force that solution to rank 0 of
        its state among value ties (survivor rule)."""
        raw = self.automaton.leaf_table(pnode)
        by_fset: dict = {}
        for sols in raw.values():
            for fs in sols:
                if fs not in by_fset:
                    sol = make_solution(fs)
                    by_fset[fs] = (solution_value(sol, self.cost), sol.encoding())
        order = sorted(by_fset, key=lambda fs: by_fset[fs])
        pool = [(by_fset[fs][0], fs) for fs in order]
        index_of = {fs: i for i, fs in enumerate(order)}

        feat = pnode.feature
        want = constraints.get(feat) if feat is not None else None
        allowed = self.relevant[pnode.nid]
        k = self.structure.k
        table, chosen, state_sols = {}, {}, {}
        for q, sols in raw.items():
            if q not in allowed:
                continue
            kept = [fs for fs in sols
                    if want is None or (feat in fs) == want]
            if not kept:
                continue

            def rank_key(fs, q=q):
                val, enc = by_fset[fs]
                pref = 0 if prefer == (q, index_of[fs]) else 1
                return (val, pref, enc)

            kept.sort(key=rank_key)
            idx = [index_of[fs] for fs in kept]
            state_sols[q] = idx
            table[q] = self.structure.lift(by_fset[fs][0] for fs in kept)
            chosen[q] = tuple(idx[:k])
        self.nodes_built += 1
        return EvalNode(pnode, (), table, chosen, chosen, pool, state_sols)

    def inner_node(self, pnode: ParseNode, ch1: EvalNode, ch2: EvalNode,
                   prefer: tuple | None = None) -> EvalNode:
        """prefer = (state, (q1, r1, q2, r2)): force that decomposition to
        rank 0 of its state among value ties (survivor rule)."""
        tables1, tables2 = ch1.table, ch2.table
        k = self.structure.k
        table, chosen = {}, {}
        for q, plist in self.relevant[pnode.nid].items():
            cands = []
            for pidx, (q1, q2) in enumerate(plist):
                t1, t2 = tables1.get(q1), tables2.get(q2)
                if t1 is None or t2 is None:
                    continue
                for r1, v1 in enumerate(t1):
                    if v1 is INF:
                        break
                    for r2, v2 in enumerate(t2):
                        # (r1, r2) with r1 + r2 >= k is dominated by k earlier-
                        # sorting combinations, so it can never reach the top k.
                        if v2 is INF or r1 + r2 >= k:
                            break
                        d = (q1, r1, q2, r2)
                        pref = 0 if prefer == (q, d) else 1
                        cands.append((v1 + v2, pref, pidx, r1, r2, d))
            if not cands:
                continue
            cands.sort(key=lambda c: c[:5])
            top = cands[:k]
            table[q] = tuple(c[0] for c in top) + (INF,) * (k - len(top))
            chosen[q] = tuple(c[5] for c in top)

        key_map: dict = {}
        ids = {}
        for q, ds in chosen.items():
            qids = []
            for (q1, r1, q2, r2) in ds:
                key = (ch1.ids[q1][r1], ch2.ids[q2][r2])
                if key not in key_map:
                    key_map[key] = len(key_map)
                qids.append(key_map[key])
            ids[q] = tuple(qids)
        self.nodes_built += 1
        return EvalNode(pnode, (ch1, ch2), table, ids, chosen)

    def build(self, tree: ParseTree, constraints: dict | None = None) -> EvalNode:
        constraints = constraints or {}
        self._compute_relevant(tree)
        built: list[EvalNode | None] = [None] * len(tree.nodes)
        for pnode in tree.nodes:         # children precede parents
            if pnode.is_leaf():
                built[pnode.nid] = self.leaf_node(pnode, constraints)
            else:
                c1, c2 = pnode.children
                built[pnode.nid] = self.inner_node(
                    pnode, built[c1.nid], built[c2.nid])
        return built[tree.root.nid]


def root_values(root: EvalNode, automaton: EvalAutomaton) -> tuple:
    q = automaton.root_state()
    if q not in root.table:
        return ()
    return tuple(v for v in root.table[q] if v is not INF)


def reconstruct(root: EvalNode, state, rank: int) -> Solution:
    """The solution denoted by (state, rank) at the root; value equals the
    corresponding table entry."""
    if state not in root.table or rank >= len(root.table[state]) \
            or root.table[state][rank] is INF:
        raise ValueError(f"no solution at state {state!r} rank {rank}")
    acc: set = set()
    stack = [(root, state, rank)]
    while stack:
        node, q, r = stack.pop()
        d = node.chosen[q][r]
        if node.is_leaf():
            acc |= node.pool[d][1]
        else:
            q1, r1, q2, r2 = d
            stack.append((node.children[0], q1, r1))
            stack.append((node.children[1], q2, r2))
    return make_solution(frozenset(acc))
