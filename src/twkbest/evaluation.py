"""Bottom-up evaluation of parse trees under top-k structures.

A value is a nondecreasing tuple of k extended weights (padded with ``INF``)
summarizing the k smallest solution values of a set.  ``combine`` is the
operator for combining two independent solution sets (values add), ``merge``
for the union of alternatives (k smallest overall).  The engine is k = 2,
as enumeration reads only each version's best two solutions;
``Evaluator.top_values`` folds any k, values only, for the cross-check.

``Evaluator.build`` produces an immutable tree of ``EvalNode`` objects: the
parse tree contracted to its live leaves (whose feature has the automaton's
kind) and the inner nodes with two live children, a full binary tree.  It
sweeps the parse tree twice: bottom-up for each node's realizable states,
then top-down over the contracted tree's nodes only, numbering their states
and composing the unary chains between them.  Each node holds per-state
values, canonical chosen decompositions per rank, and solution IDs
satisfying the discriminating property: two (state, rank) entries of one
node carry the same ID iff they denote the same solution.  A solution's ID
is its decomposition, unless some node lists one solution in two states
(vertex cover's promise bits do); then inner nodes intern ID pairs.
Values add exactly; ``kbest`` range-checks only the values it reports.
"""
from __future__ import annotations

from .core import FeatureId
from .algebra import ParseTree
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

    def sums(self, a: tuple, b: tuple) -> list:
        """The finite sums a[r1] + b[r2] with r1 + r2 < k: their k smallest
        are those of all sums, as any other sum has one no larger on each of
        the k diagonals r1 + r2 = 0 .. k - 1 of a monotone path to it."""
        k = self.k
        out = []
        for r, x in enumerate(a):
            if x is INF:                 # the tuples are sorted
                break
            for y in b[:k - r]:
                if y is INF:
                    break
                out.append(x + y)
        return out

    def combine(self, a: tuple, b: tuple) -> tuple:
        return self.lift(self.sums(a, b))


class EvalNode:
    """One evaluation-tree node's results; immutable after construction.

    eid indexes the Evaluator's tables; its states are those of the topmost
    parse node it stands for.  Lists per state id (None where a constraint
    emptied the state):
    table:  (rank-0 value, rank-1 value), INF where no such solution
    chosen: per-rank decomposition: a leaf's entry (its feature where
            the solution takes it, else None), or (i1, r1, i2, r2)
            naming child state ids and ranks
    ids:    per-rank solution ID (discriminating within the node); the
            same list as chosen at leaves, and at inner nodes unless the
            Evaluator's ``decomp_ids`` is False
    """

    __slots__ = ("eid", "children", "table", "ids", "chosen")

    # Never set; perfbench/tracing.py's copy_bytes still reads these names.
    id_map = pool = state_sols = None

    def __init__(self, eid, children, table, ids, chosen):
        self.eid = eid
        self.children = children
        self.table = table
        self.ids = ids
        self.chosen = chosen

    def is_leaf(self) -> bool:
        return not self.children


class Evaluator:
    """Builds EvalNode trees; shared by initial evaluation and path recopies.

    ``build`` fixes every per-node table once, in one bottom-up and one
    top-down pass over the parse tree: it numbers each evaluation node's
    relevant states 0..S-1 (the root state is 0) and stores, per state id,
    the ordered pairs of child state ids (inner nodes) or entries (leaves:
    the feature, or None without it) that are realizable without
    constraints.
    Constraints only shrink these tables, so a path recopy filters a leaf's
    entries, skips the pairs whose child state has gone, and never calls the
    automaton.  The automaton's states live only in that build, interned
    once each, with one pair table and realizable set per distinct
    subproblem; they never reach these tables.  ``top_values`` folds the
    same tables under any k, values only.
    """

    def __init__(self, automaton: EvalAutomaton):
        self.automaton = automaton
        # eid -> per state id: its (child 1 id, child 2 id) pairs (inner
        # nodes) or a tuple of its 1-2 entries sorted by value (leaves).
        # Only relevant states get an id: those reachable from the root state
        # via fitting chains.
        self.relevant: list[list] = []
        self.feature: list = []          # eid -> a leaf's feature, else None
        # feature -> weight, the graph's: an entry's value is
        # weights.get(entry, 0), 0 for None, which is no feature.
        self.weights: dict = {}
        # True if no node lists one solution in two entries: then distinct
        # decompositions denote distinct solutions (by induction from the
        # leaves, as sibling subtrees' feature sets are disjoint).
        self.decomp_ids = True

    def _compute_relevant(self, tree: ParseTree) -> list[bool]:
        """The only pass that calls the automaton and orders states; fills
        ``relevant`` and ``feature`` by eid, in preorder from the root, and
        ``decomp_ids``, and returns whether each evaluation node is a join.

        Bottom-up, each distinct state is interned once as an int with its
        ``state_key``; a node's table maps those ints to its fitting child
        states, flat: pairs a1, b1, a2, b2, ... under a two-child node (a,
        then b, in key order), a1, a2, ... under a one-child ``fuse`` or
        ``proj``.  Its realizable set is its ints in key order.  A
        (signature, children's realizable sets) memo hit shares both.  A
        leaf is live if its feature has the automaton's kind, and an inner
        node if it has a live child; only live nodes keep their tables.  A
        constant node denotes only the empty set: each realizable state of a
        constant leaf lists it once, and each of a constant inner node has
        one fitting tuple, of the node's arity.

        Leaves go by shape, (op, live): by ``EvalAutomaton.leaf_table``'s
        contract a leaf's table depends only on its op and feature and names
        no other feature, so one call per shape gives the table all its
        leaves share: per state, one flag per feature set, True for
        {feature}, sorted (the empty set first).

        Top-down, the walk visits chain tops: the root and the children of
        joins with two live sides.  The root state gets id 0.  From a top's
        states in id order, it follows the chain's one-live-side steps down
        to the live leaf or join at its bottom, expanding each top state into
        the sequence of live-side states its entries name.  The bottom's
        entries over that sequence are the top state's list: a leaf's
        entries, stably sorted by value, as a tuple, or a join's pairs
        renamed to the children's ids by first appearance, which
        numbers the children's states.  As repeats add no new states, first
        appearance in the sequence is first use at every node of the chain.
        A leaf's order depends on its weight only through the sign, so its
        lists are memoized as flags, which each leaf maps one to one to None
        or its feature: checks on flags are checks on entries.  A leaf
        introduces one feature, so a state has at most these two entries.
        A (chain tables, top states, sign) memo hit shares the lists and the
        children's states; each table is dropped once consumed.  Only on a
        miss does it try a second key, (bottom table, composed sequences,
        sign), of which the lists are a function: chains of different
        tables can compose to the same sequences."""
        automaton, kind = self.automaton, self.automaton.kind
        sid: dict = {}                   # state -> its int
        states: list = []                # int -> state
        keys: list = []                  # int -> state_key
        order = keys.__getitem__

        def intern(q) -> int:
            i = sid.get(q)
            if i is None:
                i = sid[q] = len(states)
                states.append(q)
                keys.append(state_key(q))
            return i

        pair_memo: dict = {}
        shapes: dict = {}                # (op, live) -> flags table, realizable
        realizable: dict[int, tuple] = {}  # nid -> ints, until its parent
        live: dict[int, dict] = {}       # live nid -> table, until consumed
        for pn in tree.nodes:            # children precede parents
            if pn.is_leaf():
                f = pn.feature
                is_live = f is not None and f.kind == kind
                shape = shapes.get((pn.op, is_live))
                if shape is None:
                    leaf = automaton.leaf_table(pn)
                    if is_live:
                        taken = frozenset((f,))
                        assert all(sols and all(fs == taken or not fs
                                                for fs in sols)
                                   for sols in leaf.values()), \
                            f"leaf {pn.nid}: a state lists no set, or a " \
                            f"feature not its own"
                    else:
                        assert all(s == [frozenset()] for s in leaf.values()), \
                            f"constant leaf {pn.nid} denotes a nonempty solution"
                    table = {intern(q): tuple(sorted(map(bool, sols)))
                             for q, sols in leaf.items()}
                    shape = shapes[pn.op, is_live] = \
                        table, tuple(sorted(table, key=order))
                table, realizable[pn.nid] = shape
                if is_live:
                    live[pn.nid] = table
                continue
            c1 = pn.children[0]
            c2 = pn.children[1] if len(pn.children) == 2 else None
            sig = automaton.signature(pn)
            if c2 is None:
                memo_key = (sig, realizable.pop(c1.nid))
            else:
                memo_key = (sig, realizable.pop(c1.nid), realizable.pop(c2.nid))
            if memo_key not in pair_memo:
                pairs: dict = {}
                if c2 is None:
                    for a in memo_key[1]:
                        q = automaton.delta(sig, states[a])
                        if q is not None:
                            pairs.setdefault(intern(q), []).append(a)
                else:
                    for a in memo_key[1]:
                        q1 = states[a]
                        for b in memo_key[2]:
                            q = automaton.delta(sig, q1, states[b])
                            if q is not None:
                                pairs.setdefault(intern(q), []).extend((a, b))
                table = {q: tuple(p) for q, p in pairs.items()}
                pair_memo[memo_key] = table, tuple(sorted(table, key=order))
            table, realizable[pn.nid] = pair_memo[memo_key]
            if c1.nid in live or c2 is not None and c2.nid in live:
                live[pn.nid] = table
            else:
                arity = len(pn.children)
                assert all(len(p) == arity for p in table.values()), \
                    f"constant node {pn.nid} denotes the empty set twice"
        root = sid.get(automaton.root_state())
        tops = [root] if root in realizable.pop(tree.root.nid) else []
        del pair_memo, shapes, sid, states, keys, order
        self.weights = weights = tree.graph.weights
        if tree.root.nid not in live:    # no live leaf: one featureless leaf
            self.feature = [None]
            self.relevant = [[(None,)] * len(tops)]
            return [False]

        joins: list[bool] = []
        feature: list = []
        relevant: list[list] = []
        # (chain tables' ids, top states, sign) -> lists, children's top
        # states; on a miss, (bottom table's id, composed sequences, sign)
        # -> the same.  Every table exists before the walk drops any, so the
        # id of a table still live never names a dropped one.
        memo: dict = {}
        stack = [(tree.root, tops)]
        while stack:
            pn, tops = stack.pop()
            steps = []                   # (table, live side, arity) per step
            while not pn.is_leaf():
                kids = pn.children
                if len(kids) == 2 and kids[0].nid in live \
                        and kids[1].nid in live:
                    break
                side = 0 if kids[0].nid in live else 1
                steps.append((live.pop(pn.nid), side, len(kids)))
                pn = kids[side]
            table = live.pop(pn.nid)
            f = pn.feature               # None at a join
            w = None if f is None else weights.get(f, 0)
            sign = None if f is None else (w > 0) - (w < 0)
            memo_key = (tuple((id(t), side) for t, side, _ in steps), id(table),
                        tuple(tops), sign)
            if memo_key not in memo:
                seqs = [[q] for q in tops]
                for t, side, arity in steps:
                    seqs = [[x for q in seq for x in t[q][side::arity]]
                            for seq in seqs]
                seq_key = (id(table), tuple(map(tuple, seqs)), sign)
                if seq_key not in memo:
                    ids1, ids2 = {}, {}
                    # A leaf: stably by value, so ties keep sequence order,
                    # and within a state the empty set first, as a state's
                    # flags are sorted.
                    if f is not None:
                        lists = [tuple(sorted(
                                     [x for q in seq for x in table[q]],
                                     key=sign.__mul__)) for seq in seqs]
                    else:
                        lists = [[(ids1.setdefault(a, len(ids1)),
                                   ids2.setdefault(b, len(ids2)))
                                  for q in seq
                                  for a, b in zip(table[q][::2],
                                                  table[q][1::2])]
                                 for seq in seqs]
                    # A repeat would be a duplicate solution: never dropped.
                    assert all(len(set(x)) == len(x) for x in lists), \
                        "duplicate composite entry"
                    if self.decomp_ids:  # until the first repeat
                        self.decomp_ids = (len(set().union(*lists))
                                           == sum(map(len, lists)))
                    memo[seq_key] = lists, list(ids1), list(ids2)
                memo[memo_key] = memo[seq_key]
            lists, tops1, tops2 = memo[memo_key]
            feature.append(f)
            joins.append(f is None)
            if f is None:
                relevant.append(lists)
                stack.append((pn.children[1], tops2))
                stack.append((pn.children[0], tops1))
            else:                        # flag False: without the feature
                forms = {(False,): (None,), (True,): (f,),
                         (False, True): (None, f), (True, False): (f, None)}
                relevant.append([forms[flags] for flags in lists])
        self.feature, self.relevant = feature, relevant
        return joins

    # -- node construction ----------------------------------------------

    def leaf_node(self, eid: int, want: bool | None) -> EvalNode:
        """Each state's ranks 0 and 1 are its entries, which are sorted by
        value: at build (want None) ``chosen`` and ``ids`` are
        ``relevant[eid]`` itself.  want: each state keeps only its entry
        with (True) or without (False) the leaf's feature, if it has one."""
        feat, rel = self.feature[eid], self.relevant[eid]
        if want is not None:
            keep = (feat,) if want else (None,)
            rel = [keep if keep[0] in entries else None for entries in rel]
        value = self.weights.get
        table = [None if e is None else
                 (value(e[0], 0), value(e[1], 0) if len(e) > 1 else INF)
                 for e in rel]
        return EvalNode(eid, (), table, rel, rel)

    def inner_node(self, eid: int, ch1: EvalNode, ch2: EvalNode,
                   prefer: tuple | None = None) -> EvalNode:
        """Each state's table is the ``TopKStructure(2)`` fold of ``merge``
        over its pairs of ``combine(t1[i1], t2[i2])``, its decompositions
        (i1, r1, i2, r2) ranked by (value, pair index, r1, r2).  prefer =
        (state id, (i1, r1, i2, r2)): force that decomposition to rank 0 of
        its state among value ties (survivor rule).

        Each state takes one pass over its pairs that keeps the best two
        entries in that order: within a pair (0, 0), then the smaller of
        (0, 1) and (1, 0), (0, 1) on a tie; a later pair only on a strictly
        smaller value.  A sum with INF is a float inf (a sum of 64-bit
        weights cannot overflow a float), never stored.  The preferred d of
        value vd then moves up past its ties: to rank 0 if vd is the best
        value, with the old best at rank 1 (or d again if d's pair repeats,
        as the fold lists a pair once per occurrence), else to rank 1 if vd
        is the second value."""
        tables1, tables2 = ch1.table, ch2.table
        rel = self.relevant[eid]
        n = len(rel)
        table, chosen = [None] * n, [None] * n
        ids, key_map = (chosen, None) if self.decomp_ids else ([None] * n, {})
        ids1, ids2 = ch1.ids, ch2.ids
        pq, pd = (-1, None) if prefer is None else prefer
        for q, plist in enumerate(rel):
            bv = sv = INF
            best = second = None
            for i1, i2 in plist:
                t1, t2 = tables1[i1], tables2[i2]
                if t1 is None or t2 is None:
                    continue
                a0, a1 = t1
                b0, b1 = t2
                v = a0 + b0
                if v >= sv:
                    continue
                if v < bv:               # the old best or the pair's second
                    w01, w10 = a0 + b1, a1 + b0
                    d, w = (((i1, 1, i2, 0), w10) if w10 < w01
                            else ((i1, 0, i2, 1), w01))
                    second, sv = (d, w) if w < bv else (best, bv)
                    best, bv = (i1, 0, i2, 0), v
                else:
                    second, sv = (i1, 0, i2, 0), v
            if best is None:
                continue
            if q == pq:
                i1, r1, i2, r2 = pd
                vd = tables1[i1][r1] + tables2[i2][r2]
                if vd == bv:
                    if plist.count((i1, i2)) > 1:
                        second, sv = pd, bv
                    elif best != pd:
                        second, sv = best, bv
                    best = pd
                elif vd == sv:
                    second = pd
            table[q] = (bv, sv)
            chosen[q] = (best,) if second is None else (best, second)
            if key_map is not None:     # a loop is cheaper than a genexpr
                row = []
                for i1, r1, i2, r2 in chosen[q]:
                    row.append(key_map.setdefault(
                        (ids1[i1][r1], ids2[i2][r2]), len(key_map)))
                ids[q] = tuple(row)
        return EvalNode(eid, (ch1, ch2), table, ids, chosen)

    def build(self, tree: ParseTree) -> EvalNode:
        joins = self._compute_relevant(tree)
        built: list[EvalNode] = []
        # Reversed preorder meets a join right after its children's
        # subtrees, child 1's last.
        for eid in reversed(range(len(joins))):
            if joins[eid]:
                ch1, ch2 = built.pop(), built.pop()
                built.append(self.inner_node(eid, ch1, ch2))
            else:
                built.append(self.leaf_node(eid, None))
        return built.pop()

    def top_values(self, tree: ParseTree, k: int) -> list:
        """The root state's k smallest values, folded bottom-up over the
        relevance tables under ``TopKStructure(k)``: ``lift`` at a leaf, and
        ``merge`` over the pairs' ``combine`` at a join, as one ``lift`` of
        their ``sums``.  Values only; a child's tables die with the fold."""
        joins = self._compute_relevant(tree)
        weights = self.weights
        st = TopKStructure(k)
        lift, pair_sums = st.lift, st.sums
        folded: list[list] = []
        for eid in reversed(range(len(joins))):   # as in ``build``
            rel = self.relevant[eid]
            if not joins[eid]:
                folded.append([lift([weights.get(e, 0) for e in entries])
                               for entries in rel])
                continue
            t1, t2 = folded.pop(), folded.pop()
            tables = []
            for plist in rel:
                sums = []
                for i1, i2 in plist:
                    sums += pair_sums(t1[i1], t2[i2])
                tables.append(lift(sums))
            folded.append(tables)
        root = folded.pop()
        return [v for v in root[0] if v is not INF] if root else []


def reconstruct(root: EvalNode, state: int, rank: int) -> frozenset[FeatureId]:
    """The feature set denoted by (state id, rank) at the root; its
    ``WeightedGraph.value`` equals the corresponding table entry."""
    vals = root.table[state] if 0 <= state < len(root.table) else None
    if vals is None or not 0 <= rank < len(vals) or vals[rank] is INF:
        raise ValueError(f"no solution at state {state!r} rank {rank}")
    acc: set = set()
    stack = [(root, state, rank)]
    while stack:
        node, q, r = stack.pop()
        d = node.chosen[q][r]
        if node.is_leaf():
            acc.add(d)
        else:
            q1, r1, q2, r2 = d
            stack.append((node.children[0], q1, r1))
            stack.append((node.children[1], q2, r2))
    acc.discard(None)                    # leaves whose feature it leaves out
    return frozenset(acc)
