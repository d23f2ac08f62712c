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
sweeps the parse tree twice: bottom-up, one bag at a time, for each node's
realizable states, then top-down over the contracted tree's nodes only,
numbering their states and composing the unary chains between them.  Each
node holds per-state values, canonical chosen decompositions per rank, and
solution IDs satisfying the discriminating property: two (state, rank)
entries of one node carry the same ID iff they denote the same solution.  A
solution's ID is its decomposition, unless some node lists one solution in
two states (vertex cover's promise bits do); then inner nodes intern ID
pairs.  Values add exactly; ``kbest`` range-checks only the values it
reports.
"""
from __future__ import annotations

from .core import EDGE, FeatureId
from .algebra import ParseTree
from .problems import EvalAutomaton, state_key

INF = float("inf")
# A leaf state's bits, one per entry, True where the entry is the feature
# and False where it is None: a state lists at most these two entries.
FORMS = ((False,), (True,), (False, True), (True, False))
WITHOUT = (None,)                        # the entries of bits (False,)


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

        Bottom-up, it takes the tree's bags in postorder, one memo lookup
        each, keyed by the bag's gadget, the automaton's ``flags`` on its
        vertices (all a proj signature reads of a vertex) and its children's
        fragment summaries (realizable set, live).  Only on a miss does it
        take the gadget's nodes one by one, reading each node's op, its
        first child's sources and, at a leaf, its feature's kind.
        Each distinct state is interned once as an int with its
        ``state_key``; a node's table maps those ints to its fitting child
        states, flat: pairs a1, b1, a2, b2, ... under a two-child node (a,
        then b, in key order), a1, a2, ... under a one-child ``fuse`` or
        ``proj``.  Its realizable set is its ints in key order.  A
        (signature, children's realizable sets) memo hit shares both.  A
        leaf is live if its feature has the automaton's kind, and an inner
        node if it has a live child; only live nodes keep their tables.  A
        constant node denotes only the empty set: each realizable state of a
        constant leaf lists it once, and each of a constant inner node has
        one fitting tuple, of the node's arity.  A bag's entry holds its
        fragment's summary and its live nodes' tables, shared by every bag
        with its key.

        Leaves go by shape, (op, live): ``EvalAutomaton.leaf_table`` reads
        only the op, so one call per shape gives the table all its leaves
        share, and the table cannot name a feature, as it never sees one:
        per state, its membership bits, False first, True where the leaf
        takes its feature.

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
        lists are memoized as bits, which each leaf maps one to one to None
        or its feature: checks on bits are checks on entries.  A leaf
        introduces one feature, so a state has at most these two entries,
        and its bits are one of ``FORMS``, kept as their index there.
        A chain is walked a segment per bag, each segment made once per
        (bag entry, node).  A (segments, top states, sign) memo hit shares
        the lists and the children's states.  Only on a miss does it try a
        second key, (bottom table, composed sequences, sign), of which the
        lists are a function: chains of different tables can compose to the
        same sequences."""
        automaton = self.automaton
        live_rank = int(automaton.kind == EDGE)  # its kind's FeatureId rank
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
        shapes: dict = {}                # (op, live) -> bits table,
                                         # realizable
        summaries: list = []             # id -> (realizable ints, live)
        summary_id: dict = {}

        def entry_of(bag, kid_ids) -> tuple:
            """A bag's entry: its fragment's summary id, and per node its
            table (None unless live) and its live side (0 or 1) where it is
            a step of a chain, else -1; then its chain segments, made as
            the walk meets them."""
            gad = bag.gadget
            verts = bag.verts
            real, live, tables, sides = [], [], [], []
            for op, refs, feat in zip(gad.ops, gad.children, gad.features):
                side = -1
                if not refs:
                    is_live = feat[0] == live_rank
                    shape = shapes.get((op, is_live))
                    if shape is None:
                        leaf = automaton.leaf_table(op)
                        assert is_live or all(
                            bits == (False,) for bits in leaf.values()), \
                            f"constant leaf {op} denotes a nonempty solution"
                        table = {intern(q): bits for q, bits in leaf.items()}
                        shape = shapes[op, is_live] = \
                            table, tuple(sorted(table, key=order))
                    table, r = shape
                else:
                    kids = [(real[c], live[c]) if c >= 0
                            else summaries[kid_ids[-1 - c]] for c in refs]
                    c = refs[0]
                    sig = automaton.signature(op, tuple([
                        verts[x] for x in (gad.srcs[c] if c >= 0
                                           else gad.kid_srcs[-1 - c])]))
                    memo_key = (sig, *[k[0] for k in kids])
                    if memo_key not in pair_memo:
                        pairs: dict = {}
                        if len(kids) == 1:
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
                                        pairs.setdefault(intern(q),
                                                         []).extend((a, b))
                        table = {q: tuple(p) for q, p in pairs.items()}
                        pair_memo[memo_key] = \
                            table, tuple(sorted(table, key=order))
                    table, r = pair_memo[memo_key]
                    sides_live = [k[1] for k in kids]
                    is_live = True in sides_live
                    if not is_live:
                        arity = len(refs)
                        assert all(len(p) == arity for p in table.values()), \
                            f"constant node {op} denotes the empty " \
                            f"set twice"
                    elif sides_live.count(True) == 1:
                        side = sides_live.index(True)
                real.append(r)
                live.append(is_live)
                tables.append(table if is_live else None)
                sides.append(side)
            key = (real[-1], live[-1])
            s = summary_id.get(key)
            if s is None:
                s = summary_id[key] = len(summaries)
                summaries.append(key)
            return s, tables, sides, {}

        bags = tree.bags
        flags = automaton.flags
        memo: dict = {}                  # bag key -> its entry
        entries: list = []               # bag position -> its entry
        fragment: list[int] = []         # bag position -> its summary id
        for bag in bags:                 # children precede parents
            kid_ids = tuple([fragment[k] for k in bag.kids])
            key = (id(bag.gadget),
                   tuple(map(flags.get, bag.verts)) if flags else None,
                   kid_ids)
            entry = memo.get(key)
            if entry is None:
                entry = memo[key] = entry_of(bag, kid_ids)
            fragment.append(entry[0])
            entries.append(entry)
        realizable, root_live = summaries[fragment[-1]]
        root = sid.get(automaton.root_state())
        tops = [root] if root in realizable else []
        del pair_memo, shapes, sid, states, keys, order, memo, fragment
        self.weights = weights = tree.graph.weights
        if not root_live:                # no live leaf: one featureless leaf
            self.feature = [None]
            self.relevant = [[(None,)] * len(tops)]
            return [False]

        def segment_at(p: int, i: int) -> tuple:
            """The chain from node i of bag p down to that bag's end, made
            once per (entry, node): its steps (table, live side, arity),
            then its bottom node, or None and the child slot it goes on
            into."""
            entry = entries[p]
            seg = entry[3].get(i)
            if seg is None:
                refs_of, tables, sides = bags[p].gadget.children, entry[1], \
                    entry[2]
                steps, j, slot = [], i, None
                while sides[j] >= 0:
                    refs = refs_of[j]
                    steps.append((tables[j], sides[j], len(refs)))
                    j = refs[sides[j]]
                    if j < 0:
                        j, slot = None, -1 - j
                        break
                seg = entry[3][i] = tuple(steps), j, slot
            return seg

        joins: list[bool] = []
        feature: list = []
        relevant: list[list] = []
        # (segments, top states, sign) -> lists, children's top states,
        # the segments by their ids, one id alone where the chain ends in
        # its top's bag, the common case; on a miss, (bottom table's id,
        # composed sequences, sign) -> the same.  Segments and tables live
        # until the walk ends.
        memo = {}
        stack = [(len(bags) - 1, len(bags[-1].gadget.ops) - 1, tuple(tops))]
        while stack:
            p, i, tops = stack.pop()
            entry = entries[p]
            seg = entry[3].get(i) or segment_at(p, i)
            chain = id(seg)
            if seg[1] is None:           # the chain goes on into a child's bag
                segs = [seg]
                while seg[1] is None:
                    p = bags[p].kids[seg[2]]
                    entry = entries[p]
                    seg = segment_at(p, len(bags[p].gadget.ops) - 1)
                    segs.append(seg)
                chain = tuple(map(id, segs))
            bag, j = bags[p], seg[1]
            table = entry[1][j]
            f = bag.feature(j)           # None at a join
            if f is None:
                sign = None
            else:
                w = weights.get(f, 0)
                sign = (w > 0) - (w < 0)
            memo_key = (chain, tops, sign)
            hit = memo.get(memo_key)
            if hit is None:
                seqs = [[q] for q in tops]
                for s in segs if type(chain) is tuple else (seg,):
                    for t, side, arity in s[0]:
                        seqs = [[x for q in seq for x in t[q][side::arity]]
                                for seq in seqs]
                seq_key = (id(table), tuple(map(tuple, seqs)), sign)
                hit = memo.get(seq_key)
                if hit is None:
                    ids1, ids2 = {}, {}
                    # A leaf: stably by value, so ties keep sequence order,
                    # and within a state the empty set first, as a state's
                    # bits are sorted.
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
                    if f is not None:    # each state's bits as a FORMS index
                        lists = [FORMS.index(bits) for bits in lists]
                    hit = memo[seq_key] = lists, tuple(ids1), tuple(ids2)
                memo[memo_key] = hit
            lists, tops1, tops2 = hit
            feature.append(f)
            joins.append(f is None)
            if f is None:
                relevant.append(lists)
                c1, c2 = bag.gadget.children[j]
                for c, kid_tops in ((c2, tops2), (c1, tops1)):
                    if c >= 0:
                        stack.append((p, c, kid_tops))
                    else:
                        k = bag.kids[-1 - c]
                        stack.append((k, len(bags[k].gadget.ops) - 1,
                                      kid_tops))
            else:                        # as FORMS, with f for True
                relevant.append(list(map(
                    (WITHOUT, (f,), (None, f), (f, None)).__getitem__, lists)))
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
