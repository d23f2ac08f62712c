"""Evaluation automata for the built-in optimization problems.

An automaton assigns to every parse node a finite set of states.  A state
summarizes everything about a partial solution (over the features introduced
in the node's subtree) that the rest of the graph can observe through the
node's sources.  As in the paper's parse tree, a leaf holds one element, and
the set variable either holds it or not: ``leaf_table`` lists, per state,
those membership bits.  Inner nodes combine child states through ``delta``,
under a ``signature`` read from the node's op and its first child's
sources.  The automata never see a parse node, and no table names a
feature.  The evaluation module calls ``delta`` only at build, once per
candidate of each distinct subproblem, and ``leaf_table`` once per leaf op.

State spaces:

* simple path: ``(slots, complete)``; slot per source is ``0`` (degree 0),
  ``2`` (path interior), ``(label, j)`` (open end of a segment whose other
  end is at source j), or ``(HALF[label],)`` (open end of a segment whose
  other end is an already-finalized terminal).  The label is ``'p'`` in an
  undirected graph; in a directed one ``'s'``/``'t'`` marks where a
  segment starts/ends.  Two open ends fuse only if their ``DIR``s sum to 0,
  and then each partner keeps its label and takes the other as its pair.
* spanning tree: partition of the sources into connected blocks, or the
  order-0 sentinel ``'D'`` (finished tree).
* perfect matching: per-source matched bit; a source may only be projected
  out once matched.
* vertex cover: per-source membership-promise bit; copies of a vertex must
  agree, and a vertex's one vertex leaf (its introducer) contributes it.
"""
from __future__ import annotations

import functools

from .core import EDGE, VERTEX, WeightedGraph

BUILTIN_PROBLEMS = ("simple-path", "spanning-tree", "perfect-matching", "vertex-cover")

DONE = "D"


def state_key(q) -> str:
    """Deterministic total order on states (used for canonical tie-breaking)."""
    return repr(q)


class EvalAutomaton:
    """Interface shared by the built-in automata; one set variable each."""

    kind: str            # VERTEX or EDGE: the type of the set variable
    # vertex -> its flag in a proj signature, for the vertices whose flag is
    # not "-"; a node's signature reads no other property of a vertex
    flags: dict = {}

    def root_state(self):
        raise NotImplementedError

    def signature(self, op: tuple, child_srcs: tuple):
        """Hashable operator signature carrying everything delta needs, for
        an inner node's op whose first child has the sources child_srcs
        (global vertex ids): the op itself, and for ``proj`` each dropped
        position with its vertex's flag as well."""
        if op[0] == "proj":
            alpha = op[1]
            kept = set(alpha)
            dropped = tuple(
                (p, self.flags.get(v, "-"))
                for p, v in enumerate(child_srcs) if p not in kept
            )
            return ("proj", alpha, dropped)
        if op[0] in ("join", "fuse", "attach"):
            return op
        raise ValueError(f"not an inner operator: {op}")

    def delta(self, sig, q1, q2=None):
        """Output state for the child states: q1 alone under the one-child
        ``fuse`` and ``proj``, (q1, q2) under ``join`` and ``attach``; None
        if they do not fit."""
        raise NotImplementedError

    def leaf_table(self, op: tuple) -> dict:
        """state -> the leaf's membership bits in that state, for a leaf
        with this op: a nonempty tuple of distinct bools, False first,
        where True means the set variable holds the leaf's element.  A
        leaf whose element is not of the automaton's ``kind`` lists only
        (False,) in each state."""
        raise NotImplementedError


# An open end's label -> the label of the same end once its partner is a
# finalized terminal.
HALF = {"p": "h", "s": "hs", "t": "ht"}
# An open end's orientation: +1 starts a segment, -1 ends one, 0 either.
DIR = {"p": 0, "h": 0, "s": 1, "hs": 1, "t": -1, "ht": -1}


def _renumber(slots, new) -> list:
    """Slots with each pair reference j replaced by new[j]."""
    out = []
    for x in slots:
        if type(x) is tuple and len(x) == 2:
            x = (x[0], new[x[1]])
        out.append(x)
    return out


@functools.cache
def _deleted(j: int, r: int) -> tuple:
    """The renumbering of r + 1 positions once position j is deleted."""
    return (*range(j), -1, *range(j, r))


class SimplePathAutomaton(EvalAutomaton):
    kind = EDGE

    def __init__(self, s: int, t: int, directed: bool):
        self.flags = {s: "S", t: "T"}
        # the pair label of each terminal's end; it also labels an edge leaf
        self.end = {"S": "s", "T": "t"} if directed else {"S": "p", "T": "p"}

    def root_state(self):
        return ((), 1)

    @staticmethod
    def _open(x):
        return x not in (0, 2)

    def _prune(self, slots, c):
        if c and any(self._open(x) for x in slots):
            return None
        return (tuple(slots), c)

    def delta(self, sig, q1, q2=None):
        op = sig[0]
        s1, c1 = q1
        if op == "join":
            s2, c2 = q2
            if c1 and c2:
                return None
            off = len(s1)
            shifted = _renumber(s2, range(off, off + len(s2)))
            return self._prune(list(s1) + shifted, c1 | c2)
        if op == "attach":
            return q1
        if op == "fuse":
            return self._fuse(list(s1), c1, sig[1], sig[2])
        if op == "proj":
            return self._proj(sig, list(s1), c1)
        return None

    def _fuse(self, slots, c, i, j):
        x, y = slots[i], slots[j]
        if x == 0 or y == 0:
            m = y if x == 0 else x
            # the surviving open end's partner must point at position i
            if type(m) is tuple and len(m) == 2:
                k = m[1]
                slots[k] = (slots[k][0], i)
        elif x == 2 or y == 2 or DIR[x[0]] + DIR[y[0]]:
            return None
        else:
            m = 2
            if len(x) == 2 and len(y) == 2:
                if x[1] == j:
                    return None  # two ends of one segment: cycle
                a, b = x[1], y[1]
                slots[a] = (slots[a][0], b)
                slots[b] = (slots[b][0], a)
            elif len(x) == 2 or len(y) == 2:
                k = x[1] if len(x) == 2 else y[1]
                slots[k] = (HALF[slots[k][0]],)
            else:                         # two half ends: the path closes
                if c:
                    return None
                c = 1
        slots[i] = m
        del slots[j]
        return self._prune(_renumber(slots, _deleted(j, len(slots))), c)

    def _proj(self, sig, slots, c):
        alpha, dropped = sig[1], sig[2]
        drop_flags = dict(dropped)
        consumed: set[int] = set()

        def close(pos, flag):
            nonlocal c
            x = slots[pos]
            if flag == "-":
                return x in (0, 2)
            end = self.end[flag]
            if x == (HALF[end],):        # the path's other end is finalized
                if c:
                    return False
                c = 1
                return True
            if not (self._open(x) and len(x) == 2 and x[0] == end):
                return False
            k = x[1]
            if k in drop_flags:          # both segment ends dropped together
                other = drop_flags[k]
                if other == "-" or other == flag or c:
                    return False
                c = 1
                consumed.add(k)
            else:
                slots[k] = (HALF[slots[k][0]],)
            return True

        for pos, flag in dropped:
            if pos in consumed:
                continue
            if not close(pos, flag):
                return None
        pos_new = {a: k for k, a in enumerate(alpha)}
        return self._prune(_renumber([slots[a] for a in alpha], pos_new), c)

    def leaf_table(self, op):
        if op[0] == "vertex":
            return {((0,), 0): (False,)}
        if op[0] == "edge":
            taken = (((self.end["S"], 1), (self.end["T"], 0)), 0)
            return {((0, 0), 0): (False,), taken: (True,)}
        raise ValueError(f"not a leaf: {op}")


class SpanningTreeAutomaton(EvalAutomaton):
    kind = EDGE

    def root_state(self):
        return DONE

    @staticmethod
    def _canon(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks if b))

    def delta(self, sig, q1, q2=None):
        if DONE in (q1, q2):
            return None                  # more graph beside a finished tree
        op = sig[0]
        if op == "join":
            off = sum(len(b) for b in q1)
            return self._canon(list(q1) + [tuple(p + off for p in b) for b in q2])
        if op in ("fuse", "attach"):
            if op == "attach":
                return q1
            i, j = sig[1], sig[2]
            blocks = [set(b) for b in q1]
            bi = next(k for k, b in enumerate(blocks) if i in b)
            bj = next(k for k, b in enumerate(blocks) if j in b)
            if bi == bj:
                return None              # edge inside a component: cycle
            blocks[bi] |= blocks[bj]
            del blocks[bj]
            merged = []
            for b in blocks:
                merged.append(tuple(sorted(p - 1 if p > j else p
                                           for p in b if p != j)))
            return self._canon(merged)
        if op == "proj":
            alpha = sig[1]
            keep = set(alpha)
            if not keep:
                return DONE if len(q1) == 1 else None
            pos_new = {a: k for k, a in enumerate(alpha)}
            out = []
            for b in q1:
                nb = tuple(sorted(pos_new[p] for p in b if p in keep))
                if not nb:
                    return None          # component loses its last source
                out.append(nb)
            return self._canon(out)
        return None

    def leaf_table(self, op):
        if op[0] == "vertex":
            return {((0,),): (False,)}
        if op[0] == "edge":
            return {((0,), (1,)): (False,), ((0, 1),): (True,)}
        raise ValueError(f"not a leaf: {op}")


class PerfectMatchingAutomaton(EvalAutomaton):
    kind = EDGE

    def root_state(self):
        return ()

    def delta(self, sig, q1, q2=None):
        op = sig[0]
        if op == "join":
            return q1 + q2
        if op == "attach":
            return q1
        if op == "fuse":
            i, j = sig[1], sig[2]
            if q1[i] + q1[j] > 1:
                return None              # a vertex matched twice
            merged = list(q1)
            merged[i] = q1[i] + q1[j]
            del merged[j]
            return tuple(merged)
        if op == "proj":
            alpha, dropped = sig[1], sig[2]
            for p, _ in dropped:
                if q1[p] != 1:
                    return None          # every vertex must end up matched
            return tuple(q1[a] for a in alpha)
        return None

    def leaf_table(self, op):
        if op[0] == "vertex":
            return {(0,): (False,)}
        if op[0] == "edge":
            return {(0, 0): (False,), (1, 1): (True,)}
        raise ValueError(f"not a leaf: {op}")


class VertexCoverAutomaton(EvalAutomaton):
    kind = VERTEX

    def root_state(self):
        return ()

    def delta(self, sig, q1, q2=None):
        op = sig[0]
        if op == "join":
            return q1 + q2
        if op == "attach":
            return q1 if q1[sig[1]] == q2[0] else None
        if op == "fuse":
            i, j = sig[1], sig[2]
            if q1[i] != q1[j]:
                return None              # copies of a vertex must agree
            return q1[:j] + q1[j + 1:]
        if op == "proj":
            return tuple(q1[a] for a in sig[1])
        return None

    def leaf_table(self, op):
        if op[0] == "vertex":
            return {(0,): (False,), (1,): (True,)}
        if op[0] == "edge":
            # at least one endpoint promises to be in the cover
            return {(0, 1): (False,), (1, 0): (False,), (1, 1): (False,)}
        raise ValueError(f"not a leaf: {op}")


def builtin(problem: str, g: WeightedGraph, s: int | None = None,
            t: int | None = None) -> EvalAutomaton:
    """Automaton for a named problem on the given graph."""
    if problem == "simple-path":
        if s is None or t is None:
            raise ValueError("simple-path needs terminals s and t")
        if not (1 <= s <= g.n and 1 <= t <= g.n):
            raise ValueError(f"terminal out of range: s={s}, t={t}, n={g.n}")
        if s == t:
            raise ValueError("terminals must be distinct")
        return SimplePathAutomaton(s, t, g.directed)
    if problem == "spanning-tree":
        return SpanningTreeAutomaton()
    if problem == "perfect-matching":
        return PerfectMatchingAutomaton()
    if problem == "vertex-cover":
        return VertexCoverAutomaton()
    raise ValueError(f"unknown problem {problem!r}; known: {BUILTIN_PROBLEMS}")
