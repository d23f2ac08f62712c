"""Evaluation automata for the built-in optimization problems.

An automaton assigns to every parse node a finite set of states.  A state
summarizes everything about a partial solution (over the features introduced
in the node's subtree) that the rest of the graph can observe through the
node's sources.  Inner nodes combine child states through ``delta``; each
output state's complete list of fitting child-state pairs drives the
evaluation module.

State spaces:

* simple path (undirected): ``(slots, complete)``; slot per source is
  ``0`` (degree 0), ``2`` (path interior), ``('p', j)`` (open segment end
  paired with source j), or ``('h',)`` (open end of a segment whose other
  end is an already-finalized terminal).
* simple path (directed): as above with oriented slots ``('s', j)``/
  ``('t', j)`` (open start/end of a segment) and ``('hs',)``/``('ht',)``.
* spanning tree: partition of the sources into connected blocks, or the
  order-0 sentinels ``()`` (nothing seen) and ``'D'`` (finished tree).
* perfect matching: per-source matched bit; a source may only be projected
  out once matched.
* vertex cover: per-source membership-promise bit; copies of a vertex must
  agree, and only the introducing leaf contributes the vertex itself.
"""
from __future__ import annotations

from itertools import product

from .core import EDGE, VERTEX, FeatureId, WeightedGraph, edge, vertex
from .algebra import ParseNode

BUILTIN_PROBLEMS = ("simple-path", "spanning-tree", "perfect-matching", "vertex-cover")

DONE = "D"


_state_key_cache: dict = {}


def state_key(q) -> str:
    """Deterministic total order on states (used for canonical tie-breaking)."""
    key = _state_key_cache.get(q)
    if key is None:
        key = _state_key_cache[q] = repr(q)
    return key


class EvalAutomaton:
    """Interface shared by the built-in automata; one set variable each."""

    kind: str            # VERTEX or EDGE: the type of the set variable

    def root_state(self):
        raise NotImplementedError

    def signature(self, node: ParseNode):
        """Hashable operator signature carrying everything delta needs."""
        op = node.op[0]
        if op == "join":
            return ("join",)
        if op == "fuse":
            return ("fuse", node.op[1], node.op[2])
        if op == "attach":
            return ("attach", node.op[1])
        if op == "proj":
            alpha = node.op[1]
            old = node.children[0].srcs
            kept = set(alpha)
            dropped = tuple(
                (p, self._flag(old[p])) for p in range(len(old)) if p not in kept
            )
            return ("proj", alpha, len(old), dropped)
        raise ValueError(f"not an inner operator: {node.op}")

    def _flag(self, v: int) -> str:
        return "-"

    def delta(self, sig, q1, q2):
        """Output state for child states (q1, q2), or None if not fitting."""
        raise NotImplementedError

    def leaf_table(self, node: ParseNode) -> dict:
        """state -> list of feature sets denoted by this leaf in that state."""
        raise NotImplementedError

    def states(self, order: int):
        """All syntactically valid states at the given order."""
        raise NotImplementedError

    def transitions(self, sig, q, order1: int, order2: int):
        """Complete fitting-pair list for output state q, deterministic order."""
        out = [
            (q1, q2)
            for q1 in self.states(order1)
            for q2 in self.states(order2)
            if self.delta(sig, q1, q2) == q
        ]
        out.sort(key=lambda p: (state_key(p[0]), state_key(p[1])))
        return out


def _shift_pairs(slots, removed):
    """Renumber pair references after deleting position `removed`."""
    out = []
    for x in slots:
        if isinstance(x, tuple) and len(x) == 2:
            j = x[1]
            out.append((x[0], j - 1 if j > removed else j))
        else:
            out.append(x)
    return out


class SimplePathAutomaton(EvalAutomaton):
    kind = EDGE

    def __init__(self, s: int, t: int, directed: bool):
        self.s = s
        self.t = t
        self.directed = directed
        self._delta_memo: dict = {}

    def root_state(self):
        return ((), 1)

    def _flag(self, v: int) -> str:
        if v == self.s:
            return "S"
        if v == self.t:
            return "T"
        return "-"

    @staticmethod
    def _open(x):
        return x not in (0, 2)

    def _prune(self, slots, c):
        if c and any(self._open(x) for x in slots):
            return None
        return (tuple(slots), c)

    def delta(self, sig, q1, q2):
        key = (sig, q1, q2)
        try:
            return self._delta_memo[key]
        except KeyError:
            pass
        out = self._delta(sig, q1, q2)
        self._delta_memo[key] = out
        return out

    def _delta(self, sig, q1, q2):
        op = sig[0]
        s1, c1 = q1
        s2, c2 = q2
        if op == "join":
            if c1 and c2:
                return None
            off = len(s1)
            shifted = [
                (x[0], x[1] + off) if isinstance(x, tuple) and len(x) == 2 else x
                for x in s2
            ]
            return self._prune(list(s1) + shifted, c1 | c2)
        if op in ("fuse", "attach"):
            if s2 != (0,) or c2:
                return None
            if op == "attach":
                return q1
            i, j = sig[1], sig[2]
            return self._fuse(list(s1), c1, i, j)
        if op == "proj":
            if s2 != () or c2:
                return None
            return self._proj(sig, list(s1), c1)
        return None

    def _fuse(self, slots, c, i, j):
        x, y = slots[i], slots[j]
        if x == 0 and y == 0:
            m = 0
        elif x == 0 or y == 0:
            m = y if x == 0 else x
            # the surviving open end's partner must point at position i
            if isinstance(m, tuple) and len(m) == 2:
                k = m[1]
                px = slots[k]
                slots[k] = (px[0], i)
        elif x == 2 or y == 2:
            return None
        else:
            pair_x = isinstance(x, tuple) and len(x) == 2
            pair_y = isinstance(y, tuple) and len(y) == 2
            if self.directed:
                outd = {"s": (0, 1), "t": (1, 0), "hs": (0, 1), "ht": (1, 0)}
                ox, ix_ = outd[x[0]]
                oy, iy_ = outd[y[0]]
                if ox + oy > 1 or ix_ + iy_ > 1:
                    return None
                m = 2
                if pair_x and pair_y:
                    if x[1] == j:
                        return None  # two ends of one segment: cycle
                    a, b = x[1], y[1]
                    if x[0] == "s":       # i starts segment to a; j ends one from b
                        slots[b] = ("s", a)
                        slots[a] = ("t", b)
                    else:                 # i ends segment from a; j starts one to b
                        slots[a] = ("s", b)
                        slots[b] = ("t", a)
                elif pair_x or pair_y:
                    p, closed = (x, y) if pair_x else (y, x)
                    k = p[1]
                    slots[k] = ("ht",) if closed == ("ht",) else ("hs",)
                else:                     # ('hs',) with ('ht',): path closes
                    if c:
                        return None
                    c = 1
            else:
                if pair_x and pair_y:
                    if x[1] == j:
                        return None  # cycle
                    a, b = x[1], y[1]
                    slots[a] = ("p", b)
                    slots[b] = ("p", a)
                    m = 2
                elif pair_x or pair_y:
                    k = x[1] if pair_x else y[1]
                    slots[k] = ("h",)
                    m = 2
                else:                     # ('h',) with ('h',)
                    if c:
                        return None
                    c = 1
                    m = 2
        slots[i] = m
        del slots[j]
        slots = _shift_pairs(slots, j)
        return self._prune(slots, c)

    def _proj(self, sig, slots, c):
        alpha, r_in, dropped = sig[1], sig[2], sig[3]
        drop_flags = dict(dropped)
        consumed: set[int] = set()

        def close(pos, flag):
            nonlocal c
            x = slots[pos]
            if flag == "-":
                return x in (0, 2)
            if not self._open(x):
                return False
            if self.directed:
                want = "s" if flag == "S" else "t"
                if x == (("hs",) if flag == "S" else ("ht",)):
                    if c:
                        return False
                    c = 1
                    return True
                if not (isinstance(x, tuple) and len(x) == 2 and x[0] == want):
                    return False
            else:
                if x == ("h",):
                    if c:
                        return False
                    c = 1
                    return True
                if not (isinstance(x, tuple) and len(x) == 2 and x[0] == "p"):
                    return False
            k = x[1]
            if k in drop_flags:          # both segment ends dropped together
                other = drop_flags[k]
                if other == "-" or other == flag:
                    return False
                if c:
                    return False
                c = 1
                consumed.add(k)
            else:
                if self.directed:
                    slots[k] = ("ht",) if flag == "S" else ("hs",)
                else:
                    slots[k] = ("h",)
            return True

        for pos, flag in dropped:
            if pos in consumed:
                continue
            if not close(pos, flag):
                return None
        kept = [slots[a] for a in alpha]
        pos_new = {a: k for k, a in enumerate(alpha)}
        out = []
        for x in kept:
            if isinstance(x, tuple) and len(x) == 2:
                out.append((x[0], pos_new[x[1]]))
            else:
                out.append(x)
        return self._prune(out, c)

    def leaf_table(self, node: ParseNode):
        op = node.op[0]
        empty = frozenset()
        if op == "const0":
            return {((), 0): [empty]}
        if op == "vertex":
            return {((0,), 0): [empty]}
        if op == "edge":
            e = node.feature
            if self.directed:
                taken = ((("s", 1), ("t", 0)), 0)
            else:
                taken = ((("p", 1), ("p", 0)), 0)
            return {((0, 0), 0): [empty], taken: [frozenset({e})]}
        raise ValueError(f"not a leaf: {node.op}")

    def states(self, order: int):
        positions = range(order)
        out = []
        for matched in _matchings(order):
            in_pair = {p for ij in matched for p in ij}
            free = [p for p in positions if p not in in_pair]
            singles = ((0, 2, ("hs",), ("ht",)) if self.directed
                       else (0, 2, ("h",)))
            for combo in product(singles, repeat=len(free)):
                base = [None] * order
                for k, p in enumerate(free):
                    base[p] = combo[k]
                orientations = [(0, 1), (1, 0)] if self.directed else [(0, 1)]
                for orient in product(orientations, repeat=len(matched)):
                    slots = list(base)
                    for (i, j), (a, b) in zip(matched, orient):
                        if self.directed:
                            start, end = (i, j) if (a, b) == (0, 1) else (j, i)
                            slots[start] = ("s", end)
                            slots[end] = ("t", start)
                        else:
                            slots[i] = ("p", j)
                            slots[j] = ("p", i)
                    for c in (0, 1):
                        st = self._prune(slots, c)
                        if st is not None and st not in out:
                            out.append(st)
        out.sort(key=state_key)
        return out


def _matchings(order: int):
    """All sets of disjoint position pairs (i < j)."""
    def rec(avail):
        if len(avail) < 2:
            yield []
            return
        yield []
        first = avail[0]
        rest = avail[1:]
        for k, second in enumerate(rest):
            for sub in rec(rest[:k] + rest[k + 1:]):
                yield [(first, second)] + sub
        for sub in rec(rest):
            if sub:
                yield sub
    seen = set()
    for m in rec(list(range(order))):
        key = frozenset(m)
        if key not in seen:
            seen.add(key)
            yield sorted(m)


class SpanningTreeAutomaton(EvalAutomaton):
    kind = EDGE

    def root_state(self):
        return DONE

    @staticmethod
    def _canon(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks if b))

    def delta(self, sig, q1, q2):
        op = sig[0]
        if op == "join":
            if q1 == DONE or q2 == DONE:
                other = q2 if q1 == DONE else q1
                return (q1 if q1 == DONE else q2) if other == () else None
            off = sum(len(b) for b in q1)
            return self._canon(list(q1) + [tuple(p + off for p in b) for b in q2])
        if op in ("fuse", "attach"):
            if q2 != ((0,),) or q1 == DONE:
                return None
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
            if q2 != ():
                return None
            alpha, r_in, dropped = sig[1], sig[2], sig[3]
            if q1 == DONE:
                return DONE if alpha == () and r_in == 0 else None
            if r_in == 0:
                return q1 if alpha == () else None
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

    def leaf_table(self, node: ParseNode):
        op = node.op[0]
        empty = frozenset()
        if op == "const0":
            return {(): [empty]}
        if op == "vertex":
            return {((0,),): [empty]}
        if op == "edge":
            e = node.feature
            return {((0,), (1,)): [empty], ((0, 1),): [frozenset({e})]}
        raise ValueError(f"not a leaf: {node.op}")

    def states(self, order: int):
        if order == 0:
            return [(), DONE]
        out = [self._canon(p) for p in _partitions(list(range(order)))]
        out.sort(key=state_key)
        return out


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
        yield [[first]] + sub


class PerfectMatchingAutomaton(EvalAutomaton):
    kind = EDGE

    def root_state(self):
        return ()

    def delta(self, sig, q1, q2):
        op = sig[0]
        if op == "join":
            return q1 + q2
        if op in ("fuse", "attach"):
            if q2 != (0,):
                return None
            if op == "attach":
                return q1
            i, j = sig[1], sig[2]
            if q1[i] + q1[j] > 1:
                return None              # a vertex matched twice
            merged = list(q1)
            merged[i] = q1[i] + q1[j]
            del merged[j]
            return tuple(merged)
        if op == "proj":
            if q2 != ():
                return None
            alpha, r_in, dropped = sig[1], sig[2], sig[3]
            for p, _ in dropped:
                if q1[p] != 1:
                    return None          # every vertex must end up matched
            return tuple(q1[a] for a in alpha)
        return None

    def leaf_table(self, node: ParseNode):
        op = node.op[0]
        empty = frozenset()
        if op == "const0":
            return {(): [empty]}
        if op == "vertex":
            return {(0,): [empty]}
        if op == "edge":
            e = node.feature
            return {(0, 0): [empty], (1, 1): [frozenset({e})]}
        raise ValueError(f"not a leaf: {node.op}")

    def states(self, order: int):
        return [bits for bits in product((0, 1), repeat=order)]


class VertexCoverAutomaton(EvalAutomaton):
    kind = VERTEX

    def root_state(self):
        return ()

    def delta(self, sig, q1, q2):
        op = sig[0]
        if op == "join":
            return q1 + q2
        if op in ("fuse", "attach"):
            if len(q2) != 1:
                return None
            if op == "attach":
                i = sig[1]
                return q1 if q1[i] == q2[0] else None
            i, j = sig[1], sig[2]
            if not (q1[i] == q1[j] == q2[0]):
                return None              # copies of a vertex must agree
            merged = list(q1)
            del merged[j]
            return tuple(merged)
        if op == "proj":
            if q2 != ():
                return None
            alpha = sig[1]
            return tuple(q1[a] for a in alpha)
        return None

    def leaf_table(self, node: ParseNode):
        op = node.op[0]
        empty = frozenset()
        if op == "const0":
            return {(): [empty]}
        if op == "vertex":
            if node.feature is not None:
                return {(0,): [empty], (1,): [frozenset({node.feature})]}
            return {(0,): [empty], (1,): [empty]}
        if op == "edge":
            # at least one endpoint promises to be in the cover
            return {(0, 1): [empty], (1, 0): [empty], (1, 1): [empty]}
        raise ValueError(f"not a leaf: {node.op}")

    def states(self, order: int):
        return [bits for bits in product((0, 1), repeat=order)]


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
