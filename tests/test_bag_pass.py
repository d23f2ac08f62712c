"""The bag form of the front end against the per-parse-node reference.

``build_parse_tree`` makes each bag's gadget once per bag shape, and
``Evaluator._compute_relevant`` does one memo lookup per bag.
``reference_relevant`` is the relevance pass as it was before, one parse
node at a time over the expanded tree; both must fill the evaluator alike.
"""
import random

import pytest

from twkbest.algebra import build_parse_tree
from twkbest.evaluation import Evaluator
from twkbest.problems import builtin, state_key
from twkbest.treedec import (
    balance,
    heuristic_decomposition,
    load_td,
    save_td,
    validate,
)

from test_acceptance import _family
from test_crosscheck import PROBLEMS, random_multigraph, random_td


def reference_relevant(ev: Evaluator, tree) -> list[bool]:
    """``Evaluator._compute_relevant`` one parse node at a time: the
    bottom-up pass over ``tree.nodes`` with a (signature, children's
    realizable sets) memo, then the top-down walk over the chains of
    ``ParseNode``s.  Fills ev's ``relevant``, ``feature``, ``weights`` and
    ``decomp_ids`` and returns the join flags."""
    automaton, kind = ev.automaton, ev.automaton.kind
    sid: dict = {}
    states: list = []
    keys: list = []
    order = keys.__getitem__

    def intern(q) -> int:
        i = sid.get(q)
        if i is None:
            i = sid[q] = len(states)
            states.append(q)
            keys.append(state_key(q))
        return i

    pair_memo: dict = {}
    shapes: dict = {}
    realizable: dict = {}
    live: dict = {}
    for pn in tree.nodes:
        if pn.is_leaf():
            f = pn.feature
            is_live = f is not None and f.kind == kind
            shape = shapes.get((pn.op, is_live))
            if shape is None:
                leaf = automaton.leaf_table(pn.op)
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
        sig = automaton.signature(pn.op, c1.srcs)
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
                    for b in memo_key[2]:
                        q = automaton.delta(sig, states[a], states[b])
                        if q is not None:
                            pairs.setdefault(intern(q), []).extend((a, b))
            table = {q: tuple(p) for q, p in pairs.items()}
            pair_memo[memo_key] = table, tuple(sorted(table, key=order))
        table, realizable[pn.nid] = pair_memo[memo_key]
        if c1.nid in live or c2 is not None and c2.nid in live:
            live[pn.nid] = table
    root = sid.get(automaton.root_state())
    tops = [root] if root in realizable.pop(tree.root.nid) else []
    ev.weights = weights = tree.graph.weights
    if tree.root.nid not in live:
        ev.feature = [None]
        ev.relevant = [[(None,)] * len(tops)]
        return [False]

    joins, feature, relevant = [], [], []
    memo: dict = {}
    stack = [(tree.root, tops)]
    while stack:
        pn, tops = stack.pop()
        steps = []
        while not pn.is_leaf():
            kids = pn.children
            if len(kids) == 2 and kids[0].nid in live \
                    and kids[1].nid in live:
                break
            side = 0 if kids[0].nid in live else 1
            steps.append((live.pop(pn.nid), side, len(kids)))
            pn = kids[side]
        table = live.pop(pn.nid)
        f = pn.feature
        w = None if f is None else weights.get(f, 0)
        sign = None if f is None else (w > 0) - (w < 0)
        memo_key = (tuple((id(t), side) for t, side, _ in steps), id(table),
                    tuple(tops), sign)
        if memo_key not in memo:
            seqs = [[q] for q in tops]
            for t, side, arity in steps:
                seqs = [[x for q in seq for x in t[q][side::arity]]
                        for seq in seqs]
            ids1, ids2 = {}, {}
            if f is not None:
                lists = [tuple(sorted([x for q in seq for x in table[q]],
                                      key=sign.__mul__)) for seq in seqs]
            else:
                lists = [[(ids1.setdefault(a, len(ids1)),
                           ids2.setdefault(b, len(ids2)))
                          for q in seq
                          for a, b in zip(table[q][::2], table[q][1::2])]
                         for seq in seqs]
            if ev.decomp_ids:
                ev.decomp_ids = (len(set().union(*lists))
                                 == sum(map(len, lists)))
            memo[memo_key] = lists, list(ids1), list(ids2)
        lists, tops1, tops2 = memo[memo_key]
        feature.append(f)
        joins.append(f is None)
        if f is None:
            relevant.append(lists)
            stack.append((pn.children[1], tops2))
            stack.append((pn.children[0], tops1))
        else:
            forms = {(False,): (None,), (True,): (f,),
                     (False, True): (None, f), (True, False): (f, None)}
            relevant.append([forms[flags] for flags in lists])
    ev.feature, ev.relevant = feature, relevant
    return joins


def check(g, problem, s, t, td):
    """The bag pass equals the reference on one input, and the bag form's
    node count, depth and largest order equal its expansion's."""
    tree = build_parse_tree(balance(td, g), g)
    a = builtin(problem, g, s, t)
    ev, ref = Evaluator(a), Evaluator(a)
    joins = ev._compute_relevant(tree)     # before anything expands the tree
    assert not tree.expansion
    assert reference_relevant(ref, tree) == joins
    assert ev.feature == ref.feature
    assert ev.relevant == ref.relevant
    assert ev.decomp_ids == ref.decomp_ids

    height = []
    for u in tree.nodes:
        height.append(max((height[c.nid] + 1 for c in u.children), default=0))
    assert tree.size == len(tree.nodes) == tree.root.nid + 1
    assert tree.depth == height[tree.root.nid]
    assert tree.max_order == max(len(u.srcs) for u in tree.nodes)
    assert len(tree.introducer) == g.n + g.m


@pytest.mark.parametrize("problem", PROBLEMS)
def test_bag_pass_equals_the_reference_on_random_multigraphs(problem):
    """Seeded multigraphs with self-loops and parallel edges, in both
    orientations, on min-fill and on random valid ``.td`` files."""
    rng = random.Random(f"bag pass {problem}")
    for i in range(60):
        g, s, t = random_multigraph(rng, problem, weights=(-3, 3))
        g = g._replace(directed=i % 2 == 1)
        check(g, problem, s, t, heuristic_decomposition(g))
        td = load_td(save_td(random_td(g, rng), g.n))
        assert validate(td, g).ok
        check(g, problem, s, t, td)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_bag_pass_equals_the_reference_on_the_families(problem):
    """The path, cycle and grid-strip families on their chain and min-fill
    decompositions."""
    for name in ("path", "cycle", "grid-strip"):
        for n in (16, 64):
            g, td = _family(name, n, random.Random(n))
            s, t = (1, n) if problem == "simple-path" else (None, None)
            for d in (td, heuristic_decomposition(g)):
                check(g, problem, s, t, d)
