"""Evaluation structures and the bottom-up evaluation with IDs."""
import random

import pytest

from twkbest.core import WeightedGraph, edge, vertex
from twkbest.treedec import balance, heuristic_decomposition
from twkbest.algebra import build_parse_tree
from twkbest.problems import builtin
from twkbest.persist import best_pair, constrain, initial_version, pivot_query
from twkbest.kbest import k_best, k_best_direct
from twkbest.evaluation import (
    INF,
    EvalNode,
    Evaluator,
    TopKStructure,
    reconstruct,
)

from reference import introducer


def make_graph(n, edges, weights=None, directed=False):
    w = weights or [1] * len(edges)
    return WeightedGraph(
        n=n, m=len(edges), directed=directed, edges=tuple(edges),
        weights={edge(i): wi for i, wi in enumerate(w, 1)},
    )


K3 = make_graph(3, [(1, 2), (2, 3), (3, 1)], [1, 1, 5])
P3 = make_graph(3, [(1, 2), (2, 3)])


def build(g, problem, **kw):
    t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
    a = builtin(problem, g, **kw)
    return Evaluator(a).build(t), a, t


# --- structure operators ----------------------------------------------------

T2, T3 = TopKStructure(2), TopKStructure(3)


def test_combine2_examples():
    assert T2.combine((1, 4), (2, 3)) == (3, 4)
    assert T2.combine((0, INF), (7, 9)) == (7, 9)
    assert T2.combine((5, INF), (1, INF)) == (6, INF)


def test_merge2_examples():
    assert T2.merge((1, 3), (2, 5)) == (1, 2)
    assert T2.merge((INF, INF), (4, 7)) == (4, 7)
    assert T2.merge((2, 2), (2, 9)) == (2, 2)


def test_topk_examples():
    assert T3.combine((1, 2, INF), (0, 5, INF)) == (1, 2, 6)
    assert T3.merge((1, 2, 3), (2, 2, 9)) == (1, 2, 2)
    x = (4, 8, INF)
    assert T3.combine((0, INF, INF), x) == x


def test_combine2_second_is_second_smallest_pairwise_sum():
    rng = random.Random(3)
    for _ in range(2000):
        a = tuple(sorted(rng.choice([rng.randint(-50, 50), INF]) for _ in range(2)))
        b = tuple(sorted(rng.choice([rng.randint(-50, 50), INF]) for _ in range(2)))
        sums = sorted(x + y for x in a for y in b if x is not INF or y is not INF)
        sums += [INF, INF]
        assert T2.combine(a, b) == (sums[0], sums[1])


def test_structure_monoid_laws():
    rng = random.Random(11)
    s = TopKStructure(3)

    def rand():
        vals = [rng.choice([rng.randint(-100, 100), INF]) for _ in range(3)]
        return tuple(sorted(vals))

    for _ in range(2000):
        a, b, c = rand(), rand(), rand()
        assert s.merge(s.merge(a, b), c) == s.merge(a, s.merge(b, c))
        assert s.combine(s.combine(a, b), c) == s.combine(a, s.combine(b, c))
        assert s.merge(a, s.merge_identity) == a
        assert s.combine(a, s.combine_identity) == a
        assert s.combine(s.combine_identity, a) == a
        assert s.merge(a, b) == s.merge(b, a)


# --- evaluation -------------------------------------------------------------

def test_k3_simple_path_top2():
    root, a, _ = build(K3, "simple-path", s=1, t=3)
    assert root.table[0] == (2, 5)


def test_p3_single_path():
    root, a, _ = build(P3, "simple-path", s=1, t=3)
    assert root.table[0] == (2, INF)


def test_matching_infeasible_root():
    root, a, _ = build(P3, "perfect-matching")
    assert root.table == []
    assert k_best_direct(P3, "perfect-matching", 4) == []


def test_reconstruct_k3_ranks():
    root, a, _ = build(K3, "simple-path", s=1, t=3)
    q = 0
    assert reconstruct(root, q, 0) == frozenset({edge(1), edge(2)})
    assert reconstruct(root, q, 1) == frozenset({edge(3)})
    with pytest.raises(ValueError):
        reconstruct(root, q, -1)


def test_reconstruct_infinite_rank_rejected():
    root, a, _ = build(P3, "simple-path", s=1, t=3)
    for state, rank in ((0, 1), (-1, 0), (len(root.table), 0)):
        with pytest.raises(ValueError):
            reconstruct(root, state, rank)


def test_constraints_filter_at_introducing_leaf():
    t = build_parse_tree(balance(heuristic_decomposition(K3), K3), K3)
    a = builtin("simple-path", K3, 1, 3)
    ev = Evaluator(a)
    root = ev.build(t)

    def constrained(node, want):
        """node's tree with edge 3's leaf filtered to want, re-evaluated."""
        if node.is_leaf():
            if ev.feature[node.eid] != edge(3):
                return node
            return ev.leaf_node(node.eid, want)
        ch1, ch2 = (constrained(c, want) for c in node.children)
        return ev.inner_node(node.eid, ch1, ch2)

    without = constrained(root, False)
    assert without.table[0] == (2, INF)
    forced = constrained(root, True)
    assert forced.table[0] == (5, INF)
    assert reconstruct(forced, 0, 0) == frozenset({edge(3)})
    assert root.table[0] == (2, 5)


def _denotations(node):
    out = {}
    for q, vals in enumerate(node.table):
        if vals is None:
            continue
        for r, v in enumerate(vals):
            if v is INF:
                break
            out[(q, r)] = reconstruct(node, q, r)
    return out


def all_eval_nodes(root):
    seen, order = set(), []
    stack = [root]
    while stack:
        u = stack.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        order.append(u)
        stack.extend(u.children)
    return order


@pytest.mark.parametrize("problem,kw", [
    ("simple-path", dict(s=1, t=4)),
    ("spanning-tree", {}),
    ("vertex-cover", {}),
    ("perfect-matching", {}),
])
def test_solution_ids_discriminate(problem, kw):
    for g in random_graphs(problem):
        root, a, _ = build(g, problem, **kw)
        for node in all_eval_nodes(root):
            den = _denotations(node)
            for (q1, r1), s1 in den.items():
                for (q2, r2), s2 in den.items():
                    same_id = node.ids[q1][r1] == node.ids[q2][r2]
                    assert same_id == (s1 == s2)


def _entry_set(e):
    """The feature set a leaf's entry denotes: its feature, or none."""
    return frozenset(() if e is None else (e,))


def _all_solutions(ev, node):
    """Per state of the node, every solution its ``relevant`` list denotes,
    one per entry of a leaf and one per pair of child solutions at a
    join, repeats kept."""
    rel = ev.relevant[node.eid]
    if node.is_leaf():
        return [[_entry_set(e) for e in entries] for entries in rel]
    sols1, sols2 = (_all_solutions(ev, c) for c in node.children)
    return [[x | y for a, b in pairs for x in sols1[a] for y in sols2[b]]
            for pairs in rel]


@pytest.mark.parametrize("problem,directed", [
    ("simple-path", False),
    ("simple-path", True),
    ("spanning-tree", False),
    ("perfect-matching", False),
    ("vertex-cover", False),
])
def test_decompositions_are_ids_unless_a_node_repeats_a_solution(problem,
                                                                 directed):
    """``Evaluator.decomp_ids`` is True exactly when no node has two entries
    denoting one solution, and then every node's IDs are its decompositions.
    Every entry's solutions are read from the untruncated ``relevant``
    lists (``_all_solutions``).  Vertex cover's promise bits repeat
    solutions on P3; no other automaton repeats one."""
    rng = random.Random(f"{problem} {directed}")
    graphs = []
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(1, 4)
        graphs.append(make_graph(
            n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
            [rng.randint(-5, 9) for _ in range(m)], directed))
    if problem == "vertex-cover":
        graphs.append(P3)
    for g in graphs:
        kw = dict(s=1, t=g.n) if problem == "simple-path" else {}
        t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
        ev = Evaluator(builtin(problem, g, **kw))
        nodes = all_eval_nodes(ev.build(t))
        dens = [sum(_all_solutions(ev, u), []) for u in nodes]
        assert ev.decomp_ids == all(len(set(d)) == len(d) for d in dens)
        assert ev.decomp_ids or problem == "vertex-cover"
        if ev.decomp_ids:
            assert all(u.ids is u.chosen for u in nodes)
    assert ev.decomp_ids == (problem != "vertex-cover")   # P3 for vertex cover


def test_reconstruction_value_matches_table():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, 10)
        g = make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                       [rng.randint(-20, 100) for _ in range(m)])
        s, t = (1, n) if n >= 2 else (1, 1)
        if s == t:
            continue
        root, a, _ = build(g, "simple-path", s=s, t=t)
        q = 0
        for r, v in enumerate(root.table[q] if root.table else ()):
            if v is INF:
                break
            assert g.value(reconstruct(root, q, r)) == v


PROBLEMS = [
    ("simple-path", dict(s=1, t=4)),
    ("spanning-tree", {}),
    ("vertex-cover", {}),
    ("perfect-matching", {}),
]


def random_graphs(problem, count=15):
    """Small random multigraphs with weights in -5..9, seeded per problem."""
    rng = random.Random(problem)
    for _ in range(count):
        n = rng.randint(4, 7)
        m = rng.randint(3, 10)
        yield make_graph(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)],
                         [rng.randint(-5, 9) for _ in range(m)])


def initial(g, problem, **kw):
    t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
    a = builtin(problem, g, **kw)
    return initial_version(t, a), a, t


def eval_depth(node):
    return 0 if node.is_leaf() else 1 + max(map(eval_depth, node.children))


@pytest.mark.parametrize("problem,kw", PROBLEMS)
def test_evaluation_tree_is_contracted_full_binary_tree(problem, kw):
    for g in random_graphs(problem):
        v0, a, t = initial(g, problem, **kw)
        live = sum(1 for u in t.nodes if u.is_leaf() and u.feature is not None
                   and u.feature.kind == a.kind)
        nodes = all_eval_nodes(v0.root)
        assert len(nodes) == max(2 * live - 1, 1)
        if live:
            for u in nodes:
                if u.is_leaf():
                    assert v0.evaluator.feature[u.eid].kind == a.kind
        depth = eval_depth(v0.root)
        frontier, expansions = [v0], 0
        while frontier and expansions < 10:
            v = frontier.pop()
            if best_pair(v)[1] is INF:
                continue
            expansions += 1
            report = pivot_query(v)
            for force in (True, False):
                child = constrain(v, report, force)
                assert child.copied_nodes == len(report.path) <= depth + 1
                frontier.append(child)


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("problem,kw", PROBLEMS)
def test_engine_top_k_is_the_structure_fold(problem, kw, k):
    """Each table the build fixes is criterion 7's operator with k = 2
    applied to the node's pairs: merge over pairs of combine, or lift at a
    leaf.  The same fold with k, values only (``top_values``), gives the
    engine's first k values."""
    st = TopKStructure(2)
    for g in random_graphs(problem):
        v0, a, t = initial(g, problem, **kw)
        if k == 2:
            relevant = v0.evaluator.relevant
            for u in all_eval_nodes(v0.root):
                for q, table in enumerate(relevant[u.eid]):
                    if u.is_leaf():
                        want = st.lift(g.value(_entry_set(e)) for e in table)
                    else:
                        t1, t2 = u.children[0].table, u.children[1].table
                        want = st.merge_identity
                        for i1, i2 in table:
                            want = st.merge(want, st.combine(t1[i1], t2[i2]))
                    assert u.table[q] == want
        assert Evaluator(a).top_values(t, k) == \
            [v for v, _ in k_best(g, problem, k, **kw)]


@pytest.mark.parametrize("problem,kw", PROBLEMS)
def test_leaves_by_shape_equal_leaves_one_by_one(problem, kw):
    """The relevance pass asks the automaton once per leaf shape and sorts
    each leaf's lists by the sign of its feature's weight.  Each live
    leaf's lists must be its own ``leaf_table``'s feature sets, as entries,
    sorted one leaf at a time: in sequence order, by (value, sorted(fs)) within each
    leaf state, then stably by value.  The sequence is read from a build
    with every weight 0, where that sort keeps it with the empty set first
    in each state; with a weight w != 0 only the stable sort by value
    moves entries, as a state never lists one set twice.  Weights are
    negative, zero and positive, on vertices and edges; 40% of the graphs
    are directed."""
    rng = random.Random(f"leaf shapes {problem}")
    for _ in range(40):
        n, m = rng.randint(4, 7), rng.randint(3, 10)
        weights = {edge(i): rng.randint(-3, 3) for i in range(1, m + 1)}
        weights.update((vertex(v), rng.randint(-3, 3))
                       for v in range(1, n + 1))
        g = WeightedGraph(
            n=n, m=m, directed=rng.random() < 0.4,
            edges=tuple((rng.randint(1, n), rng.randint(1, n))
                        for _ in range(m)), weights=weights)
        t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
        a = builtin(problem, g, **kw)
        ev, ev0 = Evaluator(a), Evaluator(a)
        ev.build(t)
        ev0.build(t._replace(graph=g._replace(weights={})))
        assert ev.feature == ev0.feature
        leaves = introducer(t)
        for eid, f in enumerate(ev.feature):
            if f is None:
                continue
            own = {frozenset({f}) if bit else frozenset()
                   for bits in a.leaf_table(leaves[f].op).values()
                   for bit in bits}
            want = [tuple(sorted(entries,
                                 key=lambda e: g.value(_entry_set(e))))
                    for entries in ev0.relevant[eid]]
            assert all(_entry_set(e) in own
                       for entries in want for e in entries)
            assert ev.relevant[eid] == want


@pytest.mark.parametrize("problem,kw", PROBLEMS)
def test_a_constrained_leaf_keeps_the_entry_of_its_choice(problem, kw):
    """``leaf_node(eid, want)`` keeps at most one entry per state: the
    state's unconstrained entry with (want True) or without (False) the
    leaf's feature, at that entry's value; a state without one is emptied.
    Weights are negative, zero and positive, on vertices and edges."""
    rng = random.Random(f"constrained leaf {problem}")
    for _ in range(20):
        n, m = rng.randint(4, 7), rng.randint(3, 10)
        weights = {edge(i): rng.randint(-2, 2) for i in range(1, m + 1)}
        weights.update((vertex(v), rng.randint(-2, 2))
                       for v in range(1, n + 1))
        g = WeightedGraph(
            n=n, m=m, directed=rng.random() < 0.4,
            edges=tuple((rng.randint(1, n), rng.randint(1, n))
                        for _ in range(m)), weights=weights)
        t = build_parse_tree(balance(heuristic_decomposition(g), g), g)
        ev = Evaluator(builtin(problem, g, **kw))
        for u in all_eval_nodes(ev.build(t)):
            f = ev.feature[u.eid]
            if u.children or f is None:
                continue
            for want in (True, False):
                got = ev.leaf_node(u.eid, want)
                assert got.ids is got.chosen
                for q, entries in enumerate(u.chosen):
                    made = [e for e in entries if (e == f) == want]
                    assert len(made) <= 1
                    if made:
                        assert got.chosen[q] == (made[0],)
                        assert got.table[q] == (g.value(_entry_set(made[0])),
                                                INF)
                    else:
                        assert got.chosen[q] is None is got.table[q]


def _random_child(rng, states):
    """A child node: each state None or a nondecreasing value pair with INF
    padding, ranks carrying small IDs so that pairs of them repeat."""
    table, ids = [], []
    for _ in range(states):
        if rng.random() < 0.2:
            table.append(None)
            ids.append(None)
            continue
        a = rng.randint(-3, 3)
        b = INF if rng.random() < 0.3 else a + rng.randint(0, 2)
        table.append((a, b))
        ids.append(tuple(rng.randint(0, 2) for v in (a, b) if v is not INF))
    return EvalNode(None, (), table, ids, None)


def _fold(plist, tables1, tables2, prefer, k=2) -> tuple | None:
    """One state's (values, decompositions) over its pairs of child state
    ids, or None if no pair is realizable: every (r1, r2) with r1 + r2 <
    k, sorted by (value, preferred, pair index, r1, r2); prefer is the
    decomposition forced first among its value ties, or None."""
    cands = []
    for pidx, (i1, i2) in enumerate(plist):
        t1, t2 = tables1[i1], tables2[i2]
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
                d = (i1, r1, i2, r2)
                cands.append((v1 + v2, d != prefer, pidx, r1, r2, d))
    if not cands:
        return None
    # (pidx, r1, r2) is unique within a state: d is never compared.
    cands.sort()
    top = cands[:k]
    return (tuple(c[0] for c in top) + (INF,) * (k - len(top)),
            tuple(c[5] for c in top))


@pytest.mark.parametrize("decomp_ids", [True, False])
def test_k2_kernel_is_the_general_fold(decomp_ids):
    """``inner_node`` equals ``_fold``, the general top-k fold it replaced,
    on every state (IDs interned in the same order where decompositions are
    not IDs), with and without a survivor's state, on random child tables
    with INF padding, value ties, empty states and repeated pairs."""
    rng = random.Random(f"k2 kernel {decomp_ids}")
    ev = Evaluator(None)
    ev.decomp_ids = decomp_ids
    for trial in range(3000):
        s1, s2 = rng.randint(1, 4), rng.randint(1, 4)
        ch1, ch2 = _random_child(rng, s1), _random_child(rng, s2)
        ev.relevant = [[[(rng.randrange(s1), rng.randrange(s2))
                         for _ in range(rng.randint(0, 5))]
                        for _ in range(rng.randint(1, 5))]]
        prefer = None
        if trial % 2:
            q = rng.randrange(len(ev.relevant[0]))
            fits = [(i1, r1, i2, r2) for i1, i2 in ev.relevant[0][q]
                    for r1, r2 in ((0, 0), (0, 1), (1, 0))
                    if ch1.table[i1] is not None and ch2.table[i2] is not None
                    and ch1.table[i1][r1] is not INF
                    and ch2.table[i2][r2] is not INF]
            if fits:
                prefer = (q, rng.choice(fits))
        got = ev.inner_node(0, ch1, ch2, prefer)
        table, chosen, key_map = [], [], {}
        for q, plist in enumerate(ev.relevant[0]):
            top = _fold(plist, ch1.table, ch2.table,
                        prefer[1] if prefer and prefer[0] == q else None)
            table.append(top and top[0])
            chosen.append(top and top[1])
        assert got.table == table
        assert got.chosen == chosen
        if decomp_ids:
            assert got.ids is got.chosen
        else:
            assert got.ids == [d and tuple(key_map.setdefault(
                (ch1.ids[i1][r1], ch2.ids[i2][r2]), len(key_map))
                for i1, r1, i2, r2 in d) for d in chosen]


def test_tree_without_live_leaves_is_one_featureless_leaf():
    v0, _, _ = initial(make_graph(1, []), "spanning-tree")
    root = v0.root
    assert root.is_leaf() and v0.evaluator.feature[root.eid] is None
    assert root.table == [(0, INF)]
    assert reconstruct(root, 0, 0) == frozenset()


def test_constant_leaf_with_a_solution_is_refused():
    t = build_parse_tree(balance(heuristic_decomposition(K3), K3), K3)
    a = builtin("vertex-cover", K3)
    real = a.leaf_table

    def leaky(op):
        table = real(op)
        if op[0] == "edge":              # constant: vertex cover sets vertices
            table[(1, 1)] = (True,)
        return table

    a.leaf_table = leaky
    with pytest.raises(AssertionError, match="constant leaf"):
        Evaluator(a).build(t)


def test_constant_node_with_two_derivations_is_refused():
    t = build_parse_tree(balance(heuristic_decomposition(K3), K3), K3)
    a = builtin("vertex-cover", K3)
    real = a.delta

    def lax(sig, q1, q2=None):           # a fuse that merges disagreeing copies
        if sig[0] != "fuse":
            return real(sig, q1, q2)
        merged = list(q1)
        merged[sig[1]] = max(q1[sig[1]], q1[sig[2]])
        del merged[sig[2]]
        return tuple(merged)

    a.delta = lax
    with pytest.raises(AssertionError, match="twice"):
        Evaluator(a).build(t)
