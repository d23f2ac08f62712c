"""Acceptance gate: nine numbered criteria, each emitting one pass/fail line.

Tolerances are pinned: every value comparison is exact integer equality
(zero tolerance); the only non-asserted number is the criterion-5 wall-time
figure, which is reported.  Criterion 5(c) runs only when RUN_SLOW=1.
"""
import gc
import math
import os
import random
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations_with_replacement

import pytest

from twkbest.core import WeightedGraph, edge, vertex
from twkbest.treedec import TreeDecomposition, balance, heuristic_decomposition
from twkbest.algebra import build_parse_tree
from twkbest.problems import builtin
from twkbest.evaluation import (
    INF,
    Evaluator,
    TopKStructure,
    reconstruct,
)
from twkbest.persist import best_pair, constrain, initial_version, pivot_query
from twkbest.kbest import RunStats, k_best, k_best_direct, prepare
from twkbest import kbest, oracle

from reference import evaluate_hypergraph, hypergraph_matches_graph, introducer
from test_problems import accumulate

# Pinned constants.
CORPUS_SIZE = 200           # instances per built-in problem
MAX_N, MAX_M = 10, 20
WEIGHT_LO, WEIGHT_HI = -20, 100
COUNT_CAP = 500             # resample graphs with more feasible sets (runtime)
C_DEPTH_PRIME = 32          # parse-tree depth <= C_DEPTH_PRIME * log2(n)
SCALE_DEPTH_SIZES = [2 ** p for p in range(10, 18)]
SCALE_PIPELINE_SIZES = [2 ** p for p in range(10, 13)]


def report(capsys, label, detail=""):
    with capsys.disabled():
        print(f"{label}: PASS{detail}")


@contextmanager
def failing_reports(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"{label}: FAIL")
        raise


def make_graph(n, edges, weights, directed=False):
    return WeightedGraph(n=n, m=len(edges), directed=directed,
                         edges=tuple(edges),
                         weights={edge(i): w for i, w in enumerate(weights, 1)})


def random_instance(rng, problem):
    """Sparse-biased random instance with its full oracle enumeration."""
    while True:
        n = rng.randint(2, MAX_N)
        m = min(rng.randint(0, MAX_M), rng.randint(0, MAX_M))
        edges = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(m)]
        weights = [rng.randint(WEIGHT_LO, WEIGHT_HI) for _ in range(m)]
        directed = problem == "simple-path" and rng.random() < 0.4
        g = make_graph(n, edges, weights, directed)
        s = t = None
        if problem == "simple-path":
            s = rng.randint(1, n)
            t = rng.randint(1, n)
            if s == t:
                continue
        pred, kind = oracle.predicate_for(problem, s, t)
        ref = oracle.enumerate_sorted(g, pred, kind)
        if len(ref) <= COUNT_CAP:
            return g, s, t, ref


@pytest.fixture(scope="module")
def corpus():
    """Per-problem instances plus engine output at k = total feasible count."""
    out = {}
    for pi, problem in enumerate(
            ("simple-path", "spanning-tree", "perfect-matching",
             "vertex-cover")):
        rng = random.Random(0xACCE97 + pi)
        instances = []
        for _ in range(CORPUS_SIZE):
            g, s, t, ref = random_instance(rng, problem)
            k = max(len(ref), 1)
            got = k_best(g, problem, k, s=s, t=t, want_solutions=True)
            instances.append((g, s, t, ref, got))
        out[problem] = instances
    return out


def test_criterion_1_oracle_equivalence_values(corpus, capsys):
    label = "criterion 1 (oracle equivalence, k-val)"
    with failing_reports(capsys, label):
        total = 0
        for problem, instances in corpus.items():
            for g, s, t, ref, got in instances:
                assert [v for v, _ in got] == [v for v, _ in ref], \
                    f"{problem}: value sequence mismatch on {g.edges}"
                total += 1
        assert total >= 4 * CORPUS_SIZE
    report(capsys, label, f" ({total} instances, exact match)")


def test_criterion_2_oracle_equivalence_solutions(corpus, capsys):
    label = "criterion 2 (oracle equivalence, k-sol)"
    with failing_reports(capsys, label):
        for problem, instances in corpus.items():
            for g, s, t, ref, got in instances:
                pred, kind = oracle.predicate_for(problem, s, t)
                seen = set()
                for pos, (value, fs) in enumerate(got):
                    assert fs not in seen, f"{problem}: duplicate solution"
                    seen.add(fs)
                    assert pred(g, fs), f"{problem}: infeasible output"
                    assert g.value(fs) == value == ref[pos][0]
    report(capsys, label, " (distinct, feasible, position-wise values)")


def test_solutions_by_difference_equal_reconstruct(corpus, monkeypatch):
    """Each solution ``k_best`` emits after the first is found by difference
    from its version's best; it equals ``reconstruct`` of the version's
    rank-1 entry on the whole criterion-1 corpus."""
    real = kbest.solution_at
    by_difference = 0

    def checked(v, rank, *best):
        nonlocal by_difference
        sol = real(v, rank, *best)
        assert sol == reconstruct(v.root, 0, rank)
        by_difference += bool(best)
        return sol

    monkeypatch.setattr(kbest, "solution_at", checked)
    for problem, instances in corpus.items():
        for g, s, t, ref, got in instances:
            k = max(len(ref), 1)
            assert k_best(g, problem, k, s=s, t=t, want_solutions=True) == got
    assert by_difference == sum(max(len(got) - 1, 0)
                                for instances in corpus.values()
                                for *_, got in instances)


def test_criterion_3_best_pair(corpus, capsys):
    label = "criterion 3 (2-val: root best pair)"
    with failing_reports(capsys, label):
        for problem, instances in corpus.items():
            for g, s, t, ref, _ in instances:
                tree, automaton = prepare(g, problem, s, t)
                first, second = best_pair(initial_version(tree, automaton))
                want_first = ref[0][0] if ref else INF
                want_second = ref[1][0] if len(ref) > 1 else INF
                assert first == want_first and second == want_second
                assert (second is INF) == (len(ref) <= 1)
    report(capsys, label, " (matches two smallest oracle values)")


def _expand_fully(g, problem, s, t, order, rng):
    """Expand the whole subproblem tree; returns (sorted values, snapshots)."""
    tree, automaton = prepare(g, problem, s, t)
    root = initial_version(tree, automaton)
    if best_pair(root)[0] is INF:
        return [], []
    values = [best_pair(root)[0]]
    snapshots = [(root, best_pair(root))]
    pending = [root]
    while pending:
        if order == "dfs":
            v = pending.pop()
        elif order == "random":
            v = pending.pop(rng.randrange(len(pending)))
        else:
            v = min(pending, key=lambda u: best_pair(u)[1])
            pending.remove(v)
        if best_pair(v)[1] is INF:
            continue
        values.append(best_pair(v)[1])
        r = pivot_query(v)
        for force in (True, False):
            child = constrain(v, r, force)
            snapshots.append((child, best_pair(child)))
            pending.append(child)
    return sorted(values), snapshots


def test_criterion_4_persistence_order_independence(corpus, capsys):
    label = "criterion 4 (persistence under expansion order)"
    with failing_reports(capsys, label):
        checked = 0
        for problem, instances in corpus.items():
            picked = [inst for inst in instances
                      if 2 <= len(inst[3]) <= 40][:25]
            for g, s, t, ref, _ in picked:
                rng = random.Random(checked)
                runs = [_expand_fully(g, problem, s, t, order, rng)
                        for order in ("best", "dfs", "random")]
                assert runs[0][0] == runs[1][0] == runs[2][0] == \
                    [v for v, _ in ref]
                # Retained parents answer unchanged after descendant creation.
                for _, snapshots in runs:
                    for version, pair in snapshots:
                        assert best_pair(version) == pair
                checked += 1
        assert checked >= 40
    report(capsys, label, f" ({checked} instances x 3 orders, zero tolerance)")


def _family(name, n, rng):
    L = n // 2
    edges = []
    if name == "path":
        edges = [(i, i + 1) for i in range(1, n)]
        bags = {i: frozenset({i, i + 1}) for i in range(1, n)}
    elif name == "cycle":
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        bags = {i: frozenset({1, i, i + 1}) for i in range(1, n)}
    else:                                # grid-strip: 2 x (n/2), width 3
        for i in range(1, L + 1):
            edges.append((2 * i - 1, 2 * i))
            if i < L:
                edges.append((2 * i - 1, 2 * i + 1))
                edges.append((2 * i, 2 * i + 2))
        bags = {i: frozenset({2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2})
                for i in range(1, L)} or {1: frozenset({1, 2})}
    g = make_graph(n, edges, [rng.randint(1, 50) for _ in edges])
    td = TreeDecomposition(bags, {(i, i + 1) for i in range(1, len(bags))})
    return g, td


@contextmanager
def gc_paused():
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


def test_criterion_5_complexity_evidence(capsys):
    label = "criterion 5 (complexity evidence)"
    with failing_reports(capsys, label), gc_paused():
        rng = random.Random(5)
        # (a) parse-tree depth is logarithmic on all three width<=3 families.
        worst = 0.0
        for name in ("path", "cycle", "grid-strip"):
            for n in SCALE_DEPTH_SIZES:
                g, td = _family(name, n, rng)
                tree = build_parse_tree(balance(td, g), g)
                ratio = tree.depth / math.log2(n)
                worst = max(worst, ratio)
                assert tree.depth <= C_DEPTH_PRIME * math.log2(n), \
                    f"{name} n={n}: depth {tree.depth}"
        # (b) full pipeline: nodes copied per constrain <= depth + 1.
        for name in ("path", "cycle", "grid-strip"):
            for n in SCALE_PIPELINE_SIZES:
                g, td = _family(name, n, rng)
                stats = RunStats()
                res = k_best(g, "simple-path", 20, s=1, t=n, td=td,
                             stats=stats)
                assert res and stats.max_copies <= stats.tree_depth + 1
                assert [v for v, _ in res] == sorted(v for v, _ in res)
    report(capsys, label,
           f" (depth/log2(n) <= {worst:.1f} up to n=2^17;"
           f" copies <= depth+1 up to n=2^12)")


def test_build_memory_bounded_by_the_built_tree():
    """Building the evaluation tree of grid-strip n = 1024 (width-3 chain
    decomposition, balanced width 7) peaks at most 3x the heap the built
    tree keeps."""
    g, td = _family("grid-strip", 1024, random.Random(5))
    tree, automaton = prepare(g, "simple-path", 1, 1024, td)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        with gc_paused():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ev = Evaluator(automaton)
            root = ev.build(tree)
            kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert root.table and ev.relevant
    ratio = (peak - base) / (kept - base)
    assert ratio <= 3, f"build peak is {ratio:.2f}x the built tree"


def test_build_shares_tables_across_equal_chains():
    """Evaluation nodes whose chains have the same tables and top states
    share one per-state list: on the memory test's instance (balanced
    width 7), 3,067 nodes hold 1,567 distinct lists.  Balancing on
    adhesions keeps its realizable states under 20,000 (whole bags,
    width 11, gave 38,772)."""
    g, td = _family("grid-strip", 1024, random.Random(5))
    tree, automaton = prepare(g, "simple-path", 1, 1024, td)
    ev = Evaluator(automaton)
    ev.build(tree)
    assert len(ev.relevant) == 3067
    assert len({id(lists) for lists in ev.relevant}) <= 1567
    assert sum(map(len, ev.relevant)) < 20_000


def test_forgetting_early_narrows_the_memory_tests_instance():
    """Each bag gadget forgets a vertex as soon as no part left to join
    holds it: on grid-strip n = 1024 (width-3 chain decomposition) the
    parse tree's order stays <= 8 and the relevant states under 11,000
    (forgetting only at the end of each gadget gave 10 and 12,081)."""
    g, td = _family("grid-strip", 1024, random.Random(5))
    tree, automaton = prepare(g, "simple-path", 1, 1024, td)
    assert tree.max_order <= 8
    ev = Evaluator(automaton)
    ev.build(tree)
    assert sum(map(len, ev.relevant)) < 11_000


@pytest.mark.slow
@pytest.mark.skipif(os.environ.get("RUN_SLOW") != "1",
                    reason="wall-time evidence; set RUN_SLOW=1")
def test_criterion_5c_wall_time(capsys):
    label = "criterion 5c (wall time, reported not asserted)"
    with failing_reports(capsys, label), gc_paused():
        rng = random.Random(55)
        n = 100_000
        g, td = _family("grid-strip", n, rng)
        t0 = time.perf_counter()
        res = k_best(g, "simple-path", 10_000, s=1, t=n, td=td)
        elapsed = time.perf_counter() - t0
        assert len(res) == 10_000
        assert [v for v, _ in res] == sorted(v for v, _ in res)
    report(capsys, label, f" (k=10^4, n=10^5: {elapsed:.1f}s; soft bound 10s)")


def test_criterion_6_algebra_soundness(corpus, capsys):
    label = "criterion 6 (algebra soundness)"
    with failing_reports(capsys, label):
        for instances in corpus.values():
            for g, _, _, _, _ in instances:
                tree = build_parse_tree(
                    balance(heuristic_decomposition(g), g), g)
                assert hypergraph_matches_graph(evaluate_hypergraph(tree), g)
                feats = ({vertex(v) for v in range(1, g.n + 1)}
                         | {edge(i) for i in range(1, g.m + 1)})
                leaves = introducer(tree)
                assert set(leaves) == feats
                for fid, leaf in leaves.items():
                    assert leaf.feature == fid
    report(capsys, label, " (isomorphic reconstruction, unique introducers)")


def _random_tuple(rng, k):
    vals = sorted(rng.randint(-50, 50) for _ in range(rng.randint(0, k)))
    return tuple(vals) + (INF,) * (k - len(vals))


def test_criterion_7_structure_laws(capsys):
    label = "criterion 7 (evaluation-structure laws)"
    with failing_reports(capsys, label):
        rng = random.Random(7)
        trials = 100_000
        for _ in range(trials):
            k = rng.randint(1, 4)
            a, b, c = (_random_tuple(rng, k) for _ in range(3))
            st = TopKStructure(k)
            merge, combine = st.merge, st.combine
            assert merge(merge(a, b), c) == merge(a, merge(b, c))
            assert merge(a, b) == merge(b, a)
            assert merge(a, st.merge_identity) == a
            assert combine(combine(a, b), c) == combine(a, combine(b, c))
            assert combine(a, st.combine_identity) == a
            if k == 2:
                sums = sorted(x + y for x in a for y in b
                              if x is not INF and y is not INF)
                sums += [INF, INF]
                assert combine(a, b) == (sums[0], sums[1])
    report(capsys, label, f" ({trials} random tuples incl. infinities)")


def test_criterion_8_direct_cross_check(corpus, capsys):
    label = "criterion 8 (direct evaluation cross-check)"
    with failing_reports(capsys, label):
        for problem, instances in corpus.items():
            for g, s, t, ref, got in instances:
                for k_fixed in (1, 2, 4, 8):
                    direct = k_best_direct(g, problem, k_fixed, s=s, t=t)
                    assert direct == [v for v, _ in got][:k_fixed]
    report(capsys, label, " (k in {1,2,4,8} over the full corpus)")


def test_criterion_9_automaton_contract(capsys):
    label = "criterion 9 (automaton contract on all graphs with <= 4 edges)"
    with failing_reports(capsys, label):
        rng = random.Random(9)
        graphs = 0
        for n in (1, 2, 3, 4):
            pairs = [(i, j) for i in range(1, n + 1)
                     for j in range(i, n + 1)]
            for m in range(0, 5):
                for combo in combinations_with_replacement(pairs, m):
                    g = make_graph(n, list(combo),
                                   [rng.randint(-5, 9) for _ in combo])
                    tree = build_parse_tree(
                        balance(heuristic_decomposition(g), g), g)
                    graphs += 1
                    for problem in ("simple-path", "spanning-tree",
                                    "perfect-matching", "vertex-cover"):
                        s, t = (1, n) if problem == "simple-path" else (None,
                                                                        None)
                        if problem == "simple-path" and n == 1:
                            continue
                        automaton = builtin(problem, g, s, t)
                        acc = accumulate(tree, automaton)  # asserts no dups
                        got = set(acc[tree.root.nid].get(
                            automaton.root_state(), []))
                        pred, kind = oracle.predicate_for(problem, s, t)
                        want = {fs for _, fs in
                                oracle.enumerate_sorted(g, pred, kind)}
                        assert got == want, f"{problem} on {g.edges}"
    report(capsys, label, f" ({graphs} graphs, root families match oracle)")
