"""The engine reads the parse tree by bags and never makes a ``ParseNode``:
only reading ``ParseTree.nodes``, ``root`` or ``introducer`` does."""
import random

from twkbest import algebra
from twkbest.evaluation import Evaluator
from twkbest.kbest import k_best, k_best_direct, prepare
from twkbest.treedec import heuristic_decomposition

from test_acceptance import _family
from test_crosscheck import PROBLEMS, random_multigraph


class _Refused:
    def __init__(self, *args):
        raise AssertionError("a ParseNode was made")


def test_the_engine_makes_no_parse_node(monkeypatch):
    """The engine reads the parse tree by bags: with ``ParseNode`` refused,
    ``k_best`` (values, and with solutions), ``k_best_direct`` and the
    relevance pass run on the families on their chain and min-fill
    decompositions, and on seeded multigraphs with self-loops and parallel
    edges in both orientations, for all four problems.  Then, unrefused,
    each of those trees still expands."""
    cases = []
    for name in ("path", "cycle", "grid-strip"):
        for n in (16, 64):
            g, td = _family(name, n, random.Random(n))
            for problem in PROBLEMS:
                s, t = (1, n) if problem == "simple-path" else (None, None)
                for d in (td, heuristic_decomposition(g)):
                    cases.append((g, problem, s, t, d))
    rng = random.Random("no parse node")
    for problem in PROBLEMS:
        for i in range(12):
            g, s, t = random_multigraph(rng, problem, weights=(-3, 3))
            g = g._replace(directed=i % 2 == 1)
            cases.append((g, problem, s, t, heuristic_decomposition(g)))
    trees = []
    with monkeypatch.context() as patch:
        patch.setattr(algebra, "ParseNode", _Refused)
        for g, problem, s, t, td in cases:
            values = [v for v, _ in k_best(g, problem, 8, s=s, t=t, td=td)]
            solved = k_best(g, problem, 8, s=s, t=t, td=td,
                            want_solutions=True)
            assert [v for v, _ in solved] == values
            assert all(g.value(sol) == v for v, sol in solved)
            assert k_best_direct(g, problem, 8, s=s, t=t, td=td) == values
            tree, automaton = prepare(g, problem, s, t, td)
            Evaluator(automaton)._compute_relevant(tree)
            trees.append((tree, g))
    for tree, g in trees:
        assert len(tree.nodes) == tree.size
        assert len(tree.introducer) == g.n + g.m
