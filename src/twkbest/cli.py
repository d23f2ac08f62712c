"""Command-line front end.

Exit codes: 0 success; 1 I/O or format error; 2 invalid parameters, a
reported solution value outside the 64-bit range, or an instance too large
for --oracle-check; 3 oracle-check mismatch; 4 invalid tree decomposition.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

from .core import (GraphFormatError, WeightedGraph, WeightOverflowError,
                   load_graph)
from .treedec import balance, load_td, save_td, validate
from .kbest import RunStats, k_best, k_best_direct
from . import oracle

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_ORACLE_DIFF = 3
EXIT_BAD_TD = 4

PROBLEM_CHOICES = ("simple-path", "spanning-tree", "perfect-matching",
                   "vertex-cover")


def _common_flags(p: argparse.ArgumentParser, with_problem: bool):
    p.add_argument("--graph", required=True, help=".gr input file")
    if with_problem:
        p.add_argument("--problem", required=True, choices=PROBLEM_CHOICES)
        p.add_argument("--direct-k", type=int, metavar="N",
                       help="use the direct top-N evaluation instead of "
                            "best-first search (cross-check mode)")
    p.add_argument("--source", type=int, help="path source vertex")
    p.add_argument("--target", type=int, help="path target vertex")
    p.add_argument("-k", type=int, required=not with_problem,
                   default=None, help="number of solutions")
    p.add_argument("--td", help="tree decomposition file (.td); "
                               "default: heuristic decomposition")
    p.add_argument("--solutions", action="store_true",
                   help="emit one JSON object per solution")
    p.add_argument("--oracle-check", action="store_true",
                   help="diff output against brute-force enumeration")
    p.add_argument("--stats", action="store_true",
                   help="run statistics on stderr")
    p.add_argument("--directed-override", type=int, choices=(0, 1),
                   help="override the graph's directedness flag")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twkbest",
        description="k minimum-weight solutions of set-optimization problems "
                    "on bounded-treewidth graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    ksp = sub.add_parser("ksp", help="k shortest simple paths")
    _common_flags(ksp, with_problem=False)

    solve = sub.add_parser("solve", help="k best solutions of a built-in problem")
    _common_flags(solve, with_problem=True)

    bal = sub.add_parser("balance", help="balance a tree decomposition")
    bal.add_argument("--graph", required=True)
    bal.add_argument("--td", required=True)
    bal.add_argument("-o", "--output", help="write balanced .td here")

    val = sub.add_parser("validate", help="validate a tree decomposition")
    val.add_argument("--graph", required=True)
    val.add_argument("--td", required=True)
    return ap


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args) -> WeightedGraph:
    g = load_graph(_read(args.graph))
    override = getattr(args, "directed_override", None)
    if override is not None:
        g = replace(g, directed=bool(override))
    return g


def _load_td(args, g):
    if getattr(args, "td", None) is None:
        return None
    td = load_td(_read(args.td))
    report = validate(td, g)
    if not report.ok:
        for line in report.violations:
            print(line, file=sys.stderr)
        raise _BadTd()
    return td


class _BadTd(Exception):
    pass


def _emit(results, want_solutions: bool, out):
    for value, sol in results:
        if want_solutions:
            sets = [[repr(f) for f in sorted(s, key=lambda f: f.sort_key)]
                    for s in sol.sets]
            print(json.dumps({"value": value, "sets": sets}), file=out)
        else:
            print(value, file=out)


def _oracle_values(g, problem, s, t):
    pred, kind = oracle.predicate_for(problem, s, t)
    if problem == "simple-path" and g.m > 22:
        ref = oracle.enumerate_paths(g, s, t)
    else:
        ref = oracle.enumerate_sorted(g, pred, kind)
    return [v for v, _ in ref]


def _run_solver(args, problem: str) -> int:
    try:
        g = _load_graph(args)
        td = _load_td(args, g)
    except _BadTd:
        return EXIT_BAD_TD
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    k = args.k
    s, t = args.source, args.target
    try:
        direct_k = getattr(args, "direct_k", None)
        if direct_k is None and (k is None or k < 1):
            raise ValueError("k must be a positive integer")
        if direct_k is not None and args.solutions:
            raise ValueError("--solutions is unavailable in --direct-k mode")
        if args.oracle_check:
            want = _oracle_values(g, problem, s, t)
        stats = RunStats()
        t0 = time.perf_counter()
        if direct_k is not None:
            values = k_best_direct(g, problem, direct_k, s=s, t=t, td=td)
            results = [(v, None) for v in values]
        else:
            results = k_best(g, problem, k, s=s, t=t,
                             want_solutions=args.solutions, td=td, stats=stats)
        elapsed = time.perf_counter() - t0
    except oracle.OracleCapExceeded as exc:
        print(f"error: instance too large for --oracle-check: {exc}",
              file=sys.stderr)
        return EXIT_PARAMS
    except (ValueError, WeightOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    _emit(results, args.solutions, sys.stdout)

    if args.stats:
        print(f"stats: depth={stats.tree_depth} max_order={stats.max_order} "
              f"states={stats.state_count} expansions={stats.expansions} "
              f"max_copies={stats.max_copies} time={elapsed:.3f}s",
              file=sys.stderr)
        if stats.infeasible:
            print("stats: infeasible", file=sys.stderr)
        elif stats.exhausted_after is not None:
            print(f"stats: exhausted after {stats.exhausted_after}",
                  file=sys.stderr)

    if args.oracle_check:
        got = [v for v, _ in results]
        want = want[:len(got) or 1]
        if got != want:
            print(f"oracle mismatch: engine={got} oracle={want}",
                  file=sys.stderr)
            return EXIT_ORACLE_DIFF
    return EXIT_OK


def _run_balance(args) -> int:
    try:
        g = _load_graph(args)
        td = load_td(_read(args.td))
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = validate(td, g)
    if not report.ok:
        for line in report.violations:
            print(line, file=sys.stderr)
        return EXIT_BAD_TD
    sd = balance(td, g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(save_td(sd.to_tree_decomposition(), g.n))
    print(f"width={sd.width} depth={sd.depth}")
    return EXIT_OK


def _run_validate(args) -> int:
    try:
        g = _load_graph(args)
        td = load_td(_read(args.td))
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = validate(td, g)
    if report.ok:
        print(f"valid width={report.width}")
        return EXIT_OK
    for line in report.violations:
        print(line)
    return EXIT_BAD_TD


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ksp":
        if args.source is None or args.target is None:
            print("error: ksp requires --source and --target", file=sys.stderr)
            return EXIT_PARAMS
        return _run_solver(args, "simple-path")
    if args.command == "solve":
        return _run_solver(args, args.problem)
    if args.command == "balance":
        return _run_balance(args)
    return _run_validate(args)


if __name__ == "__main__":
    sys.exit(main())
