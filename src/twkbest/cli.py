"""Command-line front end.

Exit codes: 0 success; 1 I/O or format error; 2 invalid parameters, a
reported solution value outside the 64-bit range, or an instance too large
for --oracle-check; 3 oracle-check mismatch; 4 invalid tree decomposition.
A reader that closes stdout early (``... --solutions | head``) ends the run
with exit 1 and one line on stderr, with no traceback, also when the
output is only flushed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from .core import GraphFormatError, WeightOverflowError, load_graph
from .treedec import balance, load_td, save_td, validate
from .kbest import RunStats, k_best, k_best_direct
from .problems import BUILTIN_PROBLEMS

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARAMS = 2
EXIT_ORACLE_DIFF = 3
EXIT_BAD_TD = 4


def _common_flags(p: argparse.ArgumentParser, with_problem: bool):
    p.add_argument("--graph", required=True, help=".gr input file")
    if with_problem:
        p.add_argument("--problem", required=True, choices=BUILTIN_PROBLEMS)
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


def _load(args, violations_out):
    """(graph, its validated --td or None, None), or (None, None, exit code)
    once the failure is reported: an I/O or format error on stderr, exit 1;
    an invalid decomposition's violations on violations_out, exit 4."""
    try:
        g = load_graph(_read(args.graph))
        override = getattr(args, "directed_override", None)
        if override is not None:
            g = g._replace(directed=bool(override))
        td = None if args.td is None else load_td(_read(args.td))
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, EXIT_IO
    if td is not None:
        report = validate(td, g)
        if not report.ok:
            for line in report.violations:
                print(line, file=violations_out)
            return None, None, EXIT_BAD_TD
    return g, td, None


def _emit(results, want_solutions: bool, out):
    """One line per result.  Each feature's name and integer sort key (its
    tuple order: rank, then an index below 2^64) are made once per run, not
    once per solution holding it."""
    key: dict = {}
    name: dict = {}
    for value, sol in results:
        if want_solutions:
            for f in sol:
                if f not in key:
                    key[f] = f.rank << 64 | f.index
                    name[f] = repr(f)
            row = sorted(sol, key=key.__getitem__)
            sets = [list(map(name.__getitem__, row))]
            print(json.dumps({"value": value, "sets": sets}), file=out)
        else:
            print(value, file=out)


def _oracle_values(g, problem, s, t):
    """The oracle's values in order, or None once an instance too large for
    it is reported.  Only this mode imports the oracle."""
    from . import oracle
    try:
        pred, kind = oracle.predicate_for(problem, s, t)
        if problem == "simple-path" and g.m > 22:
            ref = oracle.enumerate_paths(g, s, t)
        else:
            ref = oracle.enumerate_sorted(g, pred, kind)
    except oracle.OracleCapExceeded as exc:
        print(f"error: instance too large for --oracle-check: {exc}",
              file=sys.stderr)
        return None
    return [v for v, _ in ref]


def _run_solver(args, problem: str) -> int:
    g, td, code = _load(args, sys.stderr)
    if code is not None:
        return code

    k = args.k
    s, t = args.source, args.target
    try:
        direct_k = getattr(args, "direct_k", None)
        if direct_k is None and (k is None or k < 1):
            raise ValueError("k must be a positive integer")
        if direct_k is not None and (args.solutions or args.stats):
            raise ValueError("--solutions and --stats are unavailable in "
                             "--direct-k mode")
        if args.oracle_check:
            want = _oracle_values(g, problem, s, t)
            if want is None:
                return EXIT_PARAMS
        stats = RunStats()
        t0 = time.perf_counter()
        if direct_k is not None:
            values = k_best_direct(g, problem, direct_k, s=s, t=t, td=td)
            results = [(v, None) for v in values]
        else:
            results = k_best(g, problem, k, s=s, t=t,
                             want_solutions=args.solutions, td=td, stats=stats)
        elapsed = time.perf_counter() - t0
    except (ValueError, WeightOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    _emit(results, args.solutions, sys.stdout)

    if args.stats:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"stats: depth={stats.tree_depth} max_order={stats.max_order} "
              f"states={stats.state_count} expansions={stats.expansions} "
              f"max_copies={stats.max_copies} time={elapsed:.3f}s "
              f"peak_rss_mb={rss_kib / 1024:.1f}",
              file=sys.stderr)
        print("stages: " + " ".join(f"{name}={stats.stage_s[name]:.3f}s"
                                    for name in stats.STAGES),
              file=sys.stderr)
        if stats.infeasible:
            print("stats: infeasible", file=sys.stderr)
        elif stats.exhausted_after is not None:
            print(f"stats: exhausted after {stats.exhausted_after}",
                  file=sys.stderr)

    if args.oracle_check:
        got = [v for v, _ in results]
        want = want[:k if direct_k is None else direct_k]
        if got != want:
            print(f"oracle mismatch: engine={got} oracle={want}",
                  file=sys.stderr)
            return EXIT_ORACLE_DIFF
    return EXIT_OK


def _run_balance(args) -> int:
    g, td, code = _load(args, sys.stderr)
    if code is not None:
        return code
    sd = balance(td, g)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(save_td(sd.to_tree_decomposition(), g.n))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    print(f"width={sd.width} depth={sd.depth}")
    return EXIT_OK


def _run_validate(args) -> int:
    _, td, code = _load(args, sys.stdout)
    if code is not None:
        return code
    print(f"valid width={td.width()}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to /dev/null, so that the flush at
        # exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written",
              file=sys.stderr)
        return EXIT_IO
    return code


def _dispatch(args) -> int:
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
