"""Scale ladder: k shortest paths on grid strips of growing size.

Usage, from the root of a twkbest checkout:

  python3 tools/scale_ladder.py --label NAME [--sizes 1024 4096 16384 65536]
                                [--k 1000] [--seed 5] [--values-only]
                                [--out FILE]

Each rung is the 2 x (n/2) grid strip of the acceptance gate, drawn as
``perfbench/workloads.family("grid-strip", n, random.Random(seed))`` (the
same graph as ``_family`` in ``tests/test_acceptance.py``: edge weights
uniform in 1..50), on its own width-3 chain decomposition, with simple
paths from vertex 1 to vertex n.
It runs ``kbest.k_best`` to k values and their solutions under
``perfbench/tracing.py``'s tracer and reads the stage times, constrain
times, copies and tree sizes from it; the parse tree's counts are read
from its bags, which the tracer would expand into parse nodes.  Every
solution must be distinct, a simple 1-n path (``oracle.is_simple_path``)
and weigh its value; ``solutions_checked`` counts those checked, and the
first that fails is the rung's ``error``.  ``--values-only`` asks for the
values alone and checks no solution.  Criterion 5c's instance is
``--sizes 100000 --k 10000 --seed 55 --values-only``.

Every rung runs in a fresh Python process whose address space is capped at
``MAX_MB``.  A rung whose enumeration runs out of that memory keeps the
figures measured so far and an ``error``; a rung that fails otherwise is
recorded with its error alone.  The rungs are written as
JSON to ``--out`` (default ``BENCH_scale_NAME.json`` at the checkout root)
with the commit (see ``commit``), the Python version and the CPU count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (1 << 10, 1 << 12, 1 << 14, 1 << 16)
MAX_MB = 3072  # address-space cap of each rung's process


def grid_strip(n: int, seed: int):
    """The acceptance gate's grid strip and its chain decomposition."""
    from twkbest.core import WeightedGraph, edge
    from twkbest.treedec import TreeDecomposition
    from workloads import family

    edges, weights, bags = family("grid-strip", n, random.Random(seed))
    g = WeightedGraph(n=n, m=len(edges), directed=False, edges=tuple(edges),
                      weights={edge(i): w for i, w in enumerate(weights, 1)})
    td = TreeDecomposition({i: frozenset(b) for i, b in enumerate(bags, 1)},
                           {(i, i + 1) for i in range(1, len(bags))})
    return g, td


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_solutions(g, results) -> tuple[int, str | None]:
    """(solutions checked, the first fault or None): each solution of
    ``results`` must be new, a simple 1-n path, and weigh its value."""
    from twkbest.oracle import is_simple_path

    seen = set()
    for pos, (value, sol) in enumerate(results):
        if sol in seen:
            return pos, f"solution {pos} repeats an earlier one"
        if not is_simple_path(g, sol, 1, g.n):
            return pos, f"solution {pos} is not a simple 1-{g.n} path"
        if g.value(sol) != value:
            return pos, f"solution {pos} weighs {g.value(sol)}, not {value}"
        seen.add(sol)
    return len(results), None


def rung(n: int, k: int, seed: int, solutions: bool) -> dict:
    """One rung's figures: ``kbest.k_best`` to k values, and solutions
    unless told not to, under the perfbench tracer, which times the stages
    and every constrain and counts copies."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from twkbest import kbest
    from tracing import Tracer, installed

    class RungTracer(Tracer):
        rss_built = 0.0

        def _parsed(self, tree, *_):
            self.counts["algebra.nodes"] = tree.size
            self.counts["algebra.depth"] = tree.depth
            self.counts["algebra.max_order"] = tree.max_order

        def _evaluated(self, version, *args):
            super()._evaluated(version, *args)
            self.rss_built = peak_rss_mb()

    g, td = grid_strip(n, seed)
    tracer = RungTracer()
    results = error = None
    try:
        with installed(tracer):
            results = kbest.k_best(g, "simple-path", k, 1, n,
                                   want_solutions=solutions, td=td)
    except MemoryError:
        begun = sum(1 for span in tracer.spans
                    if span and span[0] == "persist.pivot_query")
        error = f"MemoryError in expansion {begun} of at most {k - 1}"
    seconds = defaultdict(float)
    for span in tracer.spans:
        if span:
            seconds[span[0]] += span[2] - span[1]
    counts, copied = tracer.counts, tracer.copied
    expansions = len(copied) // 2
    figures = {
        "n": n,
        "k": k,
        "seed": seed,
        "width": counts.get("treedec.width"),
        "balanced_depth": counts.get("treedec.depth"),
        "parse_depth": counts.get("algebra.depth"),
        "parse_nodes": counts.get("algebra.nodes"),
        "max_order": counts.get("algebra.max_order"),
        "states": counts.get("evaluation.states"),
        "balance_s": round(seconds["treedec.balance"], 3),
        "parse_s": round(seconds["algebra.build_parse_tree"], 3),
        "build_s": round(seconds["persist.initial_version"], 3),
        "expansions": expansions,
        "constrain_ms_per_expansion": round(
            1000 * seconds["persist.constrain"] / max(expansions, 1), 3),
        "copies_per_constrain": round(sum(copied) / max(len(copied), 1), 1),
        "max_copies": max(copied, default=0),
        "peak_rss_after_build_mb": round(tracer.rss_built, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    if results is not None:
        values = [v for v, _ in results]
        figures["values_sha256"] = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        if solutions:
            figures["solutions_checked"], error = check_solutions(g, results)
    if error:
        figures["error"] = error
    return figures


def run_rung(n: int, k: int, seed: int, solutions: bool) -> dict:
    """Run one rung in a child process under an address-space cap."""
    def cap():
        limit = MAX_MB * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--rung", str(n), "--k", str(k),
                           "--seed", str(seed)]
                          + ([] if solutions else ["--values-only"]),
                          capture_output=True, text=True, preexec_fn=cap)
    if proc.returncode == 0:
        return json.loads(proc.stdout.splitlines()[-1])
    lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
    return {"n": n, "k": k, "error": f"{lines[-1]} (address space capped at {MAX_MB} MB)"}


def commit() -> str | None:
    """HEAD, and when the tracked files differ from it, ``+diff-`` and the
    first 12 hex digits of the sha256 of ``git diff HEAD``: the code that
    ran, even before it is committed."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        diff = subprocess.run(["git", "-C", ROOT, "diff", "HEAD"],
                              capture_output=True)
    except OSError:
        return None
    sha = head.stdout.strip()
    if not sha or diff.returncode:
        return None
    if diff.stdout:
        sha += "+diff-" + hashlib.sha256(diff.stdout).hexdigest()[:12]
    return sha


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    ap.add_argument("--k", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=5,
                    help="seed of the strip's weights (criterion 5c: 55)")
    ap.add_argument("--values-only", action="store_true",
                    help="ask for values alone; check no solution")
    ap.add_argument("--out")
    ap.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(rung(args.rung, args.k, args.seed,
                              not args.values_only)))
        return 0
    if args.label is None and args.out is None:
        ap.error("give --label or --out")
    rungs = []
    for n in args.sizes:
        rungs.append(run_rung(n, args.k, args.seed, not args.values_only))
        print(json.dumps(rungs[-1]), flush=True)
    result = {
        "label": args.label,
        "commit": commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "max_mb": MAX_MB,
        "rungs": rungs,
    }
    out = args.out or os.path.join(ROOT, f"BENCH_scale_{args.label}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if all("error" not in r for r in rungs) else 1


if __name__ == "__main__":
    sys.exit(main())
