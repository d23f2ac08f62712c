"""Benchmark of the twkbest CLI: end-to-end samples and one traced run.

Usage, from the root of a twkbest checkout:

  python3 perfbench/run.py --workload ksp-grid --seed 1 --seconds 40 --trace 0

``--trace 0`` times fresh ``python -m twkbest.cli`` processes, one at a time,
until ``--seconds`` have passed.  Each sample is a ``-k 1`` run (setup_s:
load, decompose, balance, parse tree, initial evaluation and one
reconstruction) followed by the full ``-k K`` run (wall_s, and peak_rss_mb
from the child's ``ru_maxrss``).  Each sample has its own input, made from
the seed and the sample's index, so a run does not hinge on one draw of
weights; its reference values are computed before the sample.  Every
output is checked (see ``workloads.Instance.check_output``); a run that
fails or exits non-zero counts toward error_rate.

``--trace 1`` runs the CLI in this process with the layer entry points
wrapped (see ``tracing.py``) and reports per-layer metrics, as medians over
repetitions until ``--seconds`` have passed.  Its output must equal the
untraced CLI's byte for byte, and its counts must equal those printed by an
untraced ``--stats`` run.  Each repetition also times an untraced in-process
``k_best`` on the same input, which gives the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of the last traced
repetition are written to ``.perfbench/spans-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 60
STATS_LINE = re.compile(r"stats: depth=(\d+) max_order=(\d+) states=(\d+) "
                        r"expansions=(\d+) max_copies=(\d+)")


class CliRun:
    """One finished CLI process: exit code, wall time, peak RSS, output."""

    def __init__(self, command: list[str], env: dict, workdir: str):
        out_path = os.path.join(workdir, "stdout")
        err_path = os.path.join(workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=env)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024
        with open(out_path, encoding="utf-8") as fh:
            self.stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            self.stderr = fh.read()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def checked(run: CliRun, instance, k: int) -> list[str]:
    if run.code != 0:
        return [f"exit code {run.code}: {run.stderr.strip()[-200:]}"]
    return instance.check_output(run.stdout, k)


def end_to_end(workload, seed: int, seconds: float, workdir: str,
               log) -> dict:
    from workloads import Instance
    env = child_env()
    problems = []
    setup, wall, rss = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not wall or time.perf_counter() < deadline:
        inst = Instance(workload, seed, len(wall), workdir)
        reference_problems = inst.compute_reference()
        for k, sink in ((1, setup), (workload.k, wall)):
            run = CliRun(inst.command(k), env, workdir)
            sink.append(run.wall_s)
            if sink is wall:
                rss.append(run.rss_mb)
            attempted += 1
            found = reference_problems + checked(run, inst, k)
            if found:
                failed += 1
                problems += found
    for line in problems[:20]:
        log(f"  FAILED: {line}")
    metrics = {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    log(f"{workload.name} seed={seed}: {len(wall)} samples, one input each, "
        f"k={workload.k}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<14} median {value:.4f} {unit} (n={len(wall)})")
    log(f"  {'error_rate':<14} {failed / attempted:.4f} "
        f"({failed} of {attempted} CLI runs failed or were incorrect)")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# Per-layer metrics that are counts: they must repeat exactly.
EXACT = ("treedec.width", "treedec.depth", "algebra.nodes", "algebra.depth",
         "algebra.max_order", "evaluation.states",
         "evaluation.states_max_node", "persist.copied_per_constrain",
         "persist.kb_per_copied_node", "kbest.expansions", "kbest.heap_peak",
         "kbest.useful_child_ratio")
UNITS = {"_s": "s", "_p50": "ms", "_p90": "ms", "overhead_frac": "ratio",
         "useful_child_ratio": "ratio", "kb_per_copied_node": "KiB"}


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)),
                "count")


def traced(workload, seed: int, seconds: float, workdir: str, log) -> dict:
    from workloads import Instance
    import tracing
    from twkbest.kbest import RunStats, k_best

    deadline = time.perf_counter() + seconds
    inst = Instance(workload, seed, 0, workdir)
    problems = inst.compute_reference()
    base = CliRun(inst.command(workload.k, stats=True), child_env(), workdir)
    problems += checked(base, inst, workload.k)
    stats = STATS_LINE.search(base.stderr)
    if stats is None:
        problems.append("no stats line from --stats")
    if problems:
        for line in problems[:20]:
            log(f"  FAILED: {line}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    g, td = inst.graph, inst.load_td()
    s, t = inst.terminals

    def untraced():
        return k_best(g, workload.problem, workload.k, s=s, t=t,
                      want_solutions=True, td=td, stats=RunStats())

    # Each check is (what was compared, whether it held).  The first call is
    # untimed: it fills the program's process-wide caches, so both timed
    # calls below start warm.
    cli_values = [json.loads(line)["value"]
                  for line in base.stdout.splitlines()]
    checks = [("untraced CLI output", True),
              ("in-process k_best values equal the CLI's",
               [value for value, _ in untraced()] == cli_values)]
    reps = []
    while not reps or time.perf_counter() < deadline:
        gc.collect()
        start = time.perf_counter()
        untraced()
        untraced_s = time.perf_counter() - start
        gc.collect()
        code, text, tracer = tracing.run_traced(inst.argv(workload.k))
        checks.append(("traced output equals the CLI's",
                       code == 0 and text == base.stdout))
        reps.append(tracing.layer_metrics(tracer, untraced_s))

    metrics = {}
    for name in reps[0]:
        values = [rep[name] for rep in reps]
        if name in EXACT:
            checks.append((f"{name} repeats: {values}", len(set(values)) == 1))
        metrics[name] = (statistics.median(values), unit_of(name))
    want = dict(zip(("algebra.depth", "algebra.max_order",
                     "evaluation.states", "kbest.expansions", "max_copied"),
                    map(int, stats.groups())))
    got = {name: metrics[name][0] for name in list(want)[:4]}
    got["max_copied"] = max(tracer.copied, default=0)
    checks.append((f"traced counts {got} equal --stats {want}", got == want))

    log(f"{workload.name} seed={seed}: traced run, median of {len(reps)} "
        f"repetitions")
    calls = tracing.sample_counts(tracer)
    for name, (value, unit) in metrics.items():
        op, _, q = name.removeprefix("persist.").partition("_ms_")
        if q and not tracing.supported(calls[op], int(q[1:]) / 100):
            log(f"  {name:<30} n={calls[op]}: fewer than 10 beyond {q}")
        else:
            log(f"  {name:<30} {value:.6g} {unit}")
    failures = [what for what, ok in checks if not ok]
    for what in failures:
        log(f"  FAILED: {what}")
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}-{seed}.json")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([{"name": n, "start": a, "end": b, "parent": p}
                   for n, a, b, p in tracer.spans], fh)
    return {"correct": not failures, "attempted": len(checks),
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twkbest", "cli.py")):
        print("error: src/twkbest not found; run from the root of a twkbest "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = traced if args.trace else end_to_end
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         workdir, print)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
