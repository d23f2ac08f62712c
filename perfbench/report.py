"""Print every metric of every workload, end to end and per layer.

Usage, from the root of a twkbest checkout:

    python3 perfbench/report.py [--seed N]

Runs ``run.py`` once untraced and once traced for each workload named in
BENCHMARK.json, for its ``run_seconds`` each, one run at a time.  Exits
non-zero if any run fails or finds an incorrect output.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload["name"], "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and proc.returncode == 0 and bool(lines) \
                and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
