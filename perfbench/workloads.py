"""Seeded inputs, CLI command lines and the output checker of each workload.

Every input is generated here from a seed and written as ``.gr``/``.td``
text; the program under test only ever sees those files.  The graph families
are the path, cycle and 2 x L grid-strip shapes of the acceptance gate
(``_family`` in ``tests/test_acceptance.py``), with edge weights drawn
uniformly from 1..50.
"""
from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

from twkbest.core import load_graph, parse_feature
from twkbest.kbest import k_best_direct
from twkbest.oracle import is_simple_path, is_vertex_cover
from twkbest.treedec import load_td

WEIGHT_LO, WEIGHT_HI = 1, 50
# Length of the independent top-N reference each output prefix is held to.
REFERENCE_N = 16


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # "grid-strip", "cycle" or "path"
    n: int               # vertices
    k: int               # solutions asked for
    problem: str         # "simple-path" (s = 1, t = n) or "vertex-cover"
    pass_td: bool        # hand the family's own decomposition to --td
    feasible: int | None  # feasible solutions when fewer than k, else None

    @property
    def expected_lines(self) -> int:
        return self.k if self.feasible is None else min(self.k, self.feasible)


# Why each workload (the same reasons are in BENCHMARK.json):
# - ksp-grid: enumeration-bound.  Balancing the width-3 chain decomposition
#   gives width 11, and about 70% of the wall time is constrain re-evaluating
#   root-to-leaf copy paths over those state tables; this is where shorter
#   copy paths and a compact state encoding must show.
# - ksp-cycle: setup-bound.  Min-fill, balancing, a 16k-node parse tree and
#   the initial evaluation take nearly all the time; only 2 paths exist, so
#   enumeration stops at once and expansion-side changes should not move it.
# - vc-path: a second automaton with small subset states and cheap copies,
#   but every solution holds hundreds of vertices, so reconstruct reads much
#   of the persistent tree; a write-side gain that slows reads shows here.
#   The .gr format carries no vertex weights, so every cover has value 0.
WORKLOADS = {w.name: w for w in (
    Workload("ksp-grid", "grid-strip", 48, 60, "simple-path", True, None),
    Workload("ksp-cycle", "cycle", 2048, 10, "simple-path", False, 2),
    Workload("vc-path", "path", 1024, 40, "vertex-cover", False, None),
)}


def family(name: str, n: int, rng: random.Random):
    """(edges, weights, bags) of one acceptance-gate family; the bags form a
    chain decomposition (bag i adjacent to bag i + 1)."""
    if name == "path":
        edges = [(i, i + 1) for i in range(1, n)]
        bags = [(i, i + 1) for i in range(1, n)]
    elif name == "cycle":
        edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
        bags = [(1, i, i + 1) for i in range(1, n)]
    elif name == "grid-strip":
        half = n // 2
        edges = []
        for i in range(1, half + 1):
            edges.append((2 * i - 1, 2 * i))
            if i < half:
                edges.append((2 * i - 1, 2 * i + 1))
                edges.append((2 * i, 2 * i + 2))
        bags = [(2 * i - 1, 2 * i, 2 * i + 1, 2 * i + 2)
                for i in range(1, half)]
    else:
        raise ValueError(f"unknown family {name!r}")
    weights = [rng.randint(WEIGHT_LO, WEIGHT_HI) for _ in edges]
    return edges, weights, bags


def gr_text(n: int, edges, weights) -> str:
    lines = [f"p kbest {n} {len(edges)} 0"]
    lines += [f"e {a} {b} {w}" for (a, b), w in zip(edges, weights)]
    return "\n".join(lines) + "\n"


def td_text(n: int, bags) -> str:
    lines = [f"s td {len(bags)} {max(map(len, bags))} {n}"]
    lines += [f"b {i} " + " ".join(map(str, bag))
              for i, bag in enumerate(bags, 1)]
    lines += [f"{i} {i + 1}" for i in range(1, len(bags))]
    return "\n".join(lines) + "\n"


class Instance:
    """One generated input of a workload, written under ``directory``."""

    def __init__(self, workload: Workload, seed: int, index: int,
                 directory: str):
        self.workload = workload
        rng = random.Random(f"{workload.name}:{seed}:{index}")
        n = workload.n
        edges, self.weights, bags = family(workload.family, n, rng)
        stem = os.path.join(directory, f"{workload.name}-{seed}-{index}")
        self.gr_path = stem + ".gr"
        with open(self.gr_path, "w", encoding="utf-8") as fh:
            fh.write(gr_text(n, edges, self.weights))
        self.td_path = None
        if workload.pass_td:
            self.td_path = stem + ".td"
            with open(self.td_path, "w", encoding="utf-8") as fh:
                fh.write(td_text(n, bags))
        self.terminals = ((1, n) if workload.problem == "simple-path"
                          else (None, None))
        with open(self.gr_path, encoding="utf-8") as fh:
            self.graph = load_graph(fh.read())
        self.reference: list[int] | None = None

    def load_td(self):
        if self.td_path is None:
            return None
        with open(self.td_path, encoding="utf-8") as fh:
            return load_td(fh.read())

    def compute_reference(self) -> list[str]:
        """Top-N values by one direct evaluation with no persistence; returns
        the problems found with it (wrong length for the workload)."""
        s, t = self.terminals
        self.reference = list(k_best_direct(
            self.graph, self.workload.problem, REFERENCE_N, s=s, t=t,
            td=self.load_td()))
        want = min(REFERENCE_N, self.workload.feasible or REFERENCE_N)
        if len(self.reference) != want:
            return [f"reference has {len(self.reference)} values, "
                    f"expected {want}"]
        return []

    def argv(self, k: int, stats: bool = False) -> list[str]:
        """The CLI command line for this input, without the interpreter."""
        w = self.workload
        if w.problem == "simple-path":
            s, t = self.terminals
            args = ["ksp", "--graph", self.gr_path,
                    "--source", str(s), "--target", str(t)]
        else:
            args = ["solve", "--problem", w.problem, "--graph", self.gr_path]
        if self.td_path is not None:
            args += ["--td", self.td_path]
        args += ["-k", str(k), "--solutions"]
        if stats:
            args.append("--stats")
        return args

    def command(self, k: int, stats: bool = False) -> list[str]:
        return [sys.executable, "-m", "twkbest.cli"] + self.argv(k, stats)

    def weight_of(self, name: str) -> int:
        """Weight of a feature named as in the CLI output.  The .gr format
        carries no vertex weights, so every vertex weighs 0."""
        fid = parse_feature(name)
        return self.weights[fid.index - 1] if fid.kind == "e" else 0

    def feasible(self, names) -> bool:
        fs = frozenset(parse_feature(x) for x in names)
        if self.workload.problem == "simple-path":
            s, t = self.terminals
            return is_simple_path(self.graph, fs, s, t)
        return is_vertex_cover(self.graph, fs)

    def check_output(self, text: str, k: int) -> list[str]:
        """Problems in the stdout of one ``--solutions`` run with ``-k k``;
        an empty list means the output passes."""
        lines = text.splitlines()
        want = min(k, self.workload.expected_lines)
        if len(lines) != want:
            return [f"{len(lines)} lines, expected {want}"]
        try:
            rows = [json.loads(line) for line in lines]
            values = [row["value"] for row in rows]
            sets = [row["sets"] for row in rows]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unparsable output: {exc}"]
        problems = []
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append("values are not nondecreasing")
        prefix = min(k, REFERENCE_N)
        if values[:prefix] != self.reference[:prefix]:
            problems.append(f"first {prefix} values differ from the direct "
                            f"evaluation")
        seen = set()
        for pos, (value, sol) in enumerate(zip(values, sets)):
            if len(sol) != 1:
                problems.append(f"solution {pos}: {len(sol)} sets, expected 1")
                continue
            key = frozenset(sol[0])
            if key in seen:
                problems.append(f"solution {pos} repeats an earlier one")
            seen.add(key)
            if not self.feasible(sol[0]):
                problems.append(f"solution {pos} is infeasible")
            if sum(map(self.weight_of, sol[0])) != value:
                problems.append(f"solution {pos}: weights do not sum to "
                                f"{value}")
        return problems
