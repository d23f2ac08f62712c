"""Traced in-process run of the CLI.

The names that ``twkbest.cli`` and ``twkbest.kbest`` call into each layer are
rebound to wrappers for the length of one run, so the real ``k_best`` loop
runs unchanged.  Each wrapper records a span (name, start, end, parent) in
memory; counts read from a call's result are taken after its span closes and
recorded as ``trace.accounting`` spans, so they are never billed to a layer.
"""
from __future__ import annotations

import contextlib
import heapq
import io
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

from twkbest import cli, kbest

# Constrain calls whose copied nodes are sized for persist.kb_per_copied_node.
SIZED_CONSTRAINS = 6
# Fields an EvalNode owns; its parse node and children are shared, not copied.
_OWN_FIELDS = ("table", "ids", "chosen", "id_map", "pool", "state_sols")


def _sizes(roots) -> dict[int, int]:
    """id -> sys.getsizeof of every object reachable from roots through
    dicts, lists, tuples, sets and frozensets."""
    sizes: dict[int, int] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in sizes:
            continue
        sizes[id(obj)] = sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return sizes


def copy_bytes(old_node, new_node) -> int:
    """Bytes held by new_node and its own fields that old_node, the node it
    replaces, does not share."""
    old = _sizes([old_node] + [getattr(old_node, f) for f in _OWN_FIELDS])
    new = _sizes([new_node] + [getattr(new_node, f) for f in _OWN_FIELDS])
    return sum(size for key, size in new.items() if key not in old)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self._open: list[int] = []
        self.counts: dict[str, int] = {}
        self.copied: list[int] = []    # nodes copied by each constrain
        self.sized_nodes = 0
        self.sized_bytes = 0
        self.heap_peak = 0
        self.children_pushed = 0
        self._last_child = None

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if after is not None:
                start = perf_counter()
                after(result, *args)
                self.spans.append(("trace.accounting", start, perf_counter(),
                                   parent))
            return result
        return traced

    # Accounting hooks: (result, *call arguments) -> None.

    def _balanced(self, sd, *_):
        self.counts["treedec.width"] = sd.width
        self.counts["treedec.depth"] = sd.depth

    def _parsed(self, tree, *_):
        self.counts["algebra.nodes"] = len(tree.nodes)
        self.counts["algebra.depth"] = tree.depth
        self.counts["algebra.max_order"] = tree.max_order

    def _evaluated(self, version, *_):
        total = largest = 0
        seen = set()
        stack = [version.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            total += len(node.table)
            largest = max(largest, len(node.table))
            stack.extend(node.children)
        self.counts["evaluation.states"] = total
        self.counts["evaluation.states_max_node"] = largest

    def _constrained(self, child, parent, report, force):
        self.copied.append(child.copied_nodes)
        self._last_child = child
        if len(self.copied) > SIZED_CONSTRAINS:
            return
        fresh = child.root
        for i, (old, _, _) in enumerate(report.path):
            self.sized_bytes += copy_bytes(old, fresh)
            self.sized_nodes += 1
            if i + 1 < len(report.path):
                on_path = report.path[i + 1][0]
                fresh = fresh.children[0 if old.children[0] is on_path else 1]

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.heap_peak = max(self.heap_peak, len(heap))
        if item[-1] is self._last_child:
            self.children_pushed += 1


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind the layer entry points in twkbest.cli and twkbest.kbest."""
    rebinds = [
        (cli, "load_graph", "core.load_graph", None),
        (cli, "load_td", "treedec.load_td", None),
        (cli, "validate", "treedec.validate", None),
        (cli, "k_best", "kbest.k_best", None),
        (kbest, "prepare", "kbest.prepare", None),
        (kbest, "heuristic_decomposition", "treedec.heuristic_decomposition",
         None),
        (kbest, "balance", "treedec.balance", tracer._balanced),
        (kbest, "build_parse_tree", "algebra.build_parse_tree",
         tracer._parsed),
        (kbest, "builtin", "problems.builtin", None),
        (kbest, "initial_version", "persist.initial_version",
         tracer._evaluated),
        (kbest, "best_pair", "persist.best_pair", None),
        (kbest, "solution_at", "persist.solution_at", None),
        (kbest, "pivot_query", "persist.pivot_query", None),
        (kbest, "constrain", "persist.constrain", tracer._constrained),
    ]
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _, _ in rebinds]
    saved.append((kbest, "heapq", kbest.heapq))
    try:
        for module, attr, name, after in rebinds:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr),
                                              after))
        kbest.heapq = SimpleNamespace(heappush=tracer.heappush,
                                      heappop=heapq.heappop)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def run_traced(argv: list[str]) -> tuple[int, str, Tracer]:
    """Run ``twkbest.cli.main(argv)`` in this process under a fresh tracer;
    returns its exit code, its stdout and the tracer."""
    tracer = Tracer()
    out = io.StringIO()
    with installed(tracer), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), tracer


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def supported(count: int, q: float) -> bool:
    """At least ten samples lie beyond the q-quantile of count samples."""
    return math.floor(count * (1 - q) + 1e-9) >= 10


def layer_metrics(tracer: Tracer, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.  untraced_s is the duration of
    an untraced in-process k_best on the same inputs."""
    spans = tracer.spans
    durations = defaultdict(list)
    for name, start, end, _ in spans:
        durations[name].append(end - start)
    total = {name: sum(d) for name, d in durations.items()}
    ms = {name: [x * 1e3 for x in d] for name, d in durations.items()}

    root = next(i for i, span in enumerate(spans)
                if span[0] == "kbest.k_best")
    _, kb_start, kb_end, _ = spans[root]
    children = sum(end - start for _, start, end, parent in spans
                   if parent == root)
    accounting = sum(end - start for name, start, end, _ in spans
                     if name == "trace.accounting"
                     and kb_start <= start and end <= kb_end)

    out = {
        "core.load_s": total["core.load_graph"],
        "treedec.decompose_s": (total.get("treedec.heuristic_decomposition", 0)
                                + total.get("treedec.load_td", 0)
                                + total.get("treedec.validate", 0)),
        "treedec.balance_s": total["treedec.balance"],
        "algebra.parse_s": total["algebra.build_parse_tree"],
        "evaluation.build_s": total["persist.initial_version"],
    }
    out.update(tracer.counts)
    for op, span in (("constrain", "persist.constrain"),
                     ("pivot", "persist.pivot_query"),
                     ("reconstruct", "persist.solution_at")):
        samples = ms.get(span, [0.0])
        out[f"persist.{op}_ms_p50"] = percentile(samples, 0.5)
        out[f"persist.{op}_ms_p90"] = percentile(samples, 0.9)
    out["persist.constrain_s"] = total.get("persist.constrain", 0.0)
    out["persist.reconstruct_s"] = total["persist.solution_at"]
    constrains = max(len(tracer.copied), 1)
    out["persist.copied_per_constrain"] = sum(tracer.copied) / constrains
    out["persist.kb_per_copied_node"] = (
        tracer.sized_bytes / 1024 / max(tracer.sized_nodes, 1))
    out["kbest.expansions"] = len(durations["persist.pivot_query"])
    out["kbest.heap_peak"] = tracer.heap_peak
    out["kbest.useful_child_ratio"] = tracer.children_pushed / constrains
    out["kbest.driver_self_s"] = kb_end - kb_start - children
    out["trace.overhead_frac"] = (
        (kb_end - kb_start - accounting - untraced_s) / untraced_s)
    return out


def sample_counts(tracer: Tracer) -> dict[str, int]:
    """Number of timed calls behind each persist percentile."""
    calls = defaultdict(int)
    for name, _, _, _ in tracer.spans:
        calls[name] += 1
    return {"constrain": calls["persist.constrain"],
            "pivot": calls["persist.pivot_query"],
            "reconstruct": calls["persist.solution_at"]}
