"""Tests of the benchmark itself; run with ``python -m pytest perfbench``."""
import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Instance  # noqa: E402
from twkbest import cli  # noqa: E402

TINY = {
    "ksp-grid": {"n": 12, "k": 6},
    "ksp-cycle": {"n": 16, "k": 10},
    "vc-path": {"n": 10, "k": 6},
}


def declared(kind):
    """name -> entry of one list in BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {entry["name"]: entry for entry in json.load(fh)[kind]}


def declared_units(kind):
    return {name: m["unit"] for name, m in declared(kind).items()}


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


def test_declared_workloads_exist():
    assert list(declared("workloads")) == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    result = run.end_to_end(tiny(name), 7, 0, str(tmp_path), lambda _: None)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert {m: u for m, (_, u) in result["metrics"].items()} == \
        declared_units("end_to_end")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name, tmp_path):
    result = run.traced(tiny(name), 7, 0, str(tmp_path), lambda _: None)
    assert result["correct"] and result["failed"] == 0
    assert {m: u for m, (_, u) in result["metrics"].items()} == \
        declared_units("per_layer")


def good_output(inst, k):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(inst.argv(k)) == 0
    return out.getvalue()


def set_line(lines, i, value=None, sets=None):
    row = json.loads(lines[i])
    if value is not None:
        row["value"] = value
    if sets is not None:
        row["sets"] = sets
    lines[i] = json.dumps(row)


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    inst = Instance(tiny("ksp-grid"), 3, 0, str(tmp_path_factory.mktemp("g")))
    assert inst.compute_reference() == []
    text = good_output(inst, 6)
    assert inst.check_output(text, 6) == []
    return inst, text.splitlines()


def first_rise(lines):
    values = [json.loads(line)["value"] for line in lines]
    i = next(i for i in range(len(values) - 1) if values[i] < values[i + 1])
    return i, values


def test_checker_rejects_swapped_values(grid_output):
    inst, lines = grid_output
    i, values = first_rise(lines)
    bad = list(lines)
    set_line(bad, i, value=values[i + 1])
    set_line(bad, i + 1, value=values[i])
    problems = inst.check_output("\n".join(bad), 6)
    assert f"solution {i}: weights do not sum to {values[i + 1]}" in problems


def test_checker_rejects_swapped_lines(grid_output):
    inst, lines = grid_output
    i, _ = first_rise(lines)
    bad = list(lines)
    bad[i], bad[i + 1] = bad[i + 1], bad[i]
    assert "values are not nondecreasing" in inst.check_output(
        "\n".join(bad), 6)


def test_checker_rejects_value_off_by_one(grid_output):
    inst, lines = grid_output
    bad = list(lines)
    last = json.loads(bad[-1])["value"]
    set_line(bad, 5, value=last + 1)
    problems = inst.check_output("\n".join(bad), 6)
    assert "first 6 values differ from the direct evaluation" in problems
    assert f"solution 5: weights do not sum to {last + 1}" in problems


def test_checker_rejects_repeat_infeasible_and_short(grid_output):
    inst, lines = grid_output
    repeated = lines[:1] + lines[:-1]
    assert "solution 1 repeats an earlier one" in inst.check_output(
        "\n".join(repeated), 6)
    broken = list(lines)
    sets = json.loads(broken[5])["sets"]
    set_line(broken, 5, sets=[sets[0][1:]])
    assert "solution 5 is infeasible" in inst.check_output(
        "\n".join(broken), 6)
    assert inst.check_output("\n".join(lines[:-1]), 6) == [
        "5 lines, expected 6"]


def test_refuses_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ksp-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0 and proc.stdout == ""
