"""End-to-end tests of the command-line interface."""
import json
import os
import random
import re
import subprocess
import sys

import pytest

import twkbest.cli
from twkbest.cli import main
from twkbest.core import load_graph
from twkbest.treedec import heuristic_decomposition, save_td

from test_treedec import renumbered

# A file the CLI leaves open fails the test instead of only warning.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)

K3 = "p kbest 3 3 0\ne 1 2 1\ne 2 3 1\ne 3 1 5\n"
P3 = "p kbest 3 2 0\ne 1 2 1\ne 2 3 1\n"
K3_TD = "s td 2 3 3\nb 1 1 2 3\nb 2 1 3\n1 2\n"
K3_TD_BROKEN = "s td 2 2 3\nb 1 1 2\nb 2 1 3\n1 2\n"


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.gr"
    p.write_text(K3)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_ksp_values(k3_file, capsys):
    code, out, _ = run(capsys, "ksp", "--graph", k3_file,
                       "--source", "1", "--target", "3", "-k", "2")
    assert code == 0
    assert out == "2\n5\n"


def test_ksp_solutions_json(k3_file, capsys):
    code, out, _ = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                       "--target", "3", "-k", "2", "--solutions")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"value": 2, "sets": [["e1", "e2"]]}
    assert rows[1] == {"value": 5, "sets": [["e3"]]}


def test_ksp_more_than_available_reports_exhaustion(k3_file, capsys):
    code, out, err = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                         "--target", "3", "-k", "5", "--stats")
    assert code == 0
    assert out == "2\n5\n"
    assert "exhausted after 2" in err
    assert float(re.search(r" peak_rss_mb=(\S+)\n", err).group(1)) > 0


def test_solve_spanning_tree(k3_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", k3_file,
                       "--problem", "spanning-tree", "-k", "3")
    assert code == 0
    assert out == "2\n6\n6\n"


def test_solve_direct_k(k3_file, capsys):
    code, out, _ = run(capsys, "solve", "--graph", k3_file,
                       "--problem", "spanning-tree", "--direct-k", "2")
    assert code == 0
    assert out == "2\n6\n"


def test_infeasible_matching(tmp_path, capsys):
    p = tmp_path / "p3.gr"
    p.write_text(P3)
    code, out, err = run(capsys, "solve", "--graph", str(p),
                         "--problem", "perfect-matching", "-k", "3", "--stats")
    assert code == 0
    assert out == ""
    assert "infeasible" in err


def test_oracle_check_passes(k3_file, capsys):
    code, _, _ = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                     "--target", "3", "-k", "2", "--oracle-check")
    assert code == 0


def test_oracle_check_fails_on_short_output(tmp_path, capsys, monkeypatch):
    """Too few values are a mismatch: the 2 x 12 strip has >= 50 paths."""
    e = ([(2 * i - 1, 2 * i) for i in range(1, 13)]
         + [(v, v + 2) for v in range(1, 23)])
    p = tmp_path / "strip2x12.gr"
    p.write_text(f"p kbest 24 {len(e)} 0\n" + "".join(
        f"e {a} {b} {(3 * a + b) % 7 + 1}\n" for a, b in e))
    k_best = twkbest.cli.k_best
    monkeypatch.setattr(twkbest.cli, "k_best",
                        lambda *a, **kw: k_best(*a, **kw)[:5])
    code, out, err = run(capsys, "ksp", "--graph", str(p), "--source", "1",
                         "--target", "24", "-k", "50", "--oracle-check")
    assert code == 3
    assert out.count("\n") == 5
    assert err.startswith("oracle mismatch:")


def test_directed_override(k3_file, capsys):
    # Directed, only the forward orientation remains: 1->2->3 is the sole path.
    code, out, _ = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                       "--target", "3", "-k", "3", "--directed-override", "1")
    assert code == 0
    assert out == "2\n"


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "ksp", "--graph", str(tmp_path / "nope.gr"),
                       "--source", "1", "--target", "2", "-k", "1")
    assert code == 1
    assert "error:" in err


def test_malformed_graph_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.gr"
    p.write_text("p kbest 2 1 0\ne 1 5 3\n")
    code, _, err = run(capsys, "ksp", "--graph", str(p),
                       "--source", "1", "--target", "2", "-k", "1")
    assert code == 1
    assert "error:" in err


def test_bad_parameters_exit_2(k3_file, capsys):
    code, _, _ = run(capsys, "ksp", "--graph", k3_file,
                     "--source", "1", "--target", "1", "-k", "1")
    assert code == 2
    code, _, _ = run(capsys, "ksp", "--graph", k3_file,
                     "--source", "1", "--target", "9", "-k", "1")
    assert code == 2
    code, _, _ = run(capsys, "ksp", "--graph", k3_file,
                     "--source", "1", "--target", "3", "-k", "0")
    assert code == 2


def test_weight_overflow_exits_2(tmp_path, capsys):
    p = tmp_path / "big.gr"
    p.write_text("p kbest 3 2 0\ne 1 2 9223372036854775807\ne 2 3 1\n")
    code, out, err = run(capsys, "ksp", "--graph", str(p),
                         "--source", "1", "--target", "3", "-k", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oracle_check_too_large_exits_2(tmp_path, capsys):
    """A 30-vertex path, then the 24-vertex 2 x 12 strip."""
    rungs = [(2 * i - 1, 2 * i) for i in range(1, 13)]
    rails = [(v, v + 2) for v in range(1, 23)]
    for name, n, edges in (("path30", 30, [(i, i + 1) for i in range(1, 30)]),
                           ("strip2x12", 24, rungs + rails)):
        p = tmp_path / f"{name}.gr"
        p.write_text(f"p kbest {n} {len(edges)} 0\n"
                     + "".join(f"e {a} {b} 1\n" for a, b in edges))
        code, out, err = run(capsys, "solve", "--graph", str(p), "--problem",
                             "vertex-cover", "-k", "2", "--oracle-check")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_overflow_of_unreported_candidate_is_ignored(tmp_path, capsys):
    p = tmp_path / "big.gr"
    p.write_text("p kbest 3 3 0\ne 1 2 9223372036854775807\ne 2 3 5\n"
                 "e 1 3 1\n")
    code, out, err = run(capsys, "ksp", "--graph", str(p),
                         "--source", "1", "--target", "3", "-k", "1")
    assert (code, out, err) == (0, "1\n", "")


def test_overflow_only_of_a_reported_value_exits_2(tmp_path, capsys):
    big = 2**62
    p = tmp_path / "multi.gr"
    p.write_text(f"p kbest 3 4 0\ne 1 2 0\ne 1 2 {big}\ne 2 3 0\n"
                 f"e 2 3 {big}\n")
    argv = ("solve", "--graph", str(p), "--problem", "spanning-tree")
    code, out, _ = run(capsys, *argv, "-k", "3")
    assert code == 0
    assert out == f"0\n{big}\n{big}\n"
    code, out, err = run(capsys, *argv, "-k", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_oracle_check_ignores_overflow_of_an_unreported_candidate(
        tmp_path, capsys):
    big = 2**62
    p = tmp_path / "multi.gr"
    p.write_text(f"p kbest 3 4 0\ne 1 2 0\ne 1 2 {big}\ne 2 3 0\n"
                 f"e 2 3 {big}\n")
    argv = ("solve", "--graph", str(p), "--problem", "spanning-tree",
            "--oracle-check")
    code, out, err = run(capsys, *argv, "-k", "3")
    assert (code, out, err) == (0, f"0\n{big}\n{big}\n", "")
    code, out, err = run(capsys, *argv, "-k", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_direct_k_with_solutions_rejected_before_solving(
        k3_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the parameter check")

    monkeypatch.setattr("twkbest.cli.k_best_direct", refuse)
    code, out, err = run(capsys, "solve", "--graph", k3_file, "--problem",
                         "spanning-tree", "--direct-k", "2", "--solutions")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_direct_k_with_stats_rejected_before_solving(
        k3_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before the parameter check")

    monkeypatch.setattr("twkbest.cli.k_best_direct", refuse)
    code, out, err = run(capsys, "solve", "--graph", k3_file, "--problem",
                         "spanning-tree", "--direct-k", "2", "--stats")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_bag_vertex_outside_graph_exits_4(tmp_path, capsys):
    gr = tmp_path / "p3.gr"
    gr.write_text(P3)
    td = tmp_path / "phantom.td"
    td.write_text("s td 2 3 3\nb 1 1 2 99\nb 2 2 3\n1 2\n")
    files = ("--graph", str(gr), "--td", str(td))
    for argv in (("validate",), ("balance",),
                 ("ksp", "--source", "1", "--target", "3", "-k", "2"),
                 ("solve", "--problem", "vertex-cover", "-k", "6",
                  "--solutions")):
        code, out, err = run(capsys, argv[0], *files, *argv[1:])
        assert code == 4, argv
        assert "vertex 99 outside 1..3" in out + err


def test_tree_edge_to_undeclared_bag_exits_4(tmp_path, capsys):
    gr = tmp_path / "p2.gr"
    gr.write_text("p kbest 2 1 0\ne 1 2 1\n")
    td = tmp_path / "dangling.td"
    td.write_text("s td 1 2 2\nb 1 1 2\n1 5\n")
    files = ("--graph", str(gr), "--td", str(td))
    for argv in (("validate",), ("balance",),
                 ("ksp", "--source", "1", "--target", "2", "-k", "2"),
                 ("solve", "--problem", "vertex-cover", "-k", "2")):
        code, out, err = run(capsys, argv[0], *files, *argv[1:])
        assert code == 4, argv
        assert "tree edge (1,5) references unknown bag" in out + err


def test_balance_unwritable_output_exits_1(tmp_path, k3_file, capsys):
    td = tmp_path / "k3.td"
    td.write_text(K3_TD)
    code, out, err = run(capsys, "balance", "--graph", k3_file, "--td",
                         str(td), "-o", str(tmp_path / "missing" / "out.td"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "s td 2 2 3\nb\n",
    "s td 1 3 3\nb x 1 2 3\n",
    "s td a 3 3\nb 1 1 2 3\n",
    "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 y\n",
], ids=["bag-without-id", "bag-id", "header", "tree-edge"])
def test_malformed_td_exits_1(tmp_path, k3_file, capsys, text):
    td = tmp_path / "bad.td"
    td.write_text(text)
    files = ("--graph", k3_file, "--td", str(td))
    for argv in (("validate",), ("balance",),
                 ("ksp", "--source", "1", "--target", "3", "-k", "2"),
                 ("solve", "--problem", "vertex-cover", "-k", "2")):
        code, out, err = run(capsys, argv[0], *files, *argv[1:])
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: line ") and err.count("\n") == 1


def test_oracle_check_on_a_path_longer_than_the_recursion_limit(
        tmp_path, capsys):
    p = tmp_path / "path1200.gr"
    p.write_text("p kbest 1200 1199 0\n"
                 + "".join(f"e {i} {i + 1} 1\n" for i in range(1, 1200)))
    code, out, err = run(capsys, "ksp", "--graph", str(p), "--source", "1",
                         "--target", "1200", "-k", "2", "--oracle-check")
    assert code == 0, err
    assert out == "1199\n"


# Expected --solutions output among tied values, pinned so that the order in
# which tied solutions come out cannot drift.
PATH12 = "p kbest 12 11 0\n" + "".join(f"e {i} {i + 1} 1\n"
                                      for i in range(1, 12))
STRIP_2X6 = ("p kbest 12 16 0\n"
             + "".join(f"e {i} {i + 1} 1\n" for i in (1, 2, 3, 4, 5))
             + "".join(f"e {i} {i + 1} 1\n" for i in (7, 8, 9, 10, 11))
             + "".join(f"e {i} {i + 6} 1\n" for i in range(1, 7)))
# The same strip directed, with edge 2i - 1 the i-th edge of STRIP_2X6 and
# edge 2i its reverse: paths from 2 to 11 may run against the column order.
DSTRIP_2X6 = ("p kbest 12 32 1\n"
              + "".join(f"e {u} {v} 1\ne {v} {u} 1\n" for u, v in
                        (ln.split()[1:3] for ln in STRIP_2X6.splitlines()[1:])))
K4 = ("p kbest 4 6 0\ne 1 2 1\ne 1 3 1\ne 1 4 1\ne 2 3 1\ne 2 4 1\n"
      "e 3 4 1\n")
TIE_GOLDEN = [
    (PATH12, ("solve", "--problem", "vertex-cover", "-k", "6"), [
        (0, "v1 v3 v5 v6 v8 v10 v12"),
        (0, "v1 v3 v5 v6 v8 v10 v11"),
        (0, "v1 v3 v5 v6 v8 v10 v11 v12"),
        (0, "v1 v3 v5 v6 v8 v9 v10 v12"),
        (0, "v1 v3 v5 v6 v8 v9 v11 v12"),
        (0, "v1 v3 v5 v6 v8 v9 v11"),
    ]),
    (STRIP_2X6, ("ksp", "--source", "1", "--target", "12", "-k", "8"), [
        (6, "e1 e2 e3 e4 e5 e16"),
        (6, "e1 e2 e3 e4 e10 e15"),
        (6, "e1 e2 e3 e9 e10 e14"),
        (6, "e6 e7 e8 e9 e10 e11"),
        (6, "e1 e7 e8 e9 e10 e12"),
        (6, "e1 e2 e8 e9 e10 e13"),
        (8, "e2 e3 e4 e5 e6 e11 e12 e16"),
        (8, "e2 e3 e6 e9 e10 e11 e12 e14"),
    ]),
    (DSTRIP_2X6, ("ksp", "--source", "2", "--target", "11", "-k", "8"), [
        (4, "e3 e5 e7 e29"),
        (4, "e3 e5 e17 e27"),
        (4, "e13 e15 e17 e23"),
        (4, "e3 e15 e17 e25"),
        (6, "e5 e13 e17 e23 e26 e27"),
        (6, "e3 e5 e7 e9 e20 e31"),
        (6, "e3 e7 e15 e25 e28 e29"),
        (6, "e2 e11 e13 e15 e17 e21"),
    ]),
    (K4, ("solve", "--problem", "spanning-tree", "-k", "5"), [
        (3, "e2 e3 e4"),
        (3, "e1 e3 e4"),
        (3, "e1 e2 e3"),
        (3, "e2 e4 e5"),
        (3, "e1 e4 e5"),
    ]),
]


@pytest.mark.parametrize("text,argv,rows", TIE_GOLDEN,
                         ids=["vc-path12", "ksp-strip2x6", "ksp-dstrip2x6",
                              "st-k4"])
def test_tie_order_golden(tmp_path, capsys, text, argv, rows):
    p = tmp_path / "g.gr"
    p.write_text(text)
    code, out, _ = run(capsys, argv[0], "--graph", str(p), *argv[1:],
                       "--solutions")
    assert code == 0
    want = "".join(json.dumps({"value": v, "sets": [names.split()]}) + "\n"
                   for v, names in rows)
    assert out == want


# 2 x 24 grid strip (vertices 2i - 1, 2i in column i) and its width-3 chain
# decomposition, which balances to width 7.
STRIP_2X24 = ("p kbest 48 70 0\n"
              + "".join(f"e {2 * i - 1} {2 * i} 1\n" for i in range(1, 25))
              + "".join(f"e {v} {v + 2} 1\n" for v in range(1, 47)))
STRIP_2X24_TD = ("s td 23 4 48\n"
                 + "".join(f"b {i} {2 * i - 1} {2 * i} {2 * i + 1} {2 * i + 2}\n"
                           for i in range(1, 24))
                 + "".join(f"{i} {i + 1}\n" for i in range(1, 23)))


def test_strip_2x24_balances_to_width_7(tmp_path, capsys):
    """Each new bag takes the adhesions of its boundary bags, not the whole
    bags (whole bags gave width 11 here)."""
    (tmp_path / "g.gr").write_text(STRIP_2X24)
    (tmp_path / "g.td").write_text(STRIP_2X24_TD)
    code, out, _ = run(capsys, "balance", "--graph", str(tmp_path / "g.gr"),
                       "--td", str(tmp_path / "g.td"))
    assert code == 0
    assert int(re.match(r"width=(\d+) ", out).group(1)) <= 7


def test_strip_2x24_order_at_most_8(tmp_path, capsys):
    """Forgetting each vertex once no part left to join holds it keeps the
    balanced strip's parse tree at order <= 8 (10 when every vertex of a
    bag lived to the gadget's last join)."""
    (tmp_path / "g.gr").write_text(STRIP_2X24)
    (tmp_path / "g.td").write_text(STRIP_2X24_TD)
    code, _, err = run(capsys, "ksp", "--graph", str(tmp_path / "g.gr"),
                       "--td", str(tmp_path / "g.td"), "--source", "1",
                       "--target", "48", "-k", "1", "--stats")
    assert code == 0
    assert int(re.search(r" max_order=(\d+) ", err).group(1)) <= 8


@pytest.mark.parametrize("text,argv,td", [
    (PATH12, ("solve", "--problem", "vertex-cover"), None),
    (STRIP_2X6, ("ksp", "--source", "1", "--target", "12"), None),
    (STRIP_2X24, ("ksp", "--source", "1", "--target", "48"), STRIP_2X24_TD),
    (DSTRIP_2X6, ("ksp", "--source", "2", "--target", "11"), None),
], ids=["vc-path12", "ksp-strip2x6", "ksp-strip2x24-td", "ksp-dstrip2x6"])
def test_solutions_identical_across_hash_seeds(tmp_path, text, argv, td):
    """Set iteration order depends on the per-process string hash seed; the
    output must not.  The wide case's simple-path states hold the salted
    strings 'p' and 'h', so it checks the build pass's own state order."""
    p = tmp_path / "g.gr"
    p.write_text(text)
    if td is not None:
        (tmp_path / "g.td").write_text(td)
        argv += ("--td", str(tmp_path / "g.td"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(twkbest.cli.__file__)))
    outs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "twkbest.cli", argv[0], "--graph", str(p),
             *argv[1:], "-k", "40", "--solutions"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_solutions_identical_across_bag_numberings(tmp_path, capsys):
    """A .td with its bag ids times 1000 is the same decomposition, so
    --solutions and the parse tree's counters must not change: balance
    takes a split's parts smallest bag id first."""
    rng = random.Random(4)
    for i in range(30):
        n = rng.randint(8, 30)
        edges = [(rng.randint(1, n), rng.randint(1, n), rng.randint(1, 3))
                 for _ in range(rng.randint(n, 2 * n))]
        text = f"p kbest {n} {len(edges)} 0\n" + "".join(
            f"e {t} {h} {w}\n" for t, h, w in edges)
        (tmp_path / "g.gr").write_text(text)
        td = heuristic_decomposition(load_graph(text))
        (tmp_path / "dense.td").write_text(save_td(td, n))
        (tmp_path / "sparse.td").write_text(save_td(renumbered(td, 1000), n))
        for argv in (("ksp", "--source", "1", "--target", str(n)),
                     ("solve", "--problem", "vertex-cover")):
            got = []
            for name in ("dense.td", "sparse.td"):
                code, out, err = run(capsys, *argv, "--graph", str(tmp_path / "g.gr"),
                                     "--td", str(tmp_path / name), "-k", "30",
                                     "--solutions", "--stats")
                assert code == 0, err
                counters = re.search(r"depth=\d+ max_order=\d+ states=\d+", err)
                got.append((out, counters.group()))
            assert got[0] == got[1], (i, argv)


@pytest.mark.parametrize("n,k,read", [(3, 2, 0), (1024, 40, 100)],
                         ids=["flushed-at-exit", "mid-output"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, n, k, read):
    """The reader closes the pipe early: at once, so the few bytes of a
    small run fail only when stdout is flushed at exit, or after 100 of
    the about 140 KB that vertex cover on a 1024-vertex path prints, more
    than a pipe holds."""
    p = tmp_path / "g.gr"
    p.write_text(f"p kbest {n} {n - 1} 0\n"
                 + "".join(f"e {i} {i + 1} 1\n" for i in range(1, n)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(twkbest.cli.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "twkbest.cli", "solve", "--problem",
             "vertex-cover", "--graph", str(p), "-k", str(k), "--solutions"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert (code, err) == (1, "error: stdout closed before the output was "
                              "written\n")


def test_supplied_td_is_used(tmp_path, k3_file, capsys):
    td = tmp_path / "k3.td"
    td.write_text(K3_TD)
    code, out, _ = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                       "--target", "3", "-k", "2", "--td", str(td))
    assert code == 0
    assert out == "2\n5\n"


def test_invalid_td_exits_4(tmp_path, k3_file, capsys):
    td = tmp_path / "broken.td"
    td.write_text(K3_TD_BROKEN)
    code, _, err = run(capsys, "ksp", "--graph", k3_file, "--source", "1",
                       "--target", "3", "-k", "2", "--td", str(td))
    assert code == 4
    assert err


@pytest.mark.parametrize("argv", [
    ("ksp", "--source", "1", "--target", "99", "-k", "2"),
    ("ksp", "--source", "1", "--target", "3", "-k", "0"),
    ("solve", "--problem", "simple-path", "--source", "0", "--target", "3"),
    ("solve", "--problem", "vertex-cover", "--direct-k", "2", "--solutions"),
    ("solve", "--problem", "vertex-cover", "-k", "2", "--oracle-check"),
    ("balance",),
], ids=["bad-target", "k0", "bad-source-no-k", "direct-k-solutions",
        "oracle-check", "balance"])
def test_invalid_td_is_reported_before_any_other_fault(tmp_path, k3_file,
                                                       capsys, argv):
    """An invalid --td exits 4 with its violations alone on stderr, even
    when the run has another fault (pinned before the solver's own
    validation of a --td was dropped)."""
    td = tmp_path / "broken.td"
    td.write_text(K3_TD_BROKEN)
    code, out, err = run(capsys, argv[0], "--graph", k3_file, "--td", str(td),
                         *argv[1:])
    assert (code, out, err) == (
        4, "", "edge e2=(2,3) has no bag containing both endpoints\n")


def test_a_valid_td_is_validated_once(tmp_path, k3_file, capsys,
                                      monkeypatch):
    """A run checks its --td once, then the balanced decomposition once."""
    import twkbest.treedec
    checked = []
    real = twkbest.treedec.validate

    def counted(td, g):
        checked.append(td)
        return real(td, g)

    monkeypatch.setattr(twkbest.treedec, "validate", counted)
    monkeypatch.setattr(twkbest.cli, "validate", counted)
    td = tmp_path / "k3.td"
    td.write_text(K3_TD)
    for argv in (("ksp", "--source", "1", "--target", "3", "-k", "2"),
                 ("balance",)):
        checked.clear()
        code, _, _ = run(capsys, argv[0], "--graph", k3_file, "--td", str(td),
                         *argv[1:])
        assert code == 0
        assert len(checked) == len({id(x) for x in checked}) == 2, argv


def test_balance_prints_width_depth(tmp_path, k3_file, capsys):
    td = tmp_path / "k3.td"
    td.write_text(K3_TD)
    out_td = tmp_path / "balanced.td"
    code, out, _ = run(capsys, "balance", "--graph", k3_file,
                       "--td", str(td), "-o", str(out_td))
    assert code == 0
    assert out.startswith("width=") and " depth=" in out
    # Round trip: the written decomposition is itself valid input.
    code2, out2, _ = run(capsys, "validate", "--graph", k3_file,
                         "--td", str(out_td))
    assert code2 == 0
    assert out2.startswith("valid width=")


def test_validate_reports_violations(tmp_path, k3_file, capsys):
    td = tmp_path / "broken.td"
    td.write_text(K3_TD_BROKEN)
    code, out, _ = run(capsys, "validate", "--graph", k3_file, "--td", str(td))
    assert code == 4
    assert "e3" in out or "no bag" in out


def test_validate_ok(tmp_path, k3_file, capsys):
    td = tmp_path / "k3.td"
    td.write_text(K3_TD)
    code, out, _ = run(capsys, "validate", "--graph", k3_file, "--td", str(td))
    assert code == 0
    assert out.strip() == "valid width=2"
