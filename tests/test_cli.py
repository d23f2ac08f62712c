"""End-to-end tests of the command-line interface."""
import json

import pytest

from twkbest.cli import main

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
    p = tmp_path / "path30.gr"
    p.write_text("p kbest 30 29 0\n"
                 + "".join(f"e {i} {i + 1} 1\n" for i in range(1, 30)))
    code, out, err = run(capsys, "solve", "--graph", str(p), "--problem",
                         "vertex-cover", "-k", "2", "--oracle-check")
    assert code == 2
    assert out == "0\n0\n"
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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
