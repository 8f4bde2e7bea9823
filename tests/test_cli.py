import contextlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdomsim
from rdomsim import CSV_HEADER, experiments, gen_cycle, read_graph, write_graph
from rdomsim import cli
from rdomsim.cli import (EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, build_parser,
                         main)

from _support import reference_ids, spoilt


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _cli_env():
    """The environment for ``python -m rdomsim.cli`` in a child process."""
    src = str(Path(rdomsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# The expansion bound is the family's default f_r: 1 on a cycle, 3 on a
# subdivided K_4 and f on the tightness family.
@pytest.mark.parametrize("argv, n, m, girth, bound", [
    (["--family", "cycle", "--n", "11"], 11, 11, 11, 1),
    (["--family", "subdivided_k4", "--k", "2"], 16, 18, 9, 3),
    (["--family", "tightness", "--r", "1", "--f", "3"], 300, 324, 12, 3),
    (["--family", "path", "--n", "7"], 7, 6, "inf", 1),
    (["--family", "tree", "--n", "9", "--seed", "3"], 9, 8, "inf", 1),
])
def test_generate_writes_graph_and_sidecar(tmp_path, capsys, argv, n, m,
                                           girth, bound):
    out = tmp_path / "g.graph"
    code, stdout = run_cli(capsys, "generate", *argv, "-o", str(out))
    assert code == EXIT_OK
    g = read_graph(out)
    assert g.vertex_count == n and g.edge_count == m
    sidecar = json.loads((tmp_path / "g.graph.json").read_text())
    assert sidecar["family"] == argv[1]
    assert sidecar["girth"] == girth
    assert sidecar["expansion_bound"] == bound
    assert json.loads(stdout)["n"] == n
    # The sidecar is the spec as given plus n, girth and the bound.
    spec = {flag[2:]: value if flag == "--family" else int(value)
            for flag, value in zip(argv[::2], argv[1::2])}
    assert sidecar == spec | {"n": n, "girth": girth, "expansion_bound": bound}
    assert None not in sidecar.values()


@pytest.mark.parametrize("argv, key", [
    (["--family", "cycle", "--n", "11", "--k", "3"], "k"),
    (["--family", "path", "--n", "7", "--seed", "1"], "seed"),
    (["--family", "tree", "--n", "9", "--seed", "3", "--f", "2"], "f"),
    (["--family", "subdivided_k4", "--k", "2", "--n", "16"], "n"),
    (["--family", "tightness", "--f", "2", "--seed", "0"], "seed"),
    (["--family", "cycle", "--n", "11", "--r", "7"], "r"),
    (["--family", "path", "--n", "7", "--r", "1"], "r"),
    (["--family", "tree", "--n", "9", "--seed", "3", "--r", "2"], "r"),
    (["--family", "subdivided_k4", "--k", "2", "--r", "1"], "r"),
])
def test_generate_refuses_a_flag_the_family_does_not_read(tmp_path, capsys,
                                                          argv, key):
    out = tmp_path / "g.graph"
    code, stdout = run_cli(capsys, "generate", *argv, "-o", str(out))
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {
        "error": "bad_spec",
        "detail": f"family {argv[1]!r} does not read {key!r}"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "run"])
def test_family_flags_are_the_family_parameters(command):
    # One int flag per _FAMILIES parameter, read off the table; only run's
    # --r has a default, 1, the radius its checks use.
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    params = {key for params, _, _ in experiments._FAMILIES.values()
              for key in params}
    for key in params:
        actions = [action for action in sub._actions
                   if f"--{key}" in action.option_strings]
        assert len(actions) == 1, key
        assert actions[0].type is cli._int_arg
        assert actions[0].default == (
            1 if key == "r" and command == "run" else None)


def test_generate_tree_sidecar_reports_infinite_girth(tmp_path, capsys):
    out = tmp_path / "t.graph"
    code, _ = run_cli(capsys, "generate", "--family", "tree", "--n", "30",
                      "--seed", "2", "-o", str(out))
    assert code == EXIT_OK
    sidecar = json.loads((tmp_path / "t.graph.json").read_text())
    assert sidecar["girth"] == "inf"


def test_generate_rejects_bad_spec(tmp_path, capsys):
    code, stdout = run_cli(capsys, "generate", "--family", "cycle",
                           "--n", "2", "-o", str(tmp_path / "x"))
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


def test_run_rmds_cycle_passes(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "23",
                           "--r", "2", "--algo", "rmds")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["passed"] is True
    assert payload["report"]["rounds_executed"] == 5


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_run_writes_no_report_file(tmp_path, monkeypatch, capsys, flag):
    # run prints its report once, on stdout; suite --csv writes the CSV.
    monkeypatch.chdir(tmp_path)
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "11",
                           flag, "x")
    assert code == EXIT_ERROR
    assert stdout.count("\n") == 1
    assert json.loads(stdout)["error"] == "bad_spec"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n,r", [(2, 1), (4, 2)])
def test_run_rmds_on_one_cell_path_passes(capsys, n, r):
    # The whole path is one Voronoi cell, and rmds selects a vertex other
    # than the optimum's center; D_I ⊆ T is not judged in such a cell.
    code, stdout = run_cli(capsys, "run", "--family", "path", "--n", str(n),
                           "--r", str(r), "--algo", "rmds")
    assert code == EXIT_OK
    assert json.loads(stdout)["failures"] == []


def test_run_refuses_low_girth_without_override(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "5",
                           "--r", "2", "--algo", "rmds")
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "girth_premise"


def test_run_low_girth_override_executes(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "4",
                           "--r", "1", "--algo", "rmds", "--m", "0",
                           "--allow-low-girth")
    payload = json.loads(stdout)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    assert payload["report"]["checks"]["dominating"] is True


def test_run_cycle_is_with_trivial_d(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "25",
                           "--r", "1", "--algo", "cycle_is",
                           "--d-source", "trivial")
    assert code == EXIT_OK
    assert json.loads(stdout)["passed"] is True


def test_verify_dominating_and_independent(tmp_path, capsys):
    out = tmp_path / "c9.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "9",
            "-o", str(out))
    good = tmp_path / "good.txt"
    good.write_text("0 3 6\n")
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(good), "--r", "1",
                           "--check", "dominating")
    assert code == EXIT_OK and json.loads(stdout)["dominating"] is True

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(bad), "--r", "1", "--check", "both")
    payload = json.loads(stdout)
    assert code == EXIT_CHECK_FAILED
    assert payload["independent"] is False and payload["pass"] is False


def test_verify_set_size_counts_distinct_vertices(tmp_path, capsys):
    # A vertex listed three times is one vertex of the set.
    out = tmp_path / "c9.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "9",
            "-o", str(out))
    repeated = tmp_path / "repeated.txt"
    repeated.write_text("2 2 2\n")
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(repeated), "--check", "independent")
    assert code == EXIT_OK
    assert json.loads(stdout) == {"n": 9, "set_size": 1, "independent": True,
                                  "pass": True}


@pytest.mark.parametrize("content, detail", [
    ("x\n", "set file {}: token 1 is not a count or vertex ID: 'x'"),
    ("0 1.5\n3\n", "set file {}: token 2 is not a count or vertex ID: '1.5'"),
    ("0 99\n", "set file {}: vertex 99 out of range for n=11"),
    # The smallest vertex out of range is named.
    ("0 99 12 11\n", "set file {}: vertex 11 out of range for n=11"),
    # Only runs of digits name vertices: int() would read 1, 10 and 0.
    ("0 +1 1_0\n", "set file {}: token 2 is not a count or vertex ID: '+1'"),
    ("1_0\n", "set file {}: token 1 is not a count or vertex ID: '1_0'"),
    ("3 -0\n", "set file {}: token 2 is not a count or vertex ID: '-0'"),
    # A signed token is refused at its position, before any vertex out of
    # range.
    ("99 -0 -5\n", "set file {}: token 2 is not a count or vertex ID: '-0'"),
    ("0 \xff\n", "set file {}: token 2 is not a count or vertex ID: '\\xff'"),
    # More digits than int() converts, signed or not: the first 20 bytes
    # are shown, then the token's length.
    pytest.param("0 -" + "7" * 5000, "set file {}: token 2 is not a count or "
                 "vertex ID: '-" + "7" * 19 + "'\u2026 (5001 bytes)",
                 id="signed-5000-digits"),
    pytest.param("7" * 5000, "set file {}: token 1 is not a count or vertex "
                 "ID: '" + "7" * 20 + "'\u2026 (5000 bytes)", id="5000-digits")])
def test_verify_bad_set_file_is_bad_input(tmp_path, capsys, content, detail):
    out = tmp_path / "c11.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "11",
            "-o", str(out))
    s = tmp_path / "s.txt"
    s.write_bytes(content.encode("latin-1"))
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(s), "--r", "1")
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {"error": "bad_input",
                                  "detail": detail.format(s)}


def test_verify_long_token_gives_a_short_error_line(tmp_path, capsys,
                                                    monkeypatch):
    # '-' and 5000 digits: the line shows the token's first 20 bytes and its
    # length, not the whole token.
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "--family", "cycle", "--n", "11",
            "-o", "c.graph")
    with open("signed.set", "w", encoding="ascii") as fh:
        fh.write("-" + "7" * 5000 + "\n")
    code, stdout = run_cli(capsys, "verify", "--graph", "c.graph",
                           "--set", "signed.set", "--r", "1")
    assert code == EXIT_ERROR
    [line] = stdout.splitlines()
    assert len(line.encode()) < 200
    assert json.loads(line) == {
        "error": "bad_input",
        "detail": "set file signed.set: token 1 is not a count or vertex ID: "
                  "'-" + "7" * 19 + "'\u2026 (5001 bytes)"}


def test_verify_requires_r_for_domination(tmp_path, capsys):
    out = tmp_path / "c9.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "9",
            "-o", str(out))
    s = tmp_path / "s.txt"
    s.write_text("0\n")
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(s), "--check", "dominating")
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


@pytest.mark.parametrize("check", ["dominating", "both"])
@pytest.mark.parametrize("r", [[], ["--r", "0"]], ids=["no-r", "r0"])
def test_verify_judges_r_before_reading_any_file(tmp_path, capsys, check, r):
    missing = str(tmp_path / "missing")
    code, stdout = run_cli(capsys, "verify", "--graph", missing,
                           "--set", missing, "--check", check, *r)
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {
        "error": "bad_spec",
        "detail": "--r >= 1 is required for the dominating check"}


def test_verify_independent_check_refuses_r(tmp_path, capsys):
    out = tmp_path / "c9.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "9",
            "-o", str(out))
    s = tmp_path / "s.txt"
    s.write_text("0 3 6\n")
    code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                           "--set", str(s), "--check", "independent",
                           "--r", "2")
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {
        "error": "bad_spec",
        "detail": "--check independent does not read --r"}


def test_suite_custom_config(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"experiments": [
        {"family": "cycle", "n": 11, "r": 1, "algo": "rmds"},
        {"family": "cycle", "n": 15, "r": 1, "algo": "count"},
    ]}))
    csv_out = tmp_path / "suite.csv"
    code, stdout = run_cli(capsys, "suite", str(config), "--csv", str(csv_out))
    assert code == EXIT_OK
    summary = json.loads(stdout)
    assert summary == {"experiments": 2, "failed": 0, "failures": []}
    lines = csv_out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


def test_suite_empty_config_yields_header_only_csv(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text("[]")
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == CSV_HEADER


def test_suite_without_source_is_an_error(capsys):
    code, stdout = run_cli(capsys, "suite")
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


def test_suite_refuses_a_config_with_builtin(tmp_path, capsys, monkeypatch):
    def no_run(spec):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(experiments, "run_experiment", no_run)
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([{"family": "cycle", "n": 11}]))
    code, stdout = run_cli(capsys, "suite", str(config), "--builtin")
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {
        "error": "bad_spec",
        "detail": "pass either a config path or --builtin"}


def test_suite_refuses_an_empty_config_path(capsys, monkeypatch):
    # An empty path is a config argument given, so it does not combine
    # with --builtin, and alone it names no config.
    def no_run(spec):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(experiments, "run_experiment", no_run)
    for argv in (["suite", "", "--builtin"], ["suite", ""]):
        code, stdout = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert json.loads(stdout) == {
            "error": "bad_spec",
            "detail": "pass either a config path or --builtin"}


@pytest.mark.parametrize("content, detail", [
    (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte"),
    (b"{not json", "Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)"),
], ids=["not-utf-8", "not-json"])
def test_suite_unreadable_config_names_the_file(tmp_path, capsys, content,
                                                detail):
    config = tmp_path / "suite.json"
    config.write_bytes(content)
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {"error": "bad_input",
                                  "detail": f"config file {config}: {detail}"}


def test_graph_file_carries_no_f_r(tmp_path, capsys):
    # run --graph judges at f_r = 1 unless --f-r is given: a subdivided K_4
    # needs its sidecar's expansion_bound, 3, as its family run has.
    out = tmp_path / "k4.graph"
    run_cli(capsys, "generate", "--family", "subdivided_k4", "--k", "2",
            "-o", str(out))
    assert json.loads((tmp_path / "k4.graph.json").read_text())[
        "expansion_bound"] == 3
    code, stdout = run_cli(capsys, "run", "--graph", str(out), "--r", "1")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(stdout)
    assert payload["failures"] == ["quotient_bound", "t_bound"]
    assert payload["report"]["f_r"] == 1
    for argv in (["--graph", str(out), "--f-r", "3"],
                 ["--family", "subdivided_k4", "--k", "2"]):
        code, stdout = run_cli(capsys, "run", *argv, "--r", "1")
        assert code == EXIT_OK
        assert json.loads(stdout)["report"]["f_r"] == 3


def test_run_on_graph_file(tmp_path, capsys):
    out = tmp_path / "c11.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "11",
            "-o", str(out))
    code, stdout = run_cli(capsys, "run", "--graph", str(out), "--r", "1",
                           "--f-r", "1")
    assert code == EXIT_OK
    assert json.loads(stdout)["passed"] is True


def test_run_spider_exceeds_one_plus_r_f(tmp_path, capsys):
    # Three legs of four edges from centre 12.  At r = 1 rmds selects 10
    # vertices against an optimum of 4: a ratio of 2.5, above the
    # 1 + r*f_r = 2 the tightness family reaches and under the bound of 5.
    edges = [(0, 2), (0, 3), (1, 5), (1, 8), (3, 11), (4, 6), (4, 7),
             (5, 10), (7, 9), (9, 12), (10, 12), (11, 12)]
    spider = tmp_path / "spider.graph"
    spider.write_text("13 12\n" + "".join(f"{u} {v}\n" for u, v in edges))
    code, stdout = run_cli(capsys, "run", "--graph", str(spider), "--r", "1")
    assert code == EXIT_OK
    report = json.loads(stdout)["report"]
    assert report["opt_source"] == "exact"
    assert (report["opt_size"], report["alg_size"]) == (4, 10)
    assert (report["ratio"], report["bound"]) == (2.5, 5)
    assert all(ok is True for ok in report["checks"].values())


@pytest.mark.parametrize("command, argv, detail", [
    ("run", ["--graph", "c23.graph", "--family", "path", "--r", "1"],
     "family 'path' does not read 'graph'"),
    ("run", ["--family", "cycle", "--n", "11", "--graph", ""],
     "family 'cycle' does not read 'graph'"),
    ("generate", ["--graph", "c23.graph", "--family", "path", "-o", "x.graph"],
     "family 'path' does not read 'graph'"),
    ("run", ["--graph", ""], "family 'file' needs 'graph', a file path"),
    ("generate", ["--graph", "c23.graph", "--r", "1", "-o", "x.graph"],
     "family 'file' does not read 'r'"),
])
def test_graph_with_a_family_or_empty_is_bad_spec(tmp_path, monkeypatch,
                                                  capsys, command, argv,
                                                  detail):
    # --graph names the file family only when no --family is given; the
    # file exists, so only the spec can be at fault.
    monkeypatch.chdir(tmp_path)
    run_cli(capsys, "generate", "--family", "cycle", "--n", "23",
            "-o", "c23.graph")
    before = sorted(tmp_path.iterdir())
    code, stdout = run_cli(capsys, command, *argv)
    assert code == EXIT_ERROR
    assert stdout.count("\n") == 1
    assert json.loads(stdout) == {"error": "bad_spec", "detail": detail}
    assert sorted(tmp_path.iterdir()) == before


def test_run_without_family_parameter_is_bad_spec(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle")
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {"error": "bad_spec",
                                  "detail": "family 'cycle' needs parameter 'n'"}


@pytest.mark.parametrize("argv, error", [
    (["--family", "tree", "--n", "5"], "bad_spec"),
    (["--family", "cycle", "--n", "2"], "bad_spec"),
    (["--family", "tightness", "--f", "1"], "bad_spec"),
    (["--graph", "missing.graph"], "bad_input"),
    (["--family", "cycle", "--n", "abc"], "bad_spec"),
    (["--family", "nope", "--n", "5"], "bad_spec"),
    (["--family", "cycle", "--n", "11", "--bogus"], "bad_spec"),
    # r above n: the same balls as r = n, only more rounds.
    (["--family", "tree", "--n", "5", "--seed", "0", "--r", "6"], "bad_spec"),
])
def test_run_invalid_instance_exits_2_with_json(tmp_path, monkeypatch,
                                                capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    code, stdout = run_cli(capsys, "run", *argv)
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == error


# One past the 2**20-vertex limit: n itself, 4 + 6k vertices for
# subdivided_k4 and 4f + 8rf^2 + 8rf^3 for tightness.
@pytest.mark.parametrize("argv, count", [
    (["--family", "cycle", "--n", "1048577", "--r", "1"], 1048577),
    (["--family", "path", "--n", "1048577", "--r", "1"], 1048577),
    (["--family", "tree", "--n", "1048577", "--seed", "0", "--r", "1"],
     1048577),
    (["--family", "subdivided_k4", "--k", "174763", "--r", "1"], 1048582),
    (["--family", "tightness", "--r", "10923", "--f", "2"], 1048616),
])
def test_run_oversize_family_is_bad_spec_before_any_build(monkeypatch, capsys,
                                                          argv, count):
    def no_build(*args):
        raise AssertionError("a generator ran")

    for name in ("gen_cycle", "gen_path", "gen_random_tree", "gen_complete",
                 "subdivide", "gen_tightness"):
        monkeypatch.setattr(experiments, name, no_build)
    code, stdout = run_cli(capsys, "run", *argv)
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {
        "error": "bad_spec",
        "detail": f"family {argv[1]!r} would have {count} vertices, more "
                  f"than 1048576"}


def test_missing_subcommand_is_bad_spec_and_help_exits_0(capsys):
    code, stdout = run_cli(capsys)
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "usage: rdomsim run" in capsys.readouterr().out


def test_empty_graph_is_bad_input_for_run_and_verifies(tmp_path, capsys):
    empty, members = tmp_path / "empty.graph", tmp_path / "empty.set"
    empty.write_text("0 0\n")
    members.write_text("")
    code, stdout = run_cli(capsys, "run", "--graph", str(empty), "--r", "1")
    assert code == EXIT_ERROR
    assert json.loads(stdout) == {"error": "bad_input",
                                  "detail": "graph has no vertices"}
    code, stdout = run_cli(capsys, "verify", "--graph", str(empty),
                           "--set", str(members), "--r", "1")
    assert code == EXIT_OK
    assert json.loads(stdout)["pass"] is True


@pytest.mark.parametrize("header", ["-3 0", "1000000000 0"])
def test_bad_graph_header_is_bad_input_for_run_and_verify(tmp_path, capsys,
                                                          header):
    graph, members = tmp_path / "bad.graph", tmp_path / "empty.set"
    graph.write_text(header + "\n")
    members.write_text("")
    for argv in (["run", "--graph", str(graph), "--r", "1"],
                 ["verify", "--graph", str(graph), "--set", str(members),
                  "--r", "1"]):
        start = time.perf_counter()
        code, stdout = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ERROR
        assert len(stdout.splitlines()) == 1
        assert json.loads(stdout)["error"] == "bad_input"


def test_graph_token_that_is_not_an_integer_is_bad_input(tmp_path, capsys):
    graph = tmp_path / "bad.graph"
    graph.write_text("2 1\n0 x\n")
    code, stdout = run_cli(capsys, "run", "--graph", str(graph), "--r", "1")
    assert code == EXIT_ERROR
    assert len(stdout.splitlines()) == 1
    assert json.loads(stdout) == {
        "error": "bad_input",
        "detail": f"graph file {graph}: token 4 is not a count or vertex ID: "
                  "'x'"}


@pytest.mark.parametrize("content, i, tok", [
    (b"2 1\n0 \xe9\n", 4, "'\\xe9'"),
    (b"7" * 5000 + b" 1\n0 1\n", 1, "'" + "7" * 20 + "'\u2026 (5000 bytes)"),
    (b"2 1\n0 " + b"7" * 5000 + b"\n", 4, "'" + "7" * 20 + "'\u2026 (5000 bytes)"),
], ids=["not-ascii", "5000-digit-header", "5000-digit-body"])
def test_graph_token_refusal_names_file_and_position(tmp_path, capsys,
                                                     content, i, tok):
    graph, members = tmp_path / "bad.graph", tmp_path / "empty.set"
    graph.write_bytes(content)
    members.write_text("")
    for argv in (["run", "--graph", str(graph), "--r", "1"],
                 ["verify", "--graph", str(graph), "--set", str(members),
                  "--r", "1"]):
        code, stdout = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        [line] = stdout.splitlines()
        assert json.loads(line) == {
            "error": "bad_input",
            "detail": f"graph file {graph}: token {i} is not a count or "
                      f"vertex ID: {tok}"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_fuzz_set_file_exits_cleanly_with_one_json_line(
        tmp_path_factory, data):
    # The set file's tokens are drawn as a graph file's are; 5 names no
    # vertex of C_5.
    tmp = tmp_path_factory.mktemp("verify")
    graph, members = tmp / "c5.graph", tmp / "s.txt"
    write_graph(gen_cycle(5), graph)
    ids = data.draw(st.lists(st.integers(0, 5), max_size=6))
    tokens = data.draw(spoilt([str(v).encode() for v in ids], 5))
    members.write_bytes(b" ".join(tokens))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--graph", str(graph), "--set", str(members),
                     "--r", "1"])
    [line] = out.getvalue().splitlines()
    payload = json.loads(line)
    ids = reference_ids(tokens)
    if ids is None or max(ids, default=0) >= 5:
        assert code == EXIT_ERROR
        assert payload["error"] == "bad_input"
    else:
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        assert payload["set_size"] == len(set(ids))


def test_suite_spec_without_family_parameter_is_bad_spec(tmp_path, capsys):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([{"family": "cycle", "r": 1}]))
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


@pytest.mark.parametrize("graph", [1, True])
def test_suite_non_string_graph_is_bad_spec(tmp_path, graph):
    # In a child process: open() takes an int (or a bool) as a file
    # descriptor, and in process fd 1 is the test runner's own.
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([{"family": "file", "graph": graph, "r": 1}]))
    proc = subprocess.run([sys.executable, "-m", "rdomsim.cli", "suite",
                           str(config)], capture_output=True, env=_cli_env(),
                          timeout=120)
    assert proc.returncode == EXIT_ERROR
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "bad_spec"


def _address_space_400_mb():
    resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_graph_file_with_no_line_end_is_bad_input(tmp_path, command):
    # /dev/zero has no line end: read whole, it would fill memory.  In a
    # child process with 400 MB of address space and a timeout, so that a
    # reader that tries ends in a MemoryError instead of exhausting the
    # test runner.
    members = tmp_path / "s.set"
    members.write_text("0 2\n")
    argv = ["--set", str(members), "--r", "1"] if command == "verify" else []
    proc = subprocess.run(
        [sys.executable, "-m", "rdomsim.cli", command, "--graph", "/dev/zero",
         *argv], capture_output=True, env=_cli_env(), timeout=60,
        preexec_fn=_address_space_400_mb)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    [line] = proc.stdout.splitlines()
    assert json.loads(line) == {
        "error": "bad_input",
        "detail": "graph file /dev/zero: line 1 must be the header 'n m' alone"}


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_endless_graph_body_or_set_file_is_bad_input(tmp_path, command):
    # A graph file's body or a set file of NUL bytes, read whole, would
    # fill memory: a header then 1 GiB of zeros, sparse on disk, and
    # /dev/zero.  Each is one token, refused at its position once it grows
    # past _MAX_HEADER_BYTES.  In a child process with 400 MB of address
    # space and a timeout, as above.
    zeros = tmp_path / "zeros.graph"
    with open(zeros, "wb") as fh:
        fh.write(b"2 1\n")
        fh.truncate(1 << 30)
    empty = tmp_path / "e.graph"
    empty.write_text("4 0\n")
    argv, where = {
        "run": (["--graph", str(zeros)], f"graph file {zeros}: token 3"),
        "verify": (["--graph", str(empty), "--set", "/dev/zero", "--r", "1"],
                   "set file /dev/zero: token 1")}[command]
    proc = subprocess.run(
        [sys.executable, "-m", "rdomsim.cli", command, *argv],
        capture_output=True, env=_cli_env(), timeout=60,
        preexec_fn=_address_space_400_mb)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    [line] = proc.stdout.splitlines()
    assert json.loads(line) == {
        "error": "bad_input",
        "detail": f"{where} is not a count or vertex ID: '" + "\\x00" * 20
                  + "'\u2026 (more than 65536 bytes)"}


def test_verify_reads_a_set_file_in_pieces(tmp_path, capsys, monkeypatch):
    # Across pieces, a token cut by a piece's end is one token, an ID seen
    # in two pieces is one member, tokens are counted from the file's start,
    # and the smallest ID out of range is named wherever it lies.
    out = tmp_path / "c11.graph"
    run_cli(capsys, "generate", "--family", "cycle", "--n", "11",
            "-o", str(out))
    s = tmp_path / "s.txt"
    for piece in (1, 3, 1 << 16):
        monkeypatch.setattr("rdomsim.graphs._PIECE_BYTES", piece)
        for content, check, expected in [
            ("2 " * 32767 + " 10 2 ", "independent",
             {"n": 11, "set_size": 2, "independent": True, "pass": True}),
            ("2 " * 40000 + "15 " + "4 " * 40000 + "13 9\n", "both",
             {"error": "bad_input",
              "detail": f"set file {s}: vertex 13 out of range for n=11"}),
            ("2 " * 40000 + "15 " + "4 " * 40000 + "13 x\n", "both",
             {"error": "bad_input",
              "detail": f"set file {s}: token 80003 is not a count or "
                        "vertex ID: 'x'"})]:
            s.write_text(content)
            argv = ["--r", "1"] if check == "both" else []
            code, stdout = run_cli(capsys, "verify", "--graph", str(out),
                                   "--set", str(s), "--check", check, *argv)
            assert json.loads(stdout) == expected, piece


def test_verify_missing_files_are_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    code, stdout = run_cli(capsys, "verify", "--graph", missing,
                           "--set", missing, "--r", "1")
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_input"


@pytest.mark.parametrize("content, error", [(None, "bad_input"),
                                            ("{not json", "bad_input"),
                                            ('{"runs": []}', "bad_spec"),
                                            ('[{"family": "bogus"}]',
                                             "bad_family")])
def test_suite_unreadable_or_malformed_config_exits_2(tmp_path, capsys,
                                                      content, error):
    config = tmp_path / "suite.json"
    if content is not None:
        config.write_text(content)
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == error


@pytest.mark.parametrize("m", ["99", "a,b", ","])
def test_run_bad_comparison_set_is_bad_spec(capsys, m):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "11",
                           "--r", "1", "--m", m)
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


@pytest.mark.parametrize("extra", [
    {"m": "7"}, {"m": []}, {"m": [0.5, None]}, {"m": {"0": 1}},
    {"f_r": "one"},
    # A non-boolean never turns off the girth guard; f_r is at least 1.
    {"n": 4, "allow_low_girth": "false", "m": [0]},
    {"allow_low_girth": 1}, {"allow_low_girth": None},
    # The algo is judged before the graph: C4 fails the girth premise.
    {"n": 4, "algo": "nope"},
    {"f_r": -3}, {"f_r": 0},
    # Booleans and floats are not integers.
    {"n": 11.7}, {"n": 11.0}, {"r": True}, {"f_r": 1.5}, {"f_r": True},
    {"m": [0.5]}, {"m": [0, 1.0]}, {"m": [False]},
    # Only the tightness family has a dominating set of its own.
    {"m": "family"},
    # r above n, before the girth premise C_11 would fail.
    {"r": 12},
    # m is read only by rmds, d_source only by cycle_is.
    {"algo": "count", "m": ["zz"]}, {"algo": "cycle_is", "m": "exact"},
    {"d_source": "bogus"}, {"algo": "count", "d_source": "rmds"}])
def test_suite_bad_m_or_f_r_is_bad_spec(tmp_path, capsys, extra):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([{"family": "cycle", "n": 11, "r": 1}
                                  | extra]))
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_ERROR
    assert json.loads(stdout)["error"] == "bad_spec"


#: Integer spellings that a graph file refuses: all but the last are ones
#: that int() takes; the last is a digit run longer than int() converts.
_NOT_INTEGERS = pytest.mark.parametrize(
    "text", ["1_1", " 11 ", "+11", "\u0661\u0661", "9" * 5000],
    ids=["underscore", "spaces", "plus", "arabic-indic", "5000-digits"])


@_NOT_INTEGERS
@pytest.mark.parametrize("family, field", [
    ("cycle", "n"), ("cycle", "r"), ("cycle", "f_r"), ("tree", "seed"),
    ("subdivided_k4", "k"), ("tightness", "f"), ("cycle", "m")])
def test_suite_integer_fields_take_only_digit_runs(tmp_path, capsys, text,
                                                   family, field):
    params = {"cycle": {"n": 11}, "tree": {"n": 9, "seed": 3},
              "subdivided_k4": {"k": 2}, "tightness": {"f": 2}}[family]
    spec = {"family": family, "r": 1} | params | {
        field: [0, text] if field == "m" else text}
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([spec]))
    code, stdout = run_cli(capsys, "suite", str(config))
    assert code == EXIT_ERROR
    [line] = stdout.splitlines()
    what = "each vertex ID in m" if field == "m" else field
    assert json.loads(line) == {
        "error": "bad_spec", "detail": f"{what} must be an integer, got {text!r}"}


@_NOT_INTEGERS
@pytest.mark.parametrize("argv", [
    ["run", "--family", "cycle", "--n"],
    ["run", "--family", "cycle", "--n", "11", "--r"],
    ["run", "--family", "cycle", "--n", "11", "--f-r"],
    ["run", "--family", "tree", "--n", "9", "--seed"],
    ["run", "--family", "subdivided_k4", "--k"],
    ["generate", "-o", "unwritten.graph", "--family", "tightness", "--f"],
    ["verify", "--graph", "g", "--set", "s", "--r"],
    ["run", "--family", "cycle", "--n", "11", "--m"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_integer_flags_take_only_digit_runs(capsys, text, argv):
    code, stdout = run_cli(capsys, *argv, f"0,{text}" if argv[-1] == "--m"
                           else text)
    assert code == EXIT_ERROR
    [line] = stdout.splitlines()
    detail = (f"each vertex ID in m must be an integer, got {text!r}"
              if argv[-1] == "--m"
              else f"argument {argv[-1]}: invalid int value: {text!r}")
    assert json.loads(line) == {"error": "bad_spec", "detail": detail}


@pytest.mark.parametrize("config", [
    "[" * 100_000 + "]" * 100_000,
    '[{"family": "cycle", "n": 11, "m": ' + "[" * 100_000 + "]" * 100_000
    + "}]"], ids=["config", "m"])
def test_suite_deeply_nested_config_is_bad_input(tmp_path, capsys, config):
    path = tmp_path / "suite.json"
    path.write_text(config)
    code, stdout = run_cli(capsys, "suite", str(path))
    assert code == EXIT_ERROR
    [line] = stdout.splitlines()
    assert json.loads(line)["error"] == "bad_input"


def test_run_non_dominating_comparison_set_fails(capsys):
    code, stdout = run_cli(capsys, "run", "--family", "cycle", "--n", "11",
                           "--r", "1", "--m", "0")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(stdout)
    assert payload["failures"] == ["opt_dominating"]
    assert payload["report"]["checks"]["opt_dominating"] is False


_M_TOKENS = st.one_of(st.integers(-3, 45).map(str),
                      st.sampled_from(["", "a", "1.5", " 2", "exact"]))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["cycle", "path", "tree", "subdivided_k4",
                               "tightness"]),
       n=st.integers(-2, 40), r=st.integers(-1, 6),
       seed=st.none() | st.integers(0, 3),
       algo=st.sampled_from(["rmds", "count", "cycle_is"]),
       m=st.none() | st.sampled_from(["exact", "family"])
       | st.lists(_M_TOKENS, min_size=1, max_size=4).map(",".join),
       allow_low_girth=st.booleans())
def test_run_fuzz_exits_cleanly_with_one_json_line(family, n, r, seed, algo,
                                                   m, allow_low_girth):
    argv = ["run", "--family", family, "--n", str(n), "--r", str(r),
            "--algo", algo]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if m is not None:
        argv.append(f"--m={m}")
    if allow_low_girth:
        argv.append("--allow-low-girth")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_ERROR)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_run_comparison_set_missing_a_component_fails_opt_dominating(
        tmp_path, capsys):
    # Two disjoint 11-cycles; m dominates only the first.
    two = tmp_path / "two.graph"
    edges = [(base + i, base + (i + 1) % 11) for base in (0, 11)
             for i in range(11)]
    two.write_text(f"22 {len(edges)}\n"
                   + "".join(f"{u} {v}\n" for u, v in edges))
    code, stdout = run_cli(capsys, "run", "--graph", str(two), "--r", "1",
                           "--m", "0,3,6,9")
    assert code == EXIT_CHECK_FAILED
    lines = stdout.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["failures"] == ["opt_dominating"]
    assert payload["report"]["checks"]["cells_tree"] is None


@pytest.mark.parametrize("argv", [
    ["suite", "{config}", "--csv", "{missing}/s.csv"],
    ["generate", "--family", "cycle", "--n", "11", "-o", "{missing}/c.graph"],
    ["generate", "--graph", "{missing}/in.graph", "-o", "{tmp}/c.graph"],
], ids=["suite-csv", "generate-output", "generate-graph"])
def test_unreadable_or_unwritable_path_is_bad_input(tmp_path, capsys, argv):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([{"family": "cycle", "n": 11, "r": 1}]))
    paths = {"missing": tmp_path / "missing", "config": config,
             "tmp": tmp_path}
    code, stdout = run_cli(capsys, *[arg.format(**paths) for arg in argv])
    assert code == EXIT_ERROR
    lines = stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "bad_input"


@pytest.mark.parametrize("argv", [
    ["run", "--family", "cycle", "--n", "11", "--r", "1"],
    ["suite", "--builtin"],
    ["run", "--family", "cycle", "--n", "abc"],
], ids=["run-report", "suite-csv", "run-error-line"])
def test_closed_stdout_exits_2_quietly(argv):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails, whichever line it is.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rdomsim.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_cli_env(), timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == b""


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # Every rdomsim line of the fenced block under README's "## Command
    # line" exits 0 with one JSON line, so the docs name no removed flag.
    # d.txt 2-dominates C_23 and is independent.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rdomsim ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "verify":
            (tmp_path / "d.txt").write_text("0 5 10 15 20\n")
        code, stdout = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, stdout)
        assert stdout.count("\n") == 1, argv
        json.loads(stdout)
