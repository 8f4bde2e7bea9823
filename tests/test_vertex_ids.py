"""One rule for a vertex ID, at every entry point that takes one: an ``int``
in 0..n-1, never a ``bool``.  Any other ID is refused with one text,
``vertex X out of range for n=N``, which a file or a spec field prefixes
with its own name."""

import json

import pytest

from rdomsim import (ExperimentError, GraphError, build_graph, distances,
                     gen_cycle, is_independent, is_r_dominating, read_graph,
                     run_experiment, voronoi_decompose, write_graph)
from rdomsim.cli import EXIT_ERROR, main

N = 11
G = gen_cycle(N)


def _raises(call):
    """An entry point that raises ``GraphError``: the refusal of
    ``call(bad, tmp_path)``."""
    def refusal(bad, tmp_path, capsys):
        with pytest.raises(GraphError) as info:
            call(bad, tmp_path)
        return str(info.value)
    return refusal


def _read_graph(bad, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(f"{N} 2\n0 1\n1 {bad}\n")
    read_graph(path)


def _verify(bad, tmp_path, capsys):
    graph, members = tmp_path / "c.graph", tmp_path / "s.set"
    write_graph(G, graph)
    members.write_text(f"2 {bad}\n")
    code = main(["verify", "--graph", str(graph), "--set", str(members),
                 "--r", "1"])
    [line] = capsys.readouterr().out.splitlines()
    error = json.loads(line)
    assert code == EXIT_ERROR and error["error"] == "bad_input"
    return error["detail"]


def _spec_m(bad, tmp_path, capsys):
    with pytest.raises(ExperimentError) as info:
        run_experiment({"family": "cycle", "n": N, "r": 1, "m": [2, bad]})
    assert info.value.reason == "bad_spec"
    return info.value.detail


#: The IDs out of range that each kind of entry point can be given.  A file
#: holds digit runs only, and a spec's ``m`` refuses a bool as no integer.
_BAD_IDS = {"file": (N, N + 5), "spec": (N, N + 5, -1),
            "api": (N, N + 5, -1, True, False)}
#: entry point -> (its refusal of ``bad`` passed beside valid IDs, its kind).
_ENTRY_POINTS = {
    "build_graph": (_raises(lambda bad, _: build_graph([(0, 1), (1, bad)], N)),
                    "api"),
    "Graph.neighbors": (_raises(lambda bad, _: G.neighbors(bad)), "api"),
    "distances": (_raises(lambda bad, _: distances(G, [2, bad])), "api"),
    "voronoi_decompose": (
        _raises(lambda bad, _: voronoi_decompose(G, [2, bad])), "api"),
    "is_r_dominating": (
        _raises(lambda bad, _: is_r_dominating(G, [2, bad], 1)), "api"),
    "is_independent": (
        _raises(lambda bad, _: is_independent(G, [2, bad])), "api"),
    "read_graph": (_raises(_read_graph), "file"),
    "rdomsim verify": (_verify, "file"),
    "spec m": (_spec_m, "spec"),
}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{bad!r}")
    for entry, (_, kind) in _ENTRY_POINTS.items() for bad in _BAD_IDS[kind]])
def test_every_entry_point_refuses_an_id_out_of_range(tmp_path, capsys,
                                                      entry, bad):
    refusal, _ = _ENTRY_POINTS[entry]
    assert refusal(bad, tmp_path, capsys).endswith(
        f"vertex {bad!r} out of range for n={N}")


def test_a_bool_is_no_vertex():
    # True == 1 and False == 0, and each hashes alike, so only the type
    # tells them from vertices 1 and 0.
    assert True not in G and False not in G
    assert 0 in G and 1 in G and N - 1 in G
    assert -1 not in G and N not in G and 1.0 not in G
