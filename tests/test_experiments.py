import sys
import time

import pytest

from rdomsim import (ExperimentError, RmdsOutput, build_instance, distances,
                     gen_random_tree, run_experiment)
from rdomsim import experiments, graphs, oracles

R = 2


def _tree_levels_spec():
    # Vertices whose depth from 0 is a multiple of r+1 dominate at radius r.
    depth = distances(gen_random_tree(1000, 1), (0,))
    return {"family": "tree", "n": 1000, "seed": 1, "r": R, "algo": "rmds",
            "m": [v for v in sorted(depth) if depth[v] % (R + 1) == 0]}


@pytest.mark.parametrize("spec", [
    {"family": "cycle", "n": 1000, "r": R, "algo": "rmds",
     "m": list(range(0, 1000, 2 * R + 1))},
    _tree_levels_spec(),
], ids=["cycle1000", "tree1000"])
def test_mid_size_experiment_evaluates_every_check(spec):
    result = run_experiment(spec)
    assert result.passed, result.failures
    assert result.report.opt_source == "supplied"
    assert None not in result.report.checks.values(), result.report.checks


def _flip_one(field):
    """An rmds simulation with one vertex's ``field`` output changed."""
    simulate = experiments._simulate_rmds

    def simulate_flipped(g, r):
        sim = simulate(g, r)
        outputs = dict(sim.outputs)
        member, selected = outputs[0]
        outputs[0] = (RmdsOutput(not member, selected) if field == "member"
                      else RmdsOutput(member, (selected + 1) % g.vertex_count))
        return sim._replace(outputs=outputs)
    return simulate_flipped


@pytest.mark.parametrize("field", ["member", "selected"])
def test_selection_equiv_fails_on_either_half(monkeypatch, field):
    monkeypatch.setattr(experiments, "_simulate_rmds", _flip_one(field))
    result = run_experiment({"family": "cycle", "n": 11, "r": 1,
                             "algo": "rmds"})
    assert "selection_equiv" in result.failures


def test_count_equiv_fails_on_one_wrong_count(monkeypatch):
    # A tree meets the girth premise, so every count must be exact.
    simulate = experiments.run_simulation

    def simulate_off_by_one(g, program, **kwargs):
        sim = simulate(g, program, **kwargs)
        outputs = dict(sim.outputs)
        outputs[0] += 1
        return sim._replace(outputs=outputs)

    monkeypatch.setattr(experiments, "run_simulation", simulate_off_by_one)
    result = run_experiment({"family": "tree", "n": 30, "seed": 1, "r": 2,
                             "algo": "count"})
    assert result.failures == ["count_equiv"]


def test_count_experiment_never_builds_the_r_balls(monkeypatch):
    calls = []
    real = graphs.r_balls

    def counted(g, r):
        calls.append((g.vertex_count, r))
        return real(g, r)

    for name, module in list(sys.modules.items()):
        if name.startswith("rdomsim") and getattr(module, "r_balls",
                                                  None) is real:
            monkeypatch.setattr(module, "r_balls", counted)
    result = run_experiment({"family": "tree", "n": 50, "seed": 3, "r": 2,
                             "algo": "count"})
    assert result.passed
    assert calls == []


def test_failures_keep_the_check_order():
    # Subdivided K4 at f_r = 1 exceeds the quotient and boundary bounds.
    result = run_experiment({"family": "subdivided_k4", "k": 2, "r": 1,
                             "f_r": 1, "algo": "rmds"})
    assert result.failures == ["quotient_bound", "t_bound"]


def test_rmds_experiment_computes_each_r_ball_and_the_girth_once(monkeypatch):
    bfs, girths = [], []
    real_distances, real_girth = graphs.distances, graphs._compute_girth

    def counted_distances(g, sources, limit=None):
        sources = tuple(sources)
        bfs.append((sources, limit))
        return real_distances(g, sources, limit)

    def counted_girth(g):
        girths.append(g)
        return real_girth(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("rdomsim") and getattr(module, "distances",
                                                  None) is real_distances:
            monkeypatch.setattr(module, "distances", counted_distances)
    monkeypatch.setattr(graphs, "_compute_girth", counted_girth)
    result = run_experiment({"family": "tree", "n": 50, "seed": 3, "r": 1})
    assert result.passed and result.report.opt_source == "exact"
    # The exact solver and the selection oracle share one BFS per vertex.
    assert sorted(s for s, limit in bfs if len(s) == 1 and limit == 1) == [
        (v,) for v in range(50)]
    assert len(girths) == 1


@pytest.mark.parametrize("spec", [
    {"family": "tree", "n": 50, "seed": 3, "r": 1},
    {"family": "cycle", "n": 11, "r": 1},
])
def test_rmds_experiment_peels_the_graph_once(monkeypatch, spec):
    # The girth premise and the exact solver's known optimum share one peel.
    peels = []
    real_peel = graphs._peel

    def counted_peel(g):
        peels.append(real_peel(g))
        return peels[-1]

    for name, module in list(sys.modules.items()):
        if name.startswith("rdomsim") and getattr(module, "_peel",
                                                  None) is real_peel:
            monkeypatch.setattr(module, "_peel", counted_peel)
    result = run_experiment(spec)
    assert result.passed and result.report.opt_source == "exact"
    assert len(peels) == 2 and peels[0] is peels[1]


@pytest.mark.parametrize("spec", [
    {"family": "cycle", "n": 11},
    {"family": "path", "n": 7},
    {"family": "tree", "n": 9, "seed": 3},
    {"family": "subdivided_k4", "k": 2},
    {"family": "tightness", "r": 2, "f": 2},
    {"family": "tightness", "r": 1, "f": 3},
], ids=lambda spec: "-".join(map(str, spec.values())))
def test_size_limit_counts_the_vertices_before_the_build(monkeypatch, spec):
    # With the limit at the graph's own vertex count the spec is built;
    # one lower, it is refused before the build.
    size = build_instance(spec)[0].vertex_count
    monkeypatch.setattr(experiments, "_MAX_FILE_VERTICES", size)
    assert build_instance(spec)[0].vertex_count == size
    monkeypatch.setattr(experiments, "_MAX_FILE_VERTICES", size - 1)
    with pytest.raises(ExperimentError) as exc:
        build_instance(spec)
    assert exc.value.reason == "bad_spec"
    assert exc.value.detail == (f"family {spec['family']!r} would have "
                                f"{size} vertices, more than {size - 1}")


def _count_exact_calls(monkeypatch):
    """Count ``exact_min_rds`` calls through every module that binds it."""
    calls = []
    real = oracles.exact_min_rds

    def counted(g, r, **kwargs):
        calls.append((g.vertex_count, r))
        return real(g, r, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rdomsim") and getattr(module, "exact_min_rds",
                                                  None) is real:
            monkeypatch.setattr(module, "exact_min_rds", counted)
    return calls


def test_default_m_runs_the_exact_solver_once(monkeypatch):
    calls = _count_exact_calls(monkeypatch)
    result = run_experiment({"family": "cycle", "n": 11, "r": 1})
    assert result.passed and result.report.opt_source == "exact"
    assert calls == [(11, 1)]


@pytest.mark.parametrize("spec", [
    {"family": "cycle", "n": 11, "r": 1, "m": [0, 3, 6, 9]},
    {"family": "tightness", "r": 2, "f": 2, "m": "family"},
], ids=["vertex-list", "tightness-family"])
def test_supplied_m_never_runs_the_exact_solver(monkeypatch, spec):
    calls = _count_exact_calls(monkeypatch)
    result = run_experiment(spec)
    assert result.passed and result.report.opt_source == "supplied"
    assert calls == []


def test_exact_m_above_the_solver_cap_is_unknown():
    result = run_experiment({"family": "tree", "n": 230, "seed": 1, "r": 1})
    report = result.report
    assert result.passed
    assert report.opt_source == "unknown" and report.opt_size is None
    assert report.checks["dominating"] is True
    for name in ("opt_dominating", "cells_tree", "single_edge",
                 "quotient_bound", "t_bound", "di_in_T", "di_bound",
                 "do_bound", "ratio_bound"):
        assert report.checks[name] is None, name


def test_an_exact_search_out_of_budget_gives_up_in_seconds():
    # n = 154 is under the solver's 200-vertex cap but needs more than its
    # node budget at r = 3; about 1 s on CPython 3.11, shared 2-vCPU VM.
    start = time.perf_counter()
    result = run_experiment({"family": "subdivided_k4", "k": 25, "r": 3})
    assert time.perf_counter() - start < 30
    assert result.passed, result.failures
    assert result.report.opt_source in ("exact", "unknown")


@pytest.mark.parametrize("extra, field", [
    ({"algo": "count", "m": ["zz"]}, "m"),
    ({"algo": "cycle_is", "m": "exact"}, "m"),
    ({"d_source": "bogus"}, "d_source"),
    ({"algo": "count", "d_source": "rmds"}, "d_source"),
])
def test_a_field_the_algo_does_not_read_is_refused_before_the_build(
        monkeypatch, extra, field):
    monkeypatch.setattr(experiments, "_MAX_FILE_VERTICES", 1)
    spec = {"family": "cycle", "n": 11, "r": 1} | extra
    with pytest.raises(ExperimentError) as exc:
        run_experiment(spec)
    assert exc.value.reason == "bad_spec"
    assert exc.value.detail == (
        f"algo {spec.get('algo', 'rmds')!r} does not read {field!r}")


@pytest.mark.parametrize("spec, reason, detail", [
    ({"family": "bogus"}, "bad_family", "unknown family 'bogus'"),
    ({"family": "tree", "n": 50, "seed": 1, "r": 1, "algo": "cycle_is"},
     "bad_spec", "algo cycle_is requires the cycle family"),
    ({"family": "cycle", "n": 11, "r": 1, "algo": "cycle_is",
      "d_source": "bogus"}, "bad_spec", "unknown d_source 'bogus'"),
])
def test_refusals_name_the_spec_fault(spec, reason, detail):
    with pytest.raises(ExperimentError) as exc:
        run_experiment(spec)
    assert (exc.value.reason, exc.value.detail) == (reason, detail)


#: One valid spec per family, "file" included, with no algo and no m.
_FAMILY_SPECS = {
    "cycle": {"n": 11}, "path": {"n": 7}, "tree": {"n": 9, "seed": 3},
    "subdivided_k4": {"k": 2}, "tightness": {"f": 2},
    "file": {"graph": "g.graph"},
}


def _spec_refusals():
    """(spec, detail) for every family each spec-only refusal covers."""
    cases = []
    for family, params in _FAMILY_SPECS.items():
        spec = {"family": family, "r": 1} | params
        faults = [({"allow_low_girth": value},
                   f"allow_low_girth must be true or false, got {value!r}")
                  for value in ("false", 1, None)]
        if family != "cycle":
            faults.append(({"algo": "cycle_is"},
                           "algo cycle_is requires the cycle family"))
        if family != "tightness":
            faults.append(({"m": "family"}, 'm: "family" is only defined '
                                            'for the tightness family'))
        # The run fields are judged before the family's, so cycle_is off
        # the cycle names its bad d_source first.
        # A null run field is named as that field, also where the family
        # reads it too (tightness reads r).
        faults += [({"r": None}, "r must be an integer, got None"),
                   ({"f_r": None}, "f_r must be an integer, got None"),
                   ({"f_r": 0}, "f_r must be >= 1, got 0"),
                   ({"f_r": "x"}, "f_r must be an integer, got 'x'"),
                   ({"f_r": True}, "f_r must be an integer, got True"),
                   ({"algo": "cycle_is", "d_source": "bogus"},
                    "unknown d_source 'bogus'")]
        faults += [({"m": m}, 'm must be "exact", "family" or a non-empty '
                              f"list of vertex IDs, got {m!r}")
                   for m in ("bogus", [])]
        faults += [({"m": [v]}, f"each vertex ID in m must be an integer, "
                                f"got {v!r}") for v in ("x", True)]
        cases += [pytest.param(spec | fault, detail,
                               id=f"{family}-{fault}".replace(" ", ""))
                  for fault, detail in faults]
    missing_n = "family 'cycle' needs parameter 'n'"
    cases += [pytest.param({"family": "cycle"}, missing_n, id="cycle-no-n"),
              pytest.param({"family": "cycle", "n": None}, missing_n,
                           id="cycle-null-n")]
    return cases


@pytest.mark.parametrize("spec, detail", _spec_refusals())
def test_spec_only_refusals_come_before_any_build(monkeypatch, spec, detail):
    def no_build(*args):
        raise AssertionError("a graph was built or read")

    for name in ("gen_cycle", "gen_path", "gen_random_tree", "gen_complete",
                 "subdivide", "gen_tightness", "read_graph"):
        monkeypatch.setattr(experiments, name, no_build)
    with pytest.raises(ExperimentError) as exc:
        run_experiment(spec)
    assert (exc.value.reason, exc.value.detail) == ("bad_spec", detail)


def test_integer_strings_and_negative_digit_runs_still_parse():
    plain = {"family": "cycle", "n": 11, "r": 1, "f_r": 1, "m": [0, 3, 6, 9]}
    spelt = {"family": "cycle", "n": "11", "r": "1", "f_r": "1",
             "m": ["0", "3", "6", "9"]}
    assert run_experiment(spelt).row == run_experiment(plain).row
    with pytest.raises(ExperimentError) as exc:
        run_experiment(plain | {"r": "-1"})
    assert exc.value.detail == "r must be >= 1, got -1"


@pytest.mark.parametrize("m, calls", [
    ("family", [(2, 2)]), ("exact", []),
    (sorted(experiments.tightness_dominating_set(2, 2)), []),
], ids=["family", "exact", "vertex-list"])
def test_only_m_family_makes_the_tightness_set(monkeypatch, m, calls):
    made = []
    real = experiments.tightness_dominating_set

    def counted(r, f):
        made.append((r, f))
        return real(r, f)

    monkeypatch.setattr(experiments, "tightness_dominating_set", counted)
    result = run_experiment({"family": "tightness", "r": 2, "f": 2, "m": m})
    assert result.passed
    assert made == calls
