"""Experiment pipeline: build an instance, simulate, analyze, judge.

An experiment spec is a plain dict (JSON-friendly):

    family:  cycle | path | tree | subdivided_k4 | tightness | file
    algo:    rmds | count | cycle_is
    r:       radius (>= 1)
    f_r:     expansion bound used in the analysis (defaults per family)
    n, seed, k, f, graph:  family parameters
    m:       "exact" (default) | "family" | explicit vertex list
    d_source: for cycle_is, "rmds" (default) | "trivial"
    allow_low_girth:  opt out of the girth >= 4r+3 guard (negative controls)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .generators import (TightnessGraph, TightnessParams, gen_complete,
                         gen_cycle, gen_path, gen_random_tree, gen_tightness,
                         subdivide, tightness_dominating_set)
from .graphs import Graph, girth, neighborhood_size_oracle, read_graph
from .oracles import is_independent, is_r_dominating
from .programs import (count_neighborhood_program, cycle_is_program,
                       rmds_program, rmds_round_budget, selection_oracle)
from .simulator import id_bits, run_simulation
from .voronoi import ApproxReport, approx_report

CSV_HEADER = ("family,n,r,f_r,girth,opt,alg,ratio,bound,"
              "cells_tree,single_edge,quotient_bound,di_in_T,pass")

_DEFAULT_F_R = {"cycle": 1, "path": 1, "tree": 1, "subdivided_k4": 3}


class ExperimentError(ValueError):
    """Invalid spec or violated premise (reported with a machine-readable reason)."""

    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


@dataclass
class ExperimentResult:
    spec: Dict
    passed: bool
    failures: List[str]
    row: Dict[str, str]
    report: Optional[ApproxReport] = None
    detail: Optional[Dict] = None

    def csv_line(self) -> str:
        return ",".join(self.row[name] for name in CSV_HEADER.split(","))

    def to_dict(self) -> Dict:
        d = {"spec": self.spec, "passed": self.passed,
             "failures": self.failures}
        if self.report is not None:
            d["report"] = self.report.to_dict()
        if self.detail is not None:
            d["detail"] = self.detail
        return d


def _int_param(spec: Dict, key: str, default: Optional[int] = None) -> int:
    value = spec.get(key, default)
    if value is None:
        raise ExperimentError(
            "bad_spec", f"family {spec.get('family')!r} needs parameter {key!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            "bad_spec", f"{key} must be an integer, got {value!r}") from None


def build_instance(spec: Dict) -> Tuple[Graph, Optional[TightnessGraph]]:
    """Build the spec's graph; a missing or invalid family parameter is a
    ``bad_spec`` error and an unreadable graph file a ``bad_input`` one."""
    family = spec.get("family")
    if family == "file":
        if not spec.get("graph"):
            raise ExperimentError("bad_spec", "family 'file' needs 'graph'")
        try:
            return read_graph(spec["graph"]), None
        except (OSError, ValueError) as exc:
            raise ExperimentError("bad_input", str(exc)) from None
    try:
        if family == "cycle":
            return gen_cycle(_int_param(spec, "n")), None
        if family == "path":
            return gen_path(_int_param(spec, "n")), None
        if family == "tree":
            return gen_random_tree(_int_param(spec, "n"),
                                   _int_param(spec, "seed")), None
        if family == "subdivided_k4":
            return subdivide(gen_complete(4), _int_param(spec, "k")), None
        if family == "tightness":
            tg = gen_tightness(TightnessParams(_int_param(spec, "r", 1),
                                               _int_param(spec, "f")))
            return tg.graph, tg
    except ExperimentError:
        raise
    except ValueError as exc:
        raise ExperimentError("bad_spec", str(exc)) from None
    raise ExperimentError("bad_family", f"unknown family {family!r}")


def default_f_r(spec: Dict) -> int:
    family = spec.get("family")
    if family == "tightness":
        return int(spec["f"])
    return _DEFAULT_F_R.get(family, 1)


def _resolve_comparison_set(spec: Dict,
                            tight: Optional[TightnessGraph]) -> Optional[frozenset]:
    source = spec.get("m", "exact")
    if source == "exact":
        return None  # approx_report falls back to the exact solver
    if source == "family":
        if tight is None:
            raise ExperimentError(
                "bad_spec", 'm: "family" is only defined for the tightness family')
        return tightness_dominating_set(tight)
    return frozenset(int(v) for v in source)


def _fmt_flag(value: Optional[bool]) -> str:
    return "" if value is None else str(value).lower()


def _fmt_girth(value) -> str:
    return "inf" if math.isinf(value) else str(int(value))


def _base_row(spec: Dict, g: Graph, r: int, f_r: int, girth_value) -> Dict[str, str]:
    return {name: "" for name in CSV_HEADER.split(",")} | {
        "family": str(spec.get("family")),
        "n": str(g.vertex_count),
        "r": str(r),
        "f_r": str(f_r),
        "girth": _fmt_girth(girth_value),
    }


def run_experiment(spec: Dict) -> ExperimentResult:
    """Run one spec end to end and judge every applicable check."""
    algo = spec.get("algo", "rmds")
    r = _int_param(spec, "r", 1)
    if r < 1:
        raise ExperimentError("bad_spec", f"r must be >= 1, got {r}")
    g, tight = build_instance(spec)
    f_r = int(spec.get("f_r", default_f_r(spec)))
    girth_value = girth(g)
    premise = girth_value >= 4 * r + 3
    if not premise and not spec.get("allow_low_girth", False):
        raise ExperimentError(
            "girth_premise",
            f"girth {_fmt_girth(girth_value)} < 4r+3 = {4 * r + 3}; "
            f"set allow_low_girth for negative controls")
    bit_cap = 2 * id_bits(g.vertex_count) + 1
    if algo == "rmds":
        return _run_rmds(spec, g, tight, r, f_r, girth_value, premise, bit_cap)
    if algo == "count":
        return _run_count(spec, g, r, f_r, girth_value, premise, bit_cap)
    if algo == "cycle_is":
        return _run_cycle_is(spec, g, r, f_r, girth_value, bit_cap)
    raise ExperimentError("bad_spec", f"unknown algo {algo!r}")


def _run_rmds(spec, g, tight, r, f_r, girth_value, premise, bit_cap,
              trace=None) -> ExperimentResult:
    sim = run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r),
                         trace=trace)
    opt = _resolve_comparison_set(spec, tight)
    report = approx_report(g, r, f_r, sim, opt=opt)

    failures: List[str] = []

    def expect(name: str, ok: bool):
        if not ok:
            failures.append(name)

    expect("dominating", report.checks["dominating"])
    if premise:
        expect("rounds", sim.rounds_executed == rmds_round_budget(r))
        expect("bits", sim.max_message_bits <= bit_cap)
        oracle = selection_oracle(g, r)
        sim_sel = {v: out.selected for v, out in sim.outputs.items()}
        sim_members = frozenset(v for v, out in sim.outputs.items() if out.member)
        expect("selection_equiv",
               sim_sel == oracle.sel and sim_members == oracle.members)
        if report.checks["opt_dominating"]:
            for name in ("cells_tree", "single_edge", "quotient_bound",
                         "t_bound", "di_in_T", "di_bound", "do_bound",
                         "ratio_bound"):
                if report.checks[name] is not None:
                    expect(name, report.checks[name])

    row = _base_row(spec, g, r, f_r, girth_value) | {
        "opt": "" if report.opt_size is None else str(report.opt_size),
        "alg": str(report.alg_size),
        "ratio": "" if report.ratio is None else f"{report.ratio:.4f}",
        "bound": str(report.bound),
        "cells_tree": _fmt_flag(report.checks["cells_tree"]),
        "single_edge": _fmt_flag(report.checks["single_edge"]),
        "quotient_bound": _fmt_flag(report.checks["quotient_bound"]),
        "di_in_T": _fmt_flag(report.checks["di_in_T"]),
    }
    passed = not failures
    row["pass"] = str(passed).lower()
    return ExperimentResult(spec=spec, passed=passed, failures=failures,
                            row=row, report=report)


def _run_count(spec, g, r, f_r, girth_value, premise, bit_cap) -> ExperimentResult:
    sim = run_simulation(g, count_neighborhood_program(r), round_budget=r - 1)
    failures: List[str] = []
    exact = all(sim.outputs[v] == neighborhood_size_oracle(g, v, r)
                for v in g.vertices)
    if premise and not exact:
        failures.append("count_equiv")
    if sim.rounds_executed != r - 1:
        failures.append("rounds")
    if sim.max_message_bits > bit_cap:
        failures.append("bits")
    row = _base_row(spec, g, r, f_r, girth_value) | {
        "alg": str(len(g.vertices)),
    }
    passed = not failures
    row["pass"] = str(passed).lower()
    return ExperimentResult(spec=spec, passed=passed, failures=failures,
                            row=row,
                            detail={"exact": exact,
                                    "rounds": sim.rounds_executed,
                                    "max_message_bits": sim.max_message_bits})


def _run_cycle_is(spec, g, r, f_r, girth_value, bit_cap) -> ExperimentResult:
    if spec.get("family") != "cycle":
        raise ExperimentError("bad_spec",
                              "algo cycle_is requires the cycle family")
    n = g.vertex_count
    source = spec.get("d_source", "rmds")
    if source == "rmds":
        rmds_sim = run_simulation(g, rmds_program(r),
                                  round_budget=rmds_round_budget(r))
        d_set = frozenset(v for v, out in rmds_sim.outputs.items() if out.member)
    elif source == "trivial":
        d_set = frozenset(range(0, n, 2 * r + 1))
    else:
        raise ExperimentError("bad_spec", f"unknown d_source {source!r}")

    sim = run_simulation(g, cycle_is_program(r), params={"d_member": d_set},
                         round_budget=2 * r + 1)
    i_set = frozenset(v for v, out in sim.outputs.items() if out)
    failures: List[str] = []
    if not is_r_dominating(g, d_set, r):
        failures.append("d_dominating")
    if not is_independent(g, i_set):
        failures.append("independent")
    if 2 * len(i_set) < n - len(d_set):
        failures.append("is_size")
    if sim.rounds_executed > 2 * r + 1:
        failures.append("rounds")
    if sim.max_message_bits > bit_cap:
        failures.append("bits")
    if any(sim.outputs[v] for v in d_set):
        failures.append("d_outputs_false")

    row = _base_row(spec, g, r, f_r, girth_value) | {
        "opt": str(len(d_set)),
        "alg": str(len(i_set)),
    }
    passed = not failures
    row["pass"] = str(passed).lower()
    return ExperimentResult(spec=spec, passed=passed, failures=failures,
                            row=row,
                            detail={"d_size": len(d_set),
                                    "is_size": len(i_set),
                                    "d_source": source,
                                    "rounds": sim.rounds_executed,
                                    "max_message_bits": sim.max_message_bits})


def run_suite(specs: List[Dict]) -> Tuple[List[ExperimentResult], str]:
    """Run every spec in order; returns the results and the aggregate CSV."""
    results = [run_experiment(spec) for spec in specs]
    lines = [CSV_HEADER] + [res.csv_line() for res in results]
    return results, "\n".join(lines) + "\n"
