"""Experiment pipeline: build an instance, simulate, analyze, judge.

An experiment spec is a plain dict (JSON-friendly):

    family:  a key of ``_FAMILIES``, or "file" with ``graph``, a file path
    algo:    a key of ``_ALGOS`` (default "rmds")
    r:       radius, 1 <= r <= n
    f_r:     expansion bound used in the analysis, >= 1 (defaults per family)
    n, seed, k, f:  the family's integer parameters (see ``_FAMILIES``)
    m:       for rmds, M: "exact" (default; "unknown" above 200 vertices or
             when the node budget runs out) | "family" | explicit vertex list
    d_source: for cycle_is, "rmds" (default) | "trivial"
    allow_low_girth:  true to opt out of the girth >= 4r+3 guard (negative
                      controls)

An integer field is an int that is not a bool, or a run of ASCII digits
with an optional leading '-'; graph and set files take digit runs only.
Every fault the spec shows on its own is ``bad_spec`` before anything is
built or read: ``run_experiment`` judges the run fields, ``build_instance``
the family's.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from .generators import (gen_complete, gen_cycle, gen_path, gen_random_tree,
                         gen_tightness, subdivide, tightness_dominating_set,
                         tightness_size)
from .graphs import (_MAX_FILE_VERTICES, _OUT_OF_RANGE, Graph, distances,
                     girth, read_graph, render_girth)
from .oracles import (OptimumUnknown, exact_min_rds, is_independent,
                      is_r_dominating)
from .programs import (count_neighborhood_program, cycle_is_program,
                       rmds_program, rmds_round_budget, selection_oracle)
from .simulator import SimulationReport, id_bits, run_simulation
from .voronoi import ApproxReport, approx_report

CSV_HEADER = ("family,n,r,f_r,girth,opt,alg,ratio,bound,"
              "cells_tree,single_edge,quotient_bound,di_in_T,pass")
_COLUMNS = CSV_HEADER.split(",")


class ExperimentError(ValueError):
    """Invalid spec or violated premise (reported with a machine-readable reason)."""

    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


class ExperimentResult(NamedTuple):
    """One judged spec and its CSV ``row``; an immutable ``NamedTuple``."""

    spec: Dict
    passed: bool
    failures: List[str]
    row: Dict[str, str]
    report: Optional[ApproxReport] = None
    detail: Optional[Dict] = None

    def csv_line(self) -> str:
        return ",".join(self.row[name] for name in _COLUMNS)

    def to_dict(self) -> Dict:
        d = {"spec": self.spec, "passed": self.passed,
             "failures": self.failures}
        if self.report is not None:
            d["report"] = self.report.to_dict()
        if self.detail is not None:
            d["detail"] = self.detail
        return d


def _as_int(value, what: str) -> int:
    """``value`` as an int: an int that is not a bool, or a run of ASCII
    digits with an optional leading '-'."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and value.isascii() and (
            value.removeprefix("-").isdigit()):
        with contextlib.suppress(ValueError):  # more digits than int() takes
            return int(value)
    raise ExperimentError("bad_spec", f"{what} must be an integer, got {value!r}")


#: family -> (its integer parameters with their defaults, in the order they
#: are read; the vertex count they give, known before any build; a build
#: returning the graph and the default f_r).  The builds look the generators
#: up when called.  subdivided_k4's f_r is 3: its shallow minors are planar,
#: like it, and a simple planar graph on n vertices has fewer than 3n edges.
_FAMILIES = {
    "cycle": ({"n": None}, lambda n: n, lambda n: (gen_cycle(n), 1)),
    "path": ({"n": None}, lambda n: n, lambda n: (gen_path(n), 1)),
    "tree": ({"n": None, "seed": None}, lambda n, seed: n,
             lambda n, seed: (gen_random_tree(n, seed), 1)),
    "subdivided_k4": ({"k": None}, lambda k: 4 + 6 * k,
                      lambda k: (subdivide(gen_complete(4), k), 3)),
    "tightness": ({"r": 1, "f": None}, tightness_size,
                  lambda r, f: (gen_tightness(r, f), f)),
}


def build_instance(spec: Dict) -> Tuple[Graph, int]:
    """The spec's graph and its family's default f_r.  A fault of the
    family's fields, such as a key the family does not read or more than
    ``2**20`` vertices, is ``bad_spec`` before anything is built or read;
    an unreadable graph file is ``bad_input``."""
    family = spec.get("family")
    if family == "file":
        params = ("graph",)
    elif isinstance(family, str) and family in _FAMILIES:
        params, size, build = _FAMILIES[family]
    else:
        raise ExperimentError("bad_family", f"unknown family {family!r}")
    read = {*_COMMON_FIELDS, *params, *(field for _, field in _ALGOS.values())}
    for key in spec:
        if key not in read:
            raise ExperimentError(
                "bad_spec", f"family {family!r} does not read {key!r}")
    allow_low_girth = spec.get("allow_low_girth", False)
    if not isinstance(allow_low_girth, bool):
        raise ExperimentError(
            "bad_spec", f"allow_low_girth must be true or false, "
                        f"got {allow_low_girth!r}")
    if spec.get("algo") == "cycle_is" and family != "cycle":
        raise ExperimentError("bad_spec",
                              "algo cycle_is requires the cycle family")
    if spec.get("m") == "family" and family != "tightness":
        raise ExperimentError(
            "bad_spec", 'm: "family" is only defined for the tightness family')
    if family == "file":
        path = spec.get("graph")
        if not path or not isinstance(path, str):
            raise ExperimentError("bad_spec",
                                  "family 'file' needs 'graph', a file path")
        try:
            return read_graph(path), 1
        except (OSError, ValueError) as exc:
            raise ExperimentError("bad_input", str(exc)) from None
    args = []
    for key, default in params.items():
        value = spec.get(key, default)
        if value is None:
            raise ExperimentError(
                "bad_spec", f"family {family!r} needs parameter {key!r}")
        args.append(_as_int(value, key))
    try:
        count = size(*args)
        if count <= _MAX_FILE_VERTICES:
            return build(*args)
    except ValueError as exc:
        raise ExperimentError("bad_spec", str(exc)) from None
    raise ExperimentError(
        "bad_spec", f"family {family!r} would have {count} vertices, "
                    f"more than {_MAX_FILE_VERTICES}")


def _resolve_comparison_set(spec: Dict, g: Graph, r: int
                            ) -> Tuple[Optional[frozenset], str]:
    """``(M, source)``: "exact", ``(None, "unknown")`` where the solver gives
    up, or "supplied": the tightness family's own set, made here, or the
    IDs ``run_experiment`` judged; an ID outside ``g`` is ``bad_spec``."""
    source = spec["m"]
    if source == "exact":
        try:
            return exact_min_rds(g, r), "exact"
        except OptimumUnknown:
            return None, "unknown"
    if source == "family":  # build_instance allows it on tightness only
        return tightness_dominating_set(r, _as_int(spec["f"], "f")), "supplied"
    beyond = [v for v in source if v not in g]
    if beyond:
        raise ExperimentError("bad_spec", "m: " + _OUT_OF_RANGE.format(
            min(beyond), g.vertex_count))
    return source, "supplied"


def _bits_ok(g: Graph, sim: SimulationReport) -> bool:
    """The paper's message-size claim: at most 2*ceil(log2(n+1))+1 bits."""
    return sim.max_message_bits <= 2 * id_bits(g.vertex_count) + 1


def _simulate_rmds(g: Graph, r: int) -> SimulationReport:
    return run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))


def _rmds(spec, g, r, f_r, premise):
    opt, opt_source = _resolve_comparison_set(spec, g, r)
    sim = _simulate_rmds(g, r)
    report = approx_report(g, r, f_r, sim, opt, opt_source)
    checks = report.checks
    verdicts = [("dominating", checks["dominating"])]
    if premise:
        verdicts += [("rounds", sim.rounds_executed == rmds_round_budget(r)),
                     ("bits", _bits_ok(g, sim)),
                     ("selection_equiv",
                      sim.outputs == selection_oracle(g, r))]
        # A supplied m that does not dominate voids the lemma checks.
        judged = (["opt_dominating"] if checks["opt_dominating"] is False
                  else [name for name in checks if name != "dominating"])
        verdicts += [(name, checks[name] is not False) for name in judged]
    fields = {
        "opt": "" if report.opt_size is None else str(report.opt_size),
        "alg": str(report.alg_size),
        "ratio": "" if report.ratio is None else f"{report.ratio:.4f}",
        "bound": str(report.bound),
    } | {name: "" if ok is None else str(ok).lower()
         for name, ok in checks.items() if name in _COLUMNS}
    return verdicts, fields, report, None


def _count(spec, g, r, f_r, premise):
    sim = run_simulation(g, count_neighborhood_program(r), round_budget=r - 1)
    exact = sim.outputs == {v: len(distances(g, (v,), r)) - 1
                            for v in g.vertices}
    verdicts = [("count_equiv", exact or not premise),
                ("rounds", sim.rounds_executed == r - 1),
                ("bits", _bits_ok(g, sim))]
    return (verdicts, {"alg": str(g.vertex_count)}, None,
            {"exact": exact, "rounds": sim.rounds_executed,
             "max_message_bits": sim.max_message_bits})


def _cycle_is(spec, g, r, f_r, premise):
    n = g.vertex_count
    source = spec["d_source"]
    d_set = (frozenset(range(0, n, 2 * r + 1)) if source == "trivial" else
             frozenset(v for v, out in _simulate_rmds(g, r).outputs.items()
                       if out.member))

    sim = run_simulation(g, cycle_is_program(r), params={"d_member": d_set},
                         round_budget=2 * r + 1)
    i_set = frozenset(v for v, out in sim.outputs.items() if out)
    verdicts = [("d_dominating", is_r_dominating(g, d_set, r)),
                ("independent", is_independent(g, i_set)),
                ("is_size", 2 * len(i_set) >= n - len(d_set)),
                ("rounds", sim.rounds_executed <= 2 * r + 1),
                ("bits", _bits_ok(g, sim)),
                ("d_outputs_false", not any(sim.outputs[v] for v in d_set))]
    return (verdicts, {"opt": str(len(d_set)), "alg": str(len(i_set))}, None,
            {"d_size": len(d_set), "is_size": len(i_set), "d_source": source,
             "rounds": sim.rounds_executed,
             "max_message_bits": sim.max_message_bits})


#: algo -> (fn(spec, g, r, f_r, premise) returning (verdicts, CSV
#: fields, ApproxReport or None, detail or None), which of m and d_source it
#: reads).  The spec it gets holds both, resolved by ``run_experiment``;
#: ``verdicts`` lists (check name, passed) in failure order.
_ALGOS = {"rmds": (_rmds, "m"), "count": (_count, None),
          "cycle_is": (_cycle_is, "d_source")}
#: Spec fields that every family and algo read.
_COMMON_FIELDS = ("family", "algo", "r", "f_r", "allow_low_girth")
#: cycle_is's sources of D: the rmds output, or every (2r+1)-th vertex.
_D_SOURCES = ("rmds", "trivial")


def run_experiment(spec: Dict) -> ExperimentResult:
    """Run one spec end to end and judge every applicable check."""
    algo = spec.get("algo", "rmds")
    r = _as_int(spec.get("r", 1), "r")
    if r < 1:
        raise ExperimentError("bad_spec", f"r must be >= 1, got {r}")
    if not isinstance(algo, str) or algo not in _ALGOS:
        raise ExperimentError("bad_spec", f"unknown algo {algo!r}")
    run, reads = _ALGOS[algo]
    for _, field in _ALGOS.values():
        if field in spec and field != reads:
            raise ExperimentError("bad_spec",
                                  f"algo {algo!r} does not read {field!r}")
    f_r = _as_int(spec.get("f_r", 1), "f_r")
    if f_r < 1:
        raise ExperimentError("bad_spec", f"f_r must be >= 1, got {f_r}")
    source = spec.get("d_source", "rmds")
    if source not in _D_SOURCES:
        raise ExperimentError("bad_spec", f"unknown d_source {source!r}")
    m = spec.get("m", "exact")
    if m not in ("exact", "family"):
        if not isinstance(m, list) or not m:
            raise ExperimentError(
                "bad_spec", f'm must be "exact", "family" or a non-empty list '
                            f"of vertex IDs, got {m!r}")
        m = frozenset(_as_int(v, "each vertex ID in m") for v in m)
    g, family_f_r = build_instance(spec)
    if not g.vertex_count:
        raise ExperimentError("bad_input", "graph has no vertices")
    f_r = f_r if "f_r" in spec else family_f_r
    # An r above n names the same balls as r = n and only adds rounds.
    if r > g.vertex_count:
        raise ExperimentError(
            "bad_spec", f"r must be <= n = {g.vertex_count}, got {r}")
    girth_value = girth(g)
    premise = girth_value >= 4 * r + 3
    if not premise and not spec.get("allow_low_girth"):
        raise ExperimentError(
            "girth_premise",
            f"girth {render_girth(girth_value)} < 4r+3 = {4 * r + 3}; "
            f"set allow_low_girth for negative controls")
    verdicts, fields, report, detail = run(
        spec | {"m": m, "d_source": source}, g, r, f_r, premise)
    failures = [name for name, ok in verdicts if not ok]
    passed = not failures
    row = dict.fromkeys(_COLUMNS, "") | {
        "family": str(spec.get("family")),
        "n": str(g.vertex_count),
        "r": str(r),
        "f_r": str(f_r),
        "girth": str(render_girth(girth_value)),
    } | fields | {"pass": str(passed).lower()}
    return ExperimentResult(spec=spec, passed=passed, failures=failures,
                            row=row, report=report, detail=detail)


def run_suite(specs: List[Dict]) -> Tuple[List[ExperimentResult], str]:
    """Run every spec in order; returns the results and the aggregate CSV."""
    results = [run_experiment(spec) for spec in specs]
    lines = [CSV_HEADER] + [res.csv_line() for res in results]
    return results, "\n".join(lines) + "\n"
