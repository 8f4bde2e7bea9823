"""In-memory span recorder that wraps rdomsim's public functions from outside.

Each layer is wrapped wherever a loaded ``rdomsim`` module holds it as a
module attribute (``rdomsim.voronoi.girth`` and ``rdomsim.experiments.girth``
both become spans named ``graphs.girth``), so calls that bind the name at
import time are seen too.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and op id.  Node-program
``step`` runs once per vertex per round, far too often for a span per call,
so its calls under one parent are folded into a single span that keeps the
call count and the summed busy time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: (span name, defining module, attribute) for every wrapped function.
LAYERS = (
    ("graphs.girth", "rdomsim.graphs", "girth"),
    ("graphs.build_graph", "rdomsim.graphs", "build_graph"),
    ("voronoi.voronoi_decompose", "rdomsim.voronoi", "voronoi_decompose"),
    ("voronoi.check_structural_lemmas", "rdomsim.voronoi",
     "check_structural_lemmas"),
    ("voronoi.boundary_forest", "rdomsim.voronoi", "boundary_forest"),
    ("voronoi.split_selection", "rdomsim.voronoi", "split_selection"),
    ("voronoi.approx_report", "rdomsim.voronoi", "approx_report"),
    ("oracles.exact_min_rds", "rdomsim.oracles", "exact_min_rds"),
    ("oracles.greedy_rds", "rdomsim.oracles", "greedy_rds"),
    ("oracles.is_r_dominating", "rdomsim.oracles", "is_r_dominating"),
    ("simulator.run_simulation", "rdomsim.simulator", "run_simulation"),
    ("programs.selection_oracle", "rdomsim.programs", "selection_oracle"),
    ("experiments.run_experiment", "rdomsim.experiments", "run_experiment"),
    ("experiments.build_instance", "rdomsim.experiments", "build_instance"),
    ("cli.main", "rdomsim.cli", "main"),
)

#: (layer, figure) pairs reported from spans, in report order.
PER_LAYER = (
    ("graphs.girth", "calls"), ("graphs.girth", "self_s"),
    ("voronoi.voronoi_decompose", "calls"),
    ("voronoi.voronoi_decompose", "self_s"),
    ("voronoi.check_structural_lemmas", "self_s"),
    ("voronoi.boundary_forest", "self_s"),
    ("voronoi.split_selection", "self_s"),
    ("voronoi.approx_report", "self_s"),
    ("oracles.exact_min_rds", "calls"), ("oracles.exact_min_rds", "self_s"),
    ("oracles.greedy_rds", "self_s"),
    ("oracles.is_r_dominating", "self_s"),
    ("simulator.run_simulation", "calls"),
    ("simulator.run_simulation", "self_s"),
    ("programs.step", "calls"), ("programs.step", "self_s"),
    ("programs.selection_oracle", "calls"),
    ("programs.selection_oracle", "self_s"),
    ("experiments.run_experiment", "self_s"),
    ("experiments.build_instance", "self_s"),
    ("cli.main", "self_s"),
    ("graphs.build_graph", "self_s"),
)

#: Node-program classes whose ``step`` is folded into ``programs.step``.
STEP_CLASSES = ("CountNeighborhoodProgram", "RmdsProgram", "CycleIsProgram")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "calls", "busy",
                 "error", "counts")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.calls = 1
        self.busy = 0.0
        self.error: Optional[str] = None
        self.counts: Optional[Dict[str, int]] = None


def self_times(spans: List[Span]) -> List[float]:
    """Busy time of each span minus the busy time of its direct children.

    The benchmark is single-threaded, so sibling spans never overlap and the
    part of a span its children cover is the sum of their busy times.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.busy
    return [span.busy - c for span, c in zip(spans, covered)]


def _simulation_counts(span: Span, report) -> None:
    span.counts = {"rounds": report.rounds_executed,
                   "messages_sent": sum(report.messages_per_round),
                   "max_message_bits": report.max_message_bits}


class Tracer:
    """Keeps spans in memory; ``op`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.folded: Dict[tuple, int] = {}
        self.op = -1

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                span.busy = span.end - span.start
                stack.pop()
            if observe is not None:
                observe(span, result)
            return result

        return traced

    def wrap_folded(self, name: str, fn: Callable) -> Callable:
        spans, stack, folded = self.spans, self.stack, self.folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                key = (stack[-1] if stack else -1, name)
                index = folded.get(key)
                if index is None:
                    folded[key] = len(spans)
                    span = Span(name, start, key[0], self.op)
                    span.calls = 0
                    spans.append(span)
                else:
                    span = spans[index]
                span.end = end
                span.calls += 1
                span.busy += end - start

        return traced

    def install(self) -> None:
        """Wrap every layer at each ``rdomsim`` module attribute bound to it."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "rdomsim" or key.startswith("rdomsim.")]
        for name, home, attr in LAYERS:
            original = getattr(sys.modules[home], attr)
            observe = _simulation_counts if attr == "run_simulation" else None
            wrapped = self.wrap(name, original, observe)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
        programs = sys.modules["rdomsim.programs"]
        for cls_name in STEP_CLASSES:
            cls = getattr(programs, cls_name)
            cls.step = self.wrap_folded("programs.step", cls.step)

    def write(self, path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="ascii") as fh:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                record = {"id": i, "name": span.name, "start": span.start,
                          "end": span.end, "parent": span.parent,
                          "op": span.op, "calls": span.calls,
                          "busy": span.busy, "self": own}
                if span.error is not None:
                    record["error"] = span.error
                if span.counts is not None:
                    record["counts"] = span.counts
                fh.write(json.dumps(record) + "\n")


def layer_metrics(spans: List[Span], setup_count: int,
                  passes: int) -> Dict[str, float]:
    """Per-layer figures for one pass of a workload's op list.

    Spans recorded during set-up (the first ``setup_count``) count once;
    spans recorded while measuring are divided by the number of passes.
    """
    setup: Counter = Counter()
    measured: Counter = Counter()
    max_bits = 0
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        totals = setup if i < setup_count else measured
        totals[f"{span.name}.calls"] += span.calls
        totals[f"{span.name}.self_s"] += own
        if span.error == "OptimumUnknown":
            totals["unknown"] += 1
        if span.counts is not None:
            totals["simulator.rounds"] += span.counts["rounds"]
            totals["simulator.messages_sent"] += span.counts["messages_sent"]
            max_bits = max(max_bits, span.counts["max_message_bits"])

    def per_pass(key: str) -> float:
        return setup[key] + measured[key] / passes

    metrics = {f"{layer}.{figure}": per_pass(f"{layer}.{figure}")
               for layer, figure in PER_LAYER}
    exact_calls = per_pass("oracles.exact_min_rds.calls")
    metrics["oracles.exact_min_rds.unknown_share"] = (
        per_pass("unknown") / exact_calls if exact_calls else 0.0)
    metrics["simulator.rounds"] = per_pass("simulator.rounds")
    metrics["simulator.messages_sent"] = per_pass("simulator.messages_sent")
    metrics["simulator.max_message_bits"] = float(max_bits)
    return metrics
