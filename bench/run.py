"""Run one rdomsim benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus|scale_analysis|simulate \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  One process, one thread, one closed-loop client: each
op starts when the previous one has been judged.  The op list of a workload
is run in a fixed number of whole passes, ``--seconds`` over the workload's
``PASS_S``, so every run holds the same ops whatever the program's speed.
Before each pass the package is imported afresh and the inputs are built
again (see ``SETUPS``), so set-ups meet the same host as the ops;
``setup_s`` is their median.  Op times and set-up times are scaled to
nominal host speed (see ``HostSpeed``); the report line also gives them
unscaled.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs a third of the passes untraced, then wraps every layer
in spans (see spans.py), prints the per-layer metrics for one pass and the
tracing overhead, and writes the spans to ``.bench_out/``.

The second-to-last stdout line is a JSON report with the failed share, the
tail percentile and its sample count; the last line is the result object.
"""

import argparse
import bisect
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
from collections import Counter, deque
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-ups an untraced run aims at, spread evenly over its passes ...
SETUPS = 24
#: ... though a pass after its first set-up gets more only while its set-ups
#: have taken less than this many seconds.
SETUP_BUDGET_S = 0.25
#: The tail latency is the sample with this many samples above it.
TAIL_BEYOND = 10
#: Time of ``reference_loop`` that defines nominal host speed; about its
#: median on the 2-vCPU host the baseline was measured on.
NOMINAL_REF_S = 0.0025
#: Least time between two measurements of host speed.
CALIBRATE_EVERY_S = 1.0
#: Host-speed samples within this many seconds of an op scale its time.
SMOOTH_S = 2.5


def fresh_import():
    """Import ``rdomsim`` (and its CLI) from scratch out of ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "rdomsim" or m.startswith("rdomsim.")]:
        del sys.modules[name]
    rd = importlib.import_module("rdomsim")
    importlib.import_module("rdomsim.cli")
    if Path(rd.__file__).resolve().parent != (SRC / "rdomsim").resolve():
        raise ImportError(f"rdomsim imported from {rd.__file__}, not {SRC}")
    return rd


def reference_loop(n: int = 4000) -> int:
    """Fixed pure-Python work of the kind rdomsim does: dicts, tuples, a BFS.

    It runs no rdomsim code, so its time tracks only the host's speed.
    """
    adj = {v: ((v + 1) % n, (v - 1) % n, (v * 7) % n) for v in range(n)}
    depth = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return len(sorted(frozenset(depth.values())))


class HostSpeed:
    """Factors that turn wall seconds into seconds at nominal host speed.

    The host's speed drifts for minutes at a time; in one probe, over two
    minutes, the factor ranged from 0.62 to 1.35.  That moves raw op times
    between runs by more than the bounds; scaling by the loop's speed
    cancels most of it.  ``tick()`` runs before each op and,
    once ``CALIBRATE_EVERY_S`` has passed, times the loop again.  The factor
    at a time is nominal over measured loop time, as the median of the
    samples within ``SMOOTH_S`` of it.
    """

    def __init__(self):
        for _ in range(3):  # let the interpreter specialise the loop first
            reference_loop()
        self.times = []
        self.factors = []

    def tick(self) -> None:
        if self.times and perf_counter() - self.times[-1] < CALIBRATE_EVERY_S:
            return
        samples = []
        for _ in range(5):
            begun = perf_counter()
            reference_loop()
            samples.append(perf_counter() - begun)
        self.times.append(perf_counter())
        self.factors.append(NOMINAL_REF_S / statistics.median(samples))

    def factor_at(self, t: float) -> float:
        lo = bisect.bisect_left(self.times, t - SMOOTH_S)
        hi = bisect.bisect_right(self.times, t + SMOOTH_S)
        if lo == hi:  # no sample near t: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.factors[lo:hi])


class Pass(NamedTuple):
    start: float
    wall: float
    ops: list


def run_passes(workload, count: int, begin_op) -> list:
    """``count`` whole passes of ``workload``, each with its start time."""
    passes = []
    for _ in range(count):
        start = perf_counter()
        ops, wall = workload.run_pass(begin_op)
        passes.append(Pass(start, wall, ops))
    return passes


def end_to_end(passes, setups, factor_at=None, scale_tail=True) -> dict:
    """The end-to-end metrics of one untraced run.

    ``setups`` holds (start, seconds) of each set-up.  Host contention also
    comes in bursts of several seconds, so each op's time is taken as its
    median over the run's passes: ``latency_p50_s`` is the median of those
    over the op list.  A pass is timed as the sum of those plus the median
    time a pass spends outside its ops (the CLI and suite glue of
    ``corpus``).  With ``factor_at``, these typical times, the set-up
    times and, if ``scale_tail``, every sample the tail is taken from are
    scaled to nominal host speed; memory is always as measured.
    """
    def scaled(start: float, seconds: float) -> float:
        return seconds * factor_at(start) if factor_at else seconds

    by_label = {}
    outside = []
    for p in passes:
        in_ops = sum(op.latency for op in p.ops)
        outside.append(scaled(p.start, p.wall - in_ops))
        for op in p.ops:
            by_label.setdefault(op.label, []).append(
                scaled(op.start, op.latency))
    typical = [statistics.median(times) for times in by_label.values()]
    ops = [op for p in passes for op in p.ops]
    latencies = sorted(scaled(op.start, op.latency) if scale_tail
                       else op.latency for op in ops)
    verified = sum(1 for op in ops if not op.failures)
    pass_s = sum(typical) + statistics.median(outside)
    return {
        "setup_s": statistics.median(scaled(*setup) for setup in setups),
        "throughput_ops_s": verified / len(passes) / pass_s,
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": latencies[max(len(latencies) - 1 - TAIL_BEYOND, 0)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rdomsim" / "__init__.py").is_file():
        print(f"bench: no rdomsim package under {SRC}; run it in a full "
              f"checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import CLAIM_FAILURES, WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    make = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    passes = max(1, round(args.seconds / make.PASS_S))
    report = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        from spans import Tracer, layer_metrics
        workload = make(fresh_import(), args.seed, OUT)
        plain = run_passes(workload, max(1, passes // 3), lambda: None)
        tracer = Tracer()
        tracer.install()
        # Build the inputs under the tracer, once, so set-up spans show.
        workload = make(sys.modules["rdomsim"], args.seed, OUT)
        setup_spans = len(tracer.spans)
        op_ids = itertools.count()

        def begin_op():
            tracer.op = next(op_ids)

        traced = run_passes(workload, max(1, passes - len(plain)), begin_op)
        metrics = layer_metrics(tracer.spans, setup_spans, len(traced))
        plain_s = statistics.median(p.wall for p in plain)
        traced_s = statistics.median(p.wall for p in traced)
        metrics["trace.overhead_s"] = traced_s - plain_s
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report.update(untraced_pass_s=plain_s, traced_pass_s=traced_s,
                      spans=len(tracer.spans),
                      spans_file=str(spans_path.relative_to(ROOT)))
        measured = plain + traced
        listed = bench["per_layer"]
    else:
        host = HostSpeed()
        setups, measured = [], []
        for _ in range(passes):
            spent = 0.0
            for _ in range(-(-SETUPS // passes)):
                if spent >= SETUP_BUDGET_S:
                    break
                workload = None  # hold one set of inputs at a time
                gc.collect()
                host.tick()
                begun = perf_counter()
                workload = make(fresh_import(), args.seed, OUT)
                setups.append((begun, perf_counter() - begun))
                spent += setups[-1][1]
            measured += run_passes(workload, 1, host.tick)
        metrics = end_to_end(measured, setups, host.factor_at,
                             make.SCALE_TAIL)
        report.update(wall_clock=end_to_end(measured, setups),
                      host_factor=statistics.median(host.factors),
                      setups=len(setups))
        listed = bench["end_to_end"]

    all_ops = [op for p in measured for op in p.ops]
    failed = [op for op in all_ops if op.failures]
    report.update(
        passes=len(measured), ops_per_pass=len(all_ops) // len(measured),
        samples=len(all_ops),
        tail_percentile=(100.0 * max(len(all_ops) - TAIL_BEYOND, 0)
                         / len(all_ops)),
        failed_share=len(failed) / len(all_ops),
        failures=dict(Counter(f"{op.label}: {','.join(op.failures)}"
                              for op in failed)))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": all(set(op.failures) <= CLAIM_FAILURES for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
