"""The benchmark's workloads: inputs built from a seed, ops, and their judges.

A workload is built by ``WORKLOADS[name](rd, seed, out_dir)`` from a freshly
imported ``rdomsim`` package ``rd``.  ``run_pass(begin_op)`` runs its op list
once and returns ``(ops, wall)``: one ``OpResult`` per op and the wall time of
the program calls, which excludes the benchmark's own checks.  ``begin_op``
is called as each op starts, so a tracer can stamp spans with the op id; its
own time counts in neither.  ``PASS_S`` is the typical seconds of one pass
on the 2-vCPU host of ``baseline.json``; a run makes a fixed number of passes
from it.  ``SCALE_TAIL`` says whether the tail's samples are scaled to
nominal host speed: yes when ops last about as long as the once-a-second
host-speed sample, so that it sees what slowed them; no when they last
milliseconds, so that bursts it cannot see decide the tail.  Both are fixed
per workload rather than worked out from op times, so that a faster program
does not change how its tail is measured.
Program functions are looked up on ``rd`` at call time, so a tracer installed
after set-up sees every call.

Every failure name makes an op count as failed.  Only ``bits``, the paper's
message-size claim, leaves the run ``correct``: it is a verdict on the
algorithm, whereas every other failure means an output is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference"

#: Failures that judge the paper's claims rather than the outputs.
CLAIM_FAILURES = frozenset({"bits"})


class OpResult(NamedTuple):
    label: str
    start: float
    latency: float
    failures: Tuple[str, ...]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def bfs_depths(g, sources, limit=None) -> Dict[int, int]:
    """Hop distance from the nearest source, optionally cut off at ``limit``.

    Written here rather than taken from rdomsim so that inputs and checks do
    not rest on the code they measure.
    """
    depth = {s: 0 for s in sources}
    queue = deque(depth)
    while queue:
        u = queue.popleft()
        if depth[u] == limit:
            continue
        for w in g.neighbors(u):
            if w not in depth:
                depth[w] = depth[u] + 1
                queue.append(w)
    return depth


def tree_ball_sizes(g, r: int) -> Dict[int, int]:
    """|N^r(v)| minus one for every vertex of a tree, in O(n·r).

    ``down[v][d]`` counts descendants of v at depth d (rooted at the smallest
    vertex); ``full[c][d] = down[c][d] + full[p][d-1] - down[c][d-2]`` adds
    what lies outside c's subtree through its parent p.
    """
    root = g.vertices[0]
    parent = {root: None}
    order = [root]
    for u in order:
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                order.append(w)
    down = {v: [1] + [0] * r for v in order}
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            for d in range(1, r + 1):
                down[p][d] += down[v][d - 1]
    full = {root: down[root]}
    for c in order[1:]:
        p = parent[c]
        full[c] = [1] + [down[c][d] + full[p][d - 1]
                         - (down[c][d - 2] if d >= 2 else 0)
                         for d in range(1, r + 1)]
    return {v: sum(full[v][1:]) for v in order}


class Corpus:
    """The 59-spec built-in corpus through ``rdomsim suite --builtin``.

    One pass is one ``cli.main`` call; each experiment in it is one op,
    timed by a wrapper around ``experiments.run_experiment``.
    """

    PASS_S = 0.9
    SCALE_TAIL = False

    def __init__(self, rd, seed: int, out_dir: Path):
        self.rd = rd
        self.labels = [json.dumps(spec, sort_keys=True)
                       for spec in rd.corpus.builtin_corpus()]
        self.csv_path = out_dir / "corpus.csv"
        self.reference = (REFERENCE / "corpus.csv").read_bytes()

    def run_pass(self, begin_op: Callable[[], None]):
        experiments = self.rd.experiments
        inner = experiments.run_experiment
        timed: List[Tuple[float, float, object]] = []
        paused = 0.0

        def run_experiment(spec):
            nonlocal paused
            begun = perf_counter()
            begin_op()
            start = perf_counter()
            paused += start - begun
            result = inner(spec)
            timed.append((start, perf_counter() - start, result))
            return result

        self.csv_path.unlink(missing_ok=True)
        experiments.run_experiment = run_experiment
        stdout = io.StringIO()
        whole: List[str] = []
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.rd.cli.main(["suite", "--builtin",
                                         "--csv", str(self.csv_path)])
        except Exception as exc:  # a pass that raises is judged, not fatal
            code = None
            whole.append(f"raised:{type(exc).__name__}")
        finally:
            wall = perf_counter() - start - paused
            experiments.run_experiment = inner
        summary = json.dumps({"experiments": len(self.labels), "failed": 0,
                              "failures": []}, sort_keys=True)
        if code != 0 or stdout.getvalue() != summary + "\n":
            whole.append("exit")
        if len(timed) != len(self.labels):
            whole.append("op_count")
        if (not self.csv_path.exists()
                or self.csv_path.read_bytes() != self.reference):
            whole.append("reference")
        ref_lines = self.reference.decode("ascii").splitlines()[1:]
        ops = []
        for i, label in enumerate(self.labels):
            failures = list(whole)
            op_start, latency = start, 0.0
            if i < len(timed):
                op_start, latency, result = timed[i]
                failures.extend(result.failures)
                if result.csv_line() != ref_lines[i]:
                    failures.append("reference")
            ops.append(OpResult(label, op_start, latency,
                                tuple(sorted(set(failures)))))
        return ops, wall


class Op(NamedTuple):
    """One timed program call and the check of its output.

    ``judge`` returns the failure names and a digest of the output, which
    must match the stored reference when one is stored for ``label``.
    """

    label: str
    run: Callable
    judge: Callable


class _OpWorkload:
    """A workload whose pass is its ``ops`` run in order."""

    ops: List[Op]
    SCALE_TAIL = True

    def __init__(self):
        path = REFERENCE / "digests.json"
        self.digests = json.loads(path.read_text()) if path.exists() else {}
        self.outputs: Dict[str, str] = {}

    def run_pass(self, begin_op: Callable[[], None]):
        """One pass; records each output digest in ``self.outputs``."""
        results, wall = [], 0.0
        for op in self.ops:
            begin_op()
            start = perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an op that raises is judged, not fatal
                latency = perf_counter() - start
                failures = [f"raised:{type(exc).__name__}"]
            else:
                latency = perf_counter() - start
                failures, out = op.judge(output)
                self.outputs[op.label] = out
                if self.digests.get(op.label, out) != out:
                    failures.append("reference")
            wall += latency
            results.append(OpResult(op.label, start, latency, tuple(failures)))
        return results, wall


def scale_specs(rd, seed: int, n: int = 1000) -> List[Dict]:
    """Cycles and one seeded random tree at n vertices, r = 1..4.

    Each spec carries an explicit comparison set ``m``, so no exact solver
    runs: every (2r+1)-th vertex of the cycle, and the tree vertices whose
    depth from vertex 0 is a multiple of r+1.
    """
    depth = bfs_depths(rd.generators.gen_random_tree(n, seed), [0])
    specs = [{"family": "cycle", "n": n, "r": r, "f_r": 1, "algo": "rmds",
              "m": list(range(0, n, 2 * r + 1))} for r in range(1, 5)]
    specs += [{"family": "tree", "n": n, "seed": seed, "r": r, "f_r": 1,
               "algo": "rmds",
               "m": [v for v in sorted(depth) if depth[v] % (r + 1) == 0]}
              for r in range(1, 5)]
    return specs


class ScaleAnalysis(_OpWorkload):
    """``run_experiment`` with every lemma check evaluated at n = 1000."""

    PASS_S = 7.0

    def __init__(self, rd, seed: int, out_dir: Path):
        super().__init__()
        self.ops = [self._experiment(rd, spec) for spec in scale_specs(rd, seed)]

    @staticmethod
    def _experiment(rd, spec) -> Op:
        label = " ".join(f"{k}={spec[k]}" for k in ("family", "n", "seed", "r")
                         if k in spec)

        def judge(result):
            failures = list(result.failures)
            return failures, digest(result.csv_line() + "|"
                                    + ",".join(failures))

        return Op(label, lambda: rd.experiments.run_experiment(spec), judge)


class Simulate(_OpWorkload):
    """``run_simulation`` driven directly on graphs built during set-up.

    The last op is a known defect kept on purpose: on C_255 at r = 63 the
    back-propagation bitsets carry 63 bits against a cap of 17, so it fails
    the ``bits`` check until the bitset schedule is fixed.
    """

    PASS_S = 4.0

    def __init__(self, rd, seed: int, out_dir: Path):
        super().__init__()
        self.rd = rd
        gen = rd.generators
        cycle = gen.gen_cycle(32768)
        self.ops = [
            self._rmds("rmds cycle n=32768 r=1", cycle, 1),
            self._rmds(f"rmds tree n=16384 seed={seed} r=2",
                       gen.gen_random_tree(16384, seed), 2),
            self._count(f"count tree n=32768 seed={seed} r=3",
                        gen.gen_random_tree(32768, seed), 3),
            self._cycle_is("cycle_is cycle n=32768 r=2", cycle, 2),
            self._rmds("rmds cycle n=255 r=63", gen.gen_cycle(255), 63),
        ]

    def _simulate(self, g, program, r, budget, params=None):
        rd = self.rd
        return lambda: rd.simulator.run_simulation(
            g, getattr(rd.programs, program)(r), params=params,
            round_budget=budget)

    def _common(self, g, sim, rounds_ok) -> List[str]:
        failures = [] if rounds_ok else ["rounds"]
        cap = 2 * self.rd.simulator.id_bits(g.vertex_count) + 1
        if sim.max_message_bits > cap:
            failures.append("bits")
        return failures

    def _rmds(self, label, g, r) -> Op:
        def judge(sim):
            members = {v for v, out in sim.outputs.items() if out.member}
            failures = self._common(g, sim, sim.rounds_executed == 3 * r - 1)
            if {out.selected for out in sim.outputs.values()} != members:
                failures.append("selection")
            if len(bfs_depths(g, members, r)) != g.vertex_count:
                failures.append("dominating")
            text = ";".join(f"{v}:{int(out.member)}:{out.selected}"
                            for v, out in sorted(sim.outputs.items()))
            return failures, digest(f"{sim.rounds_executed}|{text}")

        return Op(label, self._simulate(g, "rmds_program", r, 3 * r - 1), judge)

    def _count(self, label, g, r) -> Op:
        # Recounted on first use, so that set-up holds no checker work.
        truth = functools.cache(lambda: tree_ball_sizes(g, r))

        def judge(sim):
            failures = self._common(g, sim, sim.rounds_executed == r - 1)
            if sim.outputs != truth():
                failures.append("count")
            text = ";".join(f"{v}:{c}" for v, c in sorted(sim.outputs.items()))
            return failures, digest(f"{sim.rounds_executed}|{text}")

        return Op(label, self._simulate(g, "count_neighborhood_program", r,
                                        r - 1), judge)

    def _cycle_is(self, label, g, r) -> Op:
        n = g.vertex_count
        d_set = frozenset(range(0, n, 2 * r + 1))

        def judge(sim):
            chosen = {v for v, out in sim.outputs.items() if out}
            failures = self._common(g, sim, sim.rounds_executed <= 2 * r + 1)
            if any((v + 1) % n in chosen for v in chosen) or chosen & d_set:
                failures.append("independent")
            if 2 * len(chosen) < n - len(d_set):
                failures.append("is_size")
            if len(bfs_depths(g, d_set, r)) != n:
                failures.append("dominating")
            return failures, digest(f"{sim.rounds_executed}|"
                                    + ",".join(map(str, sorted(chosen))))

        return Op(label, self._simulate(g, "cycle_is_program", r, 2 * r + 1,
                                        {"d_member": d_set}), judge)


WORKLOADS = {"corpus": Corpus, "scale_analysis": ScaleAnalysis,
             "simulate": Simulate}
