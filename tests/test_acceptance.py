"""Acceptance gate: one test per criterion, fixed desk-scale corpus.

Each test prints a single pass/fail line for its criterion.  Shared
simulations and exact optima are cached so the whole gate stays fast.
"""

import itertools
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional

from rdomsim import (approx_report,
                     count_neighborhood_program, cycle_is_program, exact_min_rds,
                     gen_complete, gen_cycle, gen_path, gen_random_tree,
                     gen_tightness, id_bits, is_independent, is_r_dominating,
                     rmds_program, rmds_round_budget,
                     run_simulation, selection_oracle, subdivide,
                     tightness_dominating_set, voronoi_decompose,
                     check_structural_lemmas)
from rdomsim.cli import EXIT_OK, main

from _support import ball, enumerate_min_rds

#: The committed suite CSV, read only: every change must reproduce it.
REFERENCE_CSV = (Path(__file__).resolve().parents[1]
                 / "bench" / "reference" / "corpus.csv")


class Instance(NamedTuple):
    label: str
    graph: object
    r: int
    f_r: int
    opt: Optional[frozenset]  # supplied comparison set; None = use the solver


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({title}): FAIL", file=sys.stderr)
        raise
    print(f"criterion {num:2d} ({title}): PASS", file=sys.stderr)


def _subdivided_rmax(k: int) -> int:
    # largest r with girth (k+1)*3 >= 4r+3
    return ((k + 1) * 3 - 3) // 4


@lru_cache(maxsize=None)
def corpus():
    instances = []
    for n in (11, 23, 51):
        for r in range(1, (n - 3) // 4 + 1):
            instances.append(Instance(f"cycle-{n}-r{r}", gen_cycle(n), r, 1, None))
    for n, seed, r in itertools.product((50, 200), (1, 2, 3), (1, 2, 3)):
        instances.append(Instance(f"tree-{n}-s{seed}-r{r}",
                                  gen_random_tree(n, seed), r, 1, None))
    for k in (2, 4, 6):
        base = subdivide(gen_complete(4), k)
        for r in range(1, _subdivided_rmax(k) + 1):
            instances.append(Instance(f"subk4-{k}-r{r}", base, r, 3, None))
    for r, f in ((1, 2), (2, 2)):
        instances.append(Instance(f"tight-{r}-{f}", gen_tightness(r, f), r, f,
                                  tightness_dominating_set(r, f)))
    return tuple(instances)


@lru_cache(maxsize=None)
def path_instances():
    return tuple(Instance(f"path-50-r{r}", gen_path(50), r, 1, None)
                 for r in (1, 2, 3))


@lru_cache(maxsize=None)
def rmds_sim(label):
    inst = {i.label: i for i in corpus() + path_instances()}[label]
    return run_simulation(inst.graph, rmds_program(inst.r),
                          round_budget=rmds_round_budget(inst.r))


@lru_cache(maxsize=None)
def count_sim(label):
    inst = {i.label: i for i in corpus()}[label]
    return run_simulation(inst.graph, count_neighborhood_program(inst.r),
                          round_budget=inst.r - 1)


@lru_cache(maxsize=None)
def exact_opt(label):
    inst = {i.label: i for i in corpus() + path_instances()}[label]
    return exact_min_rds(inst.graph, inst.r)


def selected_set(sim):
    return frozenset(v for v, out in sim.outputs.items() if out.member)


@lru_cache(maxsize=None)
def cycle_is_runs():
    """(n, r, source, d_set, sim) for the lower-bound reduction corpus."""
    runs = []
    for n, r in itertools.product((25, 49), (1, 2)):
        g = gen_cycle(n)
        rmds_d = selected_set(run_simulation(
            g, rmds_program(r), round_budget=rmds_round_budget(r)))
        trivial_d = frozenset(range(0, n, 2 * r + 1))
        for source, d_set in (("rmds", rmds_d), ("trivial", trivial_d)):
            sim = run_simulation(g, cycle_is_program(r),
                                 params={"d_member": d_set},
                                 round_budget=2 * r + 1)
            runs.append((n, r, source, d_set, sim))
    return tuple(runs)


def test_criterion_01_count_equivalence():
    with criterion(1, "neighborhood-count equivalence"):
        for inst in corpus():
            sim = count_sim(inst.label)
            for v in inst.graph.vertices:
                assert sim.outputs[v] == len(
                    ball(inst.graph, v, inst.r)) - 1, (inst.label, v)


def test_criterion_02_selection_equivalence():
    with criterion(2, "selection equivalence"):
        for inst in corpus():
            sim = rmds_sim(inst.label)
            assert sim.outputs == selection_oracle(inst.graph, inst.r), \
                inst.label


def test_criterion_03_domination_validity():
    with criterion(3, "domination validity"):
        for inst in corpus():
            assert is_r_dominating(inst.graph, selected_set(rmds_sim(inst.label)),
                                   inst.r), inst.label


def test_criterion_04_approximation_bound():
    with criterion(4, "approximation bound"):
        for inst in corpus() + path_instances():
            if inst.opt is not None:
                continue  # tightness instances are covered by criterion 5
            opt = exact_opt(inst.label)
            alg = selected_set(rmds_sim(inst.label))
            assert len(alg) <= (1 + 4 * inst.r * inst.f_r) * len(opt), \
                (inst.label, len(alg), len(opt))


def test_criterion_05_tightness_family():
    with criterion(5, "tightness family lower bound"):
        for inst in corpus():
            if inst.opt is None:
                continue
            r, f = inst.r, inst.f_r
            alg = selected_set(rmds_sim(inst.label))
            assert is_r_dominating(inst.graph, inst.opt, r), inst.label
            assert len(alg) >= 4 * r * f * f, (inst.label, len(alg))
            assert len(alg) / (4 * f) >= r * f, (inst.label, len(alg))


def test_criterion_06_cycle_optimum():
    with criterion(6, "cycle optimum and enumeration cross-check"):
        small = []
        for r, m in itertools.product((1, 2), (2, 3, 4, 5)):
            n = (2 * r + 1) * m
            g = gen_cycle(n)
            opt = exact_min_rds(g, r)
            assert len(opt) == m, (n, r)
            assert is_r_dominating(g, opt, r)
            if n <= 16:
                small.append((g, r, len(opt)))
        for inst in corpus():
            if inst.graph.vertex_count <= 16:
                small.append((inst.graph, inst.r,
                              len(exact_min_rds(inst.graph, inst.r))))
        assert small  # the cross-check must actually cover something
        for g, r, size in small:
            assert size == len(enumerate_min_rds(g, r)), (g.vertex_count, r)


def test_criterion_07_lower_bound_reduction():
    with criterion(7, "lower-bound reduction"):
        for n, r, source, d_set, sim in cycle_is_runs():
            i_set = frozenset(v for v, out in sim.outputs.items() if out)
            g = gen_cycle(n)
            assert is_r_dominating(g, d_set, r), (n, r, source)
            assert is_independent(g, i_set), (n, r, source)
            assert 2 * len(i_set) >= n - len(d_set), (n, r, source)
            assert not (i_set & d_set), (n, r, source)


def test_criterion_08_structural_lemmas():
    with criterion(8, "structural lemmas and negative control"):
        for inst in corpus():
            opt, source = ((inst.opt, "supplied") if inst.opt is not None
                           else (exact_opt(inst.label), "exact"))
            report = approx_report(inst.graph, inst.r, inst.f_r,
                                   rmds_sim(inst.label), opt, source)
            for name in ("cells_tree", "single_edge", "quotient_bound",
                         "t_bound", "di_in_T", "di_bound", "do_bound"):
                assert report.checks[name] is True, (inst.label, name)
        dec = voronoi_decompose(gen_cycle(4), {0})
        assert check_structural_lemmas(dec, 1)["cells_tree"] is False


def test_criterion_09_congest_accounting():
    with criterion(9, "message size and round counts"):
        for inst in corpus():
            cap = 2 * id_bits(inst.graph.vertex_count) + 1
            sim = rmds_sim(inst.label)
            assert sim.max_message_bits <= cap, inst.label
            assert sim.rounds_executed == 3 * inst.r - 1, inst.label
            csim = count_sim(inst.label)
            assert csim.max_message_bits <= cap, inst.label
            assert csim.rounds_executed == inst.r - 1, inst.label
        for n, r, source, _, sim in cycle_is_runs():
            assert sim.max_message_bits <= 2 * id_bits(n) + 1, (n, r, source)
            assert sim.rounds_executed <= 2 * r + 1, (n, r, source)


def test_criterion_10_suite_determinism(tmp_path, capsys):
    with criterion(10, "suite determinism"):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["suite", "--builtin", "--csv", str(p)])
            capsys.readouterr()
            assert code == EXIT_OK
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.splitlines()[0].startswith(b"family,n,r,f_r,girth,")
        assert first == REFERENCE_CSV.read_bytes()
