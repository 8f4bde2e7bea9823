"""Acceptance gate: one test per criterion, over ``builtin_corpus()``.

Each criterion judges every built-in spec whose ``algo``, ``m`` and
``allow_low_girth`` it applies to, so a spec added to the corpus is judged
by every criterion that applies; criterion 6 adds its own cycles.  Each
test prints one pass/fail line, and shared runs and optima are cached.
"""

import itertools
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from rdomsim import (approx_report, build_instance, builtin_corpus,
                     check_structural_lemmas, count_neighborhood_program,
                     cycle_is_program, exact_min_rds, gen_cycle, id_bits,
                     is_independent, is_r_dominating, rmds_program,
                     rmds_round_budget, run_simulation, selection_oracle,
                     tightness_dominating_set, voronoi_decompose)
from rdomsim.cli import EXIT_OK, main

from _support import ball, enumerate_min_rds

#: The committed suite CSV, read only: every change must reproduce it.
REFERENCE_CSV = (Path(__file__).resolve().parents[1]
                 / "bench" / "reference" / "corpus.csv")

CORPUS = tuple(builtin_corpus())


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({title}): FAIL", file=sys.stderr)
        raise
    print(f"criterion {num:2d} ({title}): PASS", file=sys.stderr)


def specs(algo="rmds", m=None, premise=True):
    """The indices into ``CORPUS`` of the specs of ``algo`` that meet the
    girth premise, or with ``premise`` false those that waive it; with ``m``
    given, only those whose ``m`` (default "exact") it is."""
    found = [i for i, spec in enumerate(CORPUS)
             if spec.get("algo", "rmds") == algo
             and m in (None, spec.get("m", "exact"))
             and premise != spec.get("allow_low_girth", False)]
    assert found, "a criterion with no spec to judge shows nothing"
    return found


@lru_cache(maxsize=None)
def instance(i):
    """Spec i's graph, radius and f_r, defaulted as ``run_experiment`` does."""
    spec = CORPUS[i]
    g, family_f_r = build_instance(spec)
    return g, spec.get("r", 1), spec.get("f_r", family_f_r)


@lru_cache(maxsize=None)
def rmds_sim(i):
    g, r, _ = instance(i)
    return run_simulation(g, rmds_program(r),
                          round_budget=rmds_round_budget(r))


@lru_cache(maxsize=None)
def count_sim(i):
    g, r, _ = instance(i)
    return run_simulation(g, count_neighborhood_program(r),
                          round_budget=r - 1)


@lru_cache(maxsize=None)
def comparison_set(i):
    """Spec i's M and its source: the exact optimum, the tightness
    family's own set, or the IDs the spec lists."""
    m = CORPUS[i].get("m", "exact")
    g, r, _ = instance(i)
    if m == "exact":
        return exact_min_rds(g, r), "exact"
    if m == "family":
        return tightness_dominating_set(r, CORPUS[i]["f"]), "supplied"
    return frozenset(m), "supplied"


def selected_set(sim):
    return frozenset(v for v, out in sim.outputs.items() if out.member)


@lru_cache(maxsize=None)
def cycle_is_run(i):
    """cycle_is spec i's D, from rmds or every (2r+1)-th vertex, and the
    reduction's run on it."""
    g, r, _ = instance(i)
    d_set = (frozenset(range(0, g.vertex_count, 2 * r + 1))
             if CORPUS[i].get("d_source", "rmds") == "trivial"
             else selected_set(rmds_sim(i)))
    sim = run_simulation(g, cycle_is_program(r), params={"d_member": d_set},
                         round_budget=2 * r + 1)
    return d_set, sim


def test_every_builtin_spec_is_judged_by_a_criterion():
    # A spec that no criterion's filter picks (say a new algo) is judged by
    # nothing, and the gate would pass without it.
    judged = set(specs()) | set(specs("cycle_is")) | set(specs(premise=False))
    assert judged == set(range(len(CORPUS))), \
        [CORPUS[i] for i in range(len(CORPUS)) if i not in judged]


def test_criterion_01_count_equivalence():
    with criterion(1, "neighborhood-count equivalence"):
        for i in specs():
            g, r, _ = instance(i)
            sim = count_sim(i)
            for v in g.vertices:
                assert sim.outputs[v] == len(ball(g, v, r)) - 1, (CORPUS[i], v)


def test_criterion_02_selection_equivalence():
    with criterion(2, "selection equivalence"):
        for i in specs():
            g, r, _ = instance(i)
            assert rmds_sim(i).outputs == selection_oracle(g, r), CORPUS[i]


def test_criterion_03_domination_validity():
    with criterion(3, "domination validity"):
        for i in specs():
            g, r, _ = instance(i)
            assert is_r_dominating(g, selected_set(rmds_sim(i)), r), CORPUS[i]


def test_criterion_04_approximation_bound():
    with criterion(4, "approximation bound"):
        for i in specs(m="exact"):  # tightness is criterion 5's
            _, r, f_r = instance(i)
            opt, _ = comparison_set(i)
            alg = selected_set(rmds_sim(i))
            assert len(alg) <= (1 + 4 * r * f_r) * len(opt), \
                (CORPUS[i], len(alg), len(opt))


def test_criterion_05_tightness_family():
    with criterion(5, "tightness family lower bound"):
        for i in specs(m="family"):
            g, r, _ = instance(i)
            f = CORPUS[i]["f"]
            opt, _ = comparison_set(i)
            alg = selected_set(rmds_sim(i))
            assert is_r_dominating(g, opt, r), CORPUS[i]
            assert len(alg) >= 4 * r * f * f, (CORPUS[i], len(alg))
            assert len(alg) / (4 * f) >= r * f, (CORPUS[i], len(alg))


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
        for i in specs(m="exact"):
            g, r, _ = instance(i)
            if g.vertex_count <= 16:
                small.append((g, r, len(comparison_set(i)[0])))
        assert small  # the cross-check must actually cover something
        for g, r, size in small:
            assert size == len(enumerate_min_rds(g, r)), (g.vertex_count, r)


def test_criterion_07_lower_bound_reduction():
    with criterion(7, "lower-bound reduction"):
        for i in specs("cycle_is"):
            g, r, _ = instance(i)
            d_set, sim = cycle_is_run(i)
            i_set = frozenset(v for v, out in sim.outputs.items() if out)
            assert is_r_dominating(g, d_set, r), CORPUS[i]
            assert is_independent(g, i_set), CORPUS[i]
            assert 2 * len(i_set) >= g.vertex_count - len(d_set), CORPUS[i]
            assert not (i_set & d_set), CORPUS[i]


def test_criterion_08_structural_lemmas():
    with criterion(8, "structural lemmas and negative control"):
        for i in specs():
            g, r, f_r = instance(i)
            report = approx_report(g, r, f_r, rmds_sim(i), *comparison_set(i))
            for name in ("cells_tree", "single_edge", "quotient_bound",
                         "t_bound", "di_in_T", "di_bound", "do_bound"):
                assert report.checks[name] is True, (CORPUS[i], name)
        # Below the premise the supplied centre's cell holds a cycle.
        for i in specs(premise=False):
            g, _, f_r = instance(i)
            dec = voronoi_decompose(g, comparison_set(i)[0])
            assert check_structural_lemmas(dec, f_r)["cells_tree"] is False


def test_criterion_09_congest_accounting():
    with criterion(9, "message size and round counts"):
        for i in specs():
            g, r, _ = instance(i)
            cap = 2 * id_bits(g.vertex_count) + 1
            sim = rmds_sim(i)
            assert sim.max_message_bits <= cap, CORPUS[i]
            assert sim.rounds_executed == 3 * r - 1, CORPUS[i]
            csim = count_sim(i)
            assert csim.max_message_bits <= cap, CORPUS[i]
            assert csim.rounds_executed == r - 1, CORPUS[i]
        for i in specs("cycle_is"):
            g, r, _ = instance(i)
            _, sim = cycle_is_run(i)
            assert sim.max_message_bits <= 2 * id_bits(g.vertex_count) + 1, \
                CORPUS[i]
            assert sim.rounds_executed <= 2 * r + 1, CORPUS[i]


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
