import itertools
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (ProgramFault, RmdsOutput, approx_report, build_graph,
                     count_neighborhood_program, cycle_is_program,
                     exact_min_rds, experiments, gen_cycle, gen_random_tree,
                     id_bits, is_independent, is_r_dominating, message_widths,
                     rmds_program, rmds_round_budget, run_simulation,
                     selection_oracle)
from rdomsim.programs import _COUNT_LIMIT, _COUNTS

from _support import (admissible, ball, cli_env, graphs, logged, misfits,
                      reference_is_r_dominating, reference_rmds_program,
                      reference_run_simulation, relabelled)


def run_count(g, r):
    return run_simulation(g, count_neighborhood_program(r),
                          round_budget=max(r - 1, 0))


def run_rmds(g, r):
    return run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))


def run_cycle_is(g, r, d_set):
    return run_simulation(g, cycle_is_program(r), params={"d_member": d_set},
                          round_budget=2 * r + 1)


def members_of(outputs):
    return frozenset(v for v, out in outputs.items() if out.member)


def test_count_on_c11():
    sim = run_count(gen_cycle(11), 2)
    assert all(out == 4 for out in sim.outputs.values())
    assert sim.rounds_executed == 1


def test_count_r1_is_plain_degree_in_zero_rounds():
    star = build_graph([(5, leaf) for leaf in range(5)])
    sim = run_count(star, 1)
    assert sim.outputs[5] == 5
    assert all(sim.outputs[leaf] == 1 for leaf in range(5))
    assert sim.rounds_executed == 0
    assert sim.messages_per_round == [0]


def sent_by_value(g, r):
    """The outputs of counting at radius ``r`` on ``g``, and the messages
    sent, grouped by value."""
    outboxes = []
    sim = run_simulation(g, logged(count_neighborhood_program(r), outboxes),
                         round_budget=r - 1)
    assert sim.outputs == run_count(g, r).outputs
    by_value = {}
    for msg in itertools.chain.from_iterable(outboxes):
        if msg is not None:
            by_value.setdefault(msg.value, []).append(msg)
    return sim.outputs, by_value


def test_count_sends_one_shared_message_per_value():
    # Messages are immutable, so every port sending a value may send the
    # one object the table holds for it.
    _, by_value = sent_by_value(gen_random_tree(4096, 0), 3)
    assert len(by_value) > 1 and max(by_value) < _COUNT_LIMIT
    for value, msgs in by_value.items():
        assert all(msg is _COUNTS[value] for msg in msgs), value


@pytest.mark.parametrize("leaves", [_COUNT_LIMIT - 1, _COUNT_LIMIT,
                                    _COUNT_LIMIT + 1])
def test_count_keeps_only_values_below_the_limit(leaves):
    # In round 1 the centre of a star sends its degree on every port.
    star = build_graph([(0, leaf) for leaf in range(1, leaves + 1)])
    outputs, by_value = sent_by_value(star, 2)
    assert outputs == dict.fromkeys(star.vertices, leaves)
    assert sorted(by_value) == [1, leaves]
    assert len(by_value[leaves]) == leaves
    assert (leaves in _COUNTS) == (leaves < _COUNT_LIMIT)
    assert all(value < _COUNT_LIMIT for value in _COUNTS)


def test_count_table_is_empty_after_import():
    code = ("import rdomsim, rdomsim.cli\n"
            "print(len(rdomsim.programs._COUNTS))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_selection_oracle_c7():
    oracle = selection_oracle(gen_cycle(7), 1)
    assert {v: out.selected for v, out in oracle.items()} == {
        0: 6, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 6}
    assert members_of(oracle) == frozenset({2, 3, 4, 5, 6})


def test_selection_oracle_single_vertex():
    g = build_graph([], 1)
    assert selection_oracle(g, 1) == {0: RmdsOutput(True, 0)}


def test_selection_oracle_star_with_max_id_center():
    star = build_graph([(5, leaf) for leaf in range(5)])
    oracle = selection_oracle(star, 1)
    assert oracle == {v: RmdsOutput(v == 5, 5) for v in range(6)}


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=10), relabelled(graphs(max_n=10))),
       st.integers(1, 3))
def test_selection_oracle_matches_networkx_argmax(g, r):
    # Low girth included: the oracle assumes nothing of the graph.
    G = nx.Graph(g.edges())
    G.add_nodes_from(g.vertices)
    ball = {v: set(nx.single_source_shortest_path_length(G, v, cutoff=r))
            for v in G}
    expected = {v: max(ball[v], key=lambda u: (len(ball[u]), u)) for v in G}
    members = set(expected.values())
    assert selection_oracle(g, r) == {
        v: RmdsOutput(v in members, s) for v, s in expected.items()}


def test_rmds_c7_r1():
    assert members_of(run_rmds(gen_cycle(7), 1).outputs) == frozenset({2, 3, 4, 5, 6})


def test_four_claims_hold_on_every_admissible_instance():
    # Rounds, bits, a dominating D and |D| <= (1+4r*f_r)*|M|, with the
    # selection and counting oracles and every lemma check of the proof.
    # The bits are judged by the values sent as well: every message of
    # rmds, of counting and, on cycles, of cycle_is on rmds's set fits the
    # width it is charged, and together the three send every message type.
    kinds = set()

    @settings(max_examples=200, deadline=None)
    @given(admissible())
    def check(inst):
        g, r, n = inst.g, inst.r, inst.g.vertex_count
        outboxes = []
        sim = run_simulation(g, logged(rmds_program(r), outboxes),
                             round_budget=rmds_round_budget(r))
        assert sim.rounds_executed == 3 * r - 1
        assert sim.max_message_bits <= 2 * id_bits(n) + 1
        assert sim.outputs == selection_oracle(g, r)
        count = run_simulation(g, logged(count_neighborhood_program(r),
                                         outboxes),
                               round_budget=max(r - 1, 0))
        assert count.outputs == {v: len(ball(g, v, r)) - 1
                                 for v in g.vertices}
        members = members_of(sim.outputs)
        assert reference_is_r_dominating(g, members, r)
        if inst.spec["family"] == "cycle":
            run_simulation(g, logged(cycle_is_program(r), outboxes),
                           params={"d_member": members},
                           round_budget=2 * r + 1)
        assert misfits(outboxes, n) == []
        kinds.update(type(msg) for outbox in outboxes for msg in outbox)
        m, source = ((inst.m, "supplied") if inst.m is not None
                     else (exact_min_rds(g, r), "exact"))
        report = approx_report(g, r, inst.f_r, sim, m, source)
        assert all(ok is True for ok in report.checks.values()), \
            report.checks

    check()
    assert kinds - {type(None)} == set(message_widths(1))


def test_admissible_draws_every_family_with_and_without_shuffled_ids():
    seen = set()

    @settings(max_examples=200, derandomize=True, database=None)
    @given(admissible())
    def draw(inst):
        seen.add((inst.spec["family"], inst.ids is not None))
    draw()
    assert seen == set(itertools.product(experiments._FAMILIES, (False, True)))


def test_rmds_c11_r2():
    sim = run_rmds(gen_cycle(11), 2)
    assert members_of(sim.outputs) == frozenset({4, 5, 6, 7, 8, 9, 10})
    assert sim.rounds_executed == rmds_round_budget(2) == 5


def test_rmds_trace_on_c11_r1():
    # Round 1 sends each vertex's own candidate and round 2 its chosen one,
    # both on every port: 22 candidates of 2 * id_bits(11) = 8 bits.
    records = []
    sim = run_simulation(gen_cycle(11), rmds_program(1), round_budget=2,
                         trace=records.append)
    assert records == [
        {"round": 1, "live": 11, "sent": 22, "bits_max": 8,
         "bits_total": 176},
        {"round": 2, "live": 11, "sent": 22, "bits_max": 8,
         "bits_total": 176},
        {"round": 3, "live": 11, "sent": 0, "bits_max": 0, "bits_total": 0}]
    assert sim.max_message_bits == 8


def test_rmds_on_every_id_order_of_every_small_tree():
    # networkx enumerates the free trees, one per isomorphism class; their
    # counts for n = 2..12 are OEIS A000055.  Every tree with n <= 6, under
    # every ID order, at r = 1..3: 3r-1 rounds, the oracle's outputs, the
    # outputs and message counts of the one-bit reference program, a
    # dominating D, |D| <= (1+4r)*|OPT| and every lemma check with M = OPT
    # at f_r = 1.  OPT is found once per tree and r; its image under the
    # relabelling is a minimum of the relabelled tree.
    assert [sum(1 for _ in nx.nonisomorphic_trees(n))
            for n in range(2, 13)] == \
        [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    trees = [[]] + [list(t.edges) for n in range(2, 7)
                    for t in nx.nonisomorphic_trees(n)]
    for edges in trees:
        n = len(edges) + 1
        opts = {r: exact_min_rds(build_graph(edges, n), r) for r in (1, 2, 3)}
        for ids in itertools.permutations(range(n)):
            g = build_graph([(ids[u], ids[v]) for u, v in edges], n)
            for r, opt in opts.items():
                sim = run_rmds(g, r)
                assert sim.rounds_executed == 3 * r - 1
                assert sim.outputs == selection_oracle(g, r)
                reference = reference_run_simulation(
                    g, reference_rmds_program(r),
                    round_budget=rmds_round_budget(r))
                assert (sim.outputs, sim.messages_per_round) == \
                    (reference.outputs, reference.messages_per_round)
                members = members_of(sim.outputs)
                assert reference_is_r_dominating(g, members, r)
                assert len(members) <= (1 + 4 * r) * len(opt)
                m = frozenset(ids[v] for v in opt)
                report = approx_report(g, r, 1, sim, m, "exact")
                assert all(ok is True for ok in report.checks.values()), \
                    (edges, ids, r, report.checks)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [99, 500, 2001])
def test_rmds_on_naturally_labelled_rings_leaves_2r_unselected(n, r):
    # All balls are equally large, so each vertex selects the largest ID
    # within r hops: v + r, or n - 1 near the wrap-around.  Only the 2r
    # smallest IDs are nobody's choice.
    unselected = set(range(n)) - members_of(run_rmds(gen_cycle(n), r).outputs)
    assert unselected == set(range(2 * r))


@pytest.mark.parametrize("n", [7, 8])
def test_rmds_on_a_ring_selects_at_most_n_minus_2r(n):
    # Every ID order of C_n at r = 1 up to rotation, ID 0 fixed at position
    # 0: 720 orders on C_7, 5040 on C_8.  Both have girth >= 4r+3, so the
    # selection oracle gives the simulation's outputs.  No order selects
    # more than the n - 2r that monotone IDs reach (the first order).
    sizes = []
    for rest in itertools.permutations(range(1, n)):
        ids = (0, *rest)
        ring = build_graph([(ids[i], ids[i - 1]) for i in range(n)], n)
        sizes.append(len(members_of(selection_oracle(ring, 1))))
    assert sizes[0] == max(sizes) == n - 2
    # A vertex is selected exactly when it holds the largest ID of some
    # three consecutive vertices, which a uniformly random ID order gives
    # it with probability 1/2: the mean is n/2.
    assert Fraction(sum(sizes), len(sizes)) == Fraction(n, 2)


def test_rmds_single_vertex():
    g = build_graph([], 1)
    sim = run_rmds(g, 1)
    assert members_of(sim.outputs) == frozenset({0})
    assert sim.rounds_executed == 2


def test_rmds_degenerate_r_beyond_diameter():
    g = gen_cycle(9)
    sim = run_rmds(g, 9)
    selected = members_of(sim.outputs)
    assert selected == frozenset({8})  # global (prio, id) argmax
    assert is_r_dominating(g, selected, 9)


@settings(max_examples=30)
@given(graphs(), st.integers(1, 3))
def test_rmds_always_dominates_even_without_girth_promise(g, r):
    # Selection equivalence needs high girth, but the program still halts in
    # 3r-1 rounds, its members are exactly the vertices some vertex
    # selected, and they dominate.
    sim = run_rmds(g, r)
    assert sim.rounds_executed == rmds_round_budget(r)
    members = members_of(sim.outputs)
    assert members == {out.selected for out in sim.outputs.values()}
    assert is_r_dominating(g, members, r)


def test_cycle_is_c9_r1():
    # Gaps {1,2}, {4,5}, {7,8}; representors (lower-ID adjacent member)
    # are 0, 3, 0 — odd distances give 1, 4, 8.
    g = gen_cycle(9)
    sim = run_cycle_is(g, 1, {0, 3, 6})
    joined = frozenset(v for v, out in sim.outputs.items() if out)
    assert joined == frozenset({1, 4, 8})
    assert is_independent(g, joined)
    assert sim.rounds_executed <= 3


def test_cycle_is_whole_cycle_dominating():
    g = gen_cycle(9)
    sim = run_cycle_is(g, 1, set(range(9)))
    assert not any(sim.outputs.values())
    assert sim.rounds_executed == 0


def test_cycle_is_c10_r2():
    # Both gap components have adjacent members 0 and 5, so the lower-ID
    # representor is 0 for each; odd distances to 0 give {1,3} and {7,9}.
    g = gen_cycle(10)
    sim = run_cycle_is(g, 2, {0, 5})
    joined = frozenset(v for v, out in sim.outputs.items() if out)
    assert joined == frozenset({1, 3, 7, 9})


def test_cycle_is_single_member_serves_both_directions():
    g = gen_cycle(5)
    sim = run_cycle_is(g, 2, {0})
    joined = frozenset(v for v, out in sim.outputs.items() if out)
    assert is_independent(g, joined)
    # Odd distance to 0 along the flagged flood, sent on port 0 (toward 1).
    assert joined == frozenset({1, 3})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cycle_is_single_member_gives_an_independent_set(data):
    # One vertex dominates C_n when n <= 2r+1, and both floods then name it.
    # Taking the nearer way gave the two middle vertices of the gap the
    # same distance, so for n = 3 (mod 4) both joined.
    r = data.draw(st.integers(1, 12))
    g = data.draw(relabelled(st.integers(3, 2 * r + 1).map(gen_cycle)))
    d = data.draw(st.sampled_from(g.vertices))
    sim = run_cycle_is(g, r, {d})
    joined = frozenset(v for v, out in sim.outputs.items() if out)
    assert is_independent(g, joined)
    assert 2 * len(joined) >= g.vertex_count - 1
    assert d not in joined


def test_cycle_is_rejects_invalid_dominating_set():
    with pytest.raises(ProgramFault):
        run_cycle_is(gen_cycle(12), 1, {0})


@pytest.mark.parametrize("params", [None, {}])
def test_cycle_is_without_d_member_is_a_program_fault(params):
    with pytest.raises(ProgramFault, match="d_member"):
        run_simulation(gen_cycle(5), cycle_is_program(1), params=params,
                       round_budget=3)


def test_cycle_is_rejects_non_cycle():
    g = build_graph([(0, 1), (1, 2)])
    with pytest.raises(ProgramFault):
        run_cycle_is(g, 1, {1})


@settings(max_examples=30, deadline=None)
@given(st.integers(9, 60), st.integers(1, 2))
def test_cycle_is_properties(n, r):
    g = gen_cycle(n)
    d_set = frozenset(range(0, n, 2 * r + 1))
    sim = run_cycle_is(g, r, d_set)
    joined = frozenset(v for v, out in sim.outputs.items() if out)
    assert is_independent(g, joined)
    assert 2 * len(joined) >= n - len(d_set)
    assert sim.rounds_executed <= 2 * r + 1
    assert not (joined & d_set)


@pytest.mark.parametrize("make", [
    lambda: selection_oracle(gen_cycle(5), 0),
    lambda: rmds_program(0),
    lambda: count_neighborhood_program(0),
    lambda: cycle_is_program(0),
], ids=["selection_oracle", "rmds_program", "count_neighborhood_program",
        "cycle_is_program"])
def test_r_below_one_is_refused(make):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == "r must be >= 1"
