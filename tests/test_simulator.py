import functools
import gc
import io
import itertools
import json
import tracemalloc
import weakref
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (BackBitMsg, BudgetExceeded, CandidateMsg, CountMsg,
                     FloodMsg, NodeProgram, ProgramFault, build_graph,
                     count_neighborhood_program, cycle_is_program,
                     gen_cycle, gen_path, gen_random_tree, id_bits,
                     message_widths, rmds_program, rmds_round_budget,
                     run_simulation, selection_oracle)
from rdomsim.programs import RmdsProgram

from _support import (ball, graphs, reference_count_program,
                      reference_cycle_is_program, reference_rmds_program,
                      reference_run_simulation, relabelled)


class NeverHalts(NodeProgram):
    def __init__(self, own_id, num_ports, params):
        pass

    def step(self, round_index, inbox):
        return [CountMsg(1)] * len(inbox), False, None


class EchoDegreeSum(NodeProgram):
    """Round 1: send own degree everywhere; round 2: output the inbox sum."""

    def __init__(self, own_id, num_ports, params):
        self.ports = num_ports

    def step(self, round_index, inbox):
        if round_index == 1:
            return [CountMsg(self.ports)] * self.ports, False, None
        total = sum(m.value for m in inbox if m is not None)
        return [None] * self.ports, True, total


def test_a_bare_node_program_does_not_step():
    with pytest.raises(NotImplementedError):
        NodeProgram().step(1, [None])


def test_message_bit_schema():
    n = 11
    width = id_bits(n)
    assert width == 4
    assert message_widths(n) == {CountMsg: width, CandidateMsg: 2 * width,
                                 BackBitMsg: 1, FloodMsg: 2 * width + 1}


def test_one_round_delivery_and_conservation():
    g = gen_cycle(5)
    report = run_simulation(g, EchoDegreeSum, round_budget=1)
    assert report.outputs == {v: 4 for v in g.vertices}
    assert report.rounds_executed == 1
    assert sum(report.messages_per_round) == 10
    assert report.max_message_bits == id_bits(5)


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        run_simulation(gen_cycle(4), NeverHalts, round_budget=5)


def test_outbox_length_mismatch_is_a_program_fault():
    class Bad(NodeProgram):
        def __init__(self, own_id, num_ports, params):
            pass

        def step(self, round_index, inbox):
            return [], True, None

    with pytest.raises(ProgramFault):
        run_simulation(gen_cycle(3), Bad, round_budget=0)


def test_unknown_message_type_is_a_program_fault():
    class SendsInt(NodeProgram):
        def __init__(self, own_id, num_ports, params):
            pass

        def step(self, round_index, inbox):
            return [7] * len(inbox), True, None

    with pytest.raises(ProgramFault, match="unknown message type int"):
        run_simulation(gen_cycle(3), SendsInt, round_budget=0)


def test_determinism_identical_reports():
    g = gen_random_tree(60, 3)
    a = run_simulation(g, rmds_program(2), round_budget=5)
    b = run_simulation(g, rmds_program(2), round_budget=5)
    assert a == b


def test_trace_emits_one_json_line_per_round():
    records = []
    run_simulation(gen_cycle(6), count_neighborhood_program(3),
                   round_budget=2, trace=records.append)
    assert [entry["round"] for entry in records] == [1, 2, 3]
    # One aggregate record per round, a plain dict: 6 nodes, 12 messages
    # of 3 bits each.
    assert records[0] == {"round": 1, "live": 6, "sent": 12, "bits_max": 3,
                          "bits_total": 36}
    assert records[2] == {"round": 3, "live": 6, "sent": 0, "bits_max": 0,
                          "bits_total": 0}
    # README's one-line JSON writer turns the records into JSON lines.
    buf = io.StringIO()
    run_simulation(gen_cycle(6), count_neighborhood_program(3),
                   round_budget=2,
                   trace=lambda rec: buf.write(json.dumps(rec) + "\n"))
    assert list(map(json.loads, buf.getvalue().splitlines())) == records


class PortProbe(NodeProgram):
    """Round 1: send (port, own ID) on every port; round 2: output the inbox."""

    def __init__(self, own_id, num_ports, params):
        self.own_id, self.num_ports = own_id, num_ports

    def step(self, round_index, inbox):
        if round_index == 1:
            return [CandidateMsg(q, self.own_id)
                    for q in range(self.num_ports)], False, None
        return ([None] * self.num_ports, True,
                [(msg.id, msg.prio) for msg in inbox])


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(max_n=12), relabelled(graphs(max_n=12))))
def test_port_wiring_matches_sorted_neighbor_lists(g):
    # Port p of v must face neighbors(v)[p], on the port at which v sits
    # in that neighbor's own sorted list.  The slot table rests on the
    # vertices' ascending order, so the IDs are also drawn shuffled,
    # isolated vertices included.
    report = run_simulation(g, PortProbe, round_budget=1)
    for v in g.vertices:
        assert report.outputs[v] == [(u, g.neighbors(u).index(v))
                                     for u in g.neighbors(v)]


@settings(max_examples=25)
@given(graphs(min_n=2), st.integers(1, 3))
def test_locality_output_depends_only_on_local_ball(g, r):
    # Rerunning on the subgraph induced by N^T[v], for T one larger than the
    # communication rounds used, must reproduce v's output exactly.
    full = run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))
    v = g.vertices[0]
    local = ball(g, v, 3 * r)
    sub_edges = [(a, b) for a, b in g.edges() if a in local and b in local]
    sub = build_graph(sub_edges, g.vertex_count)
    part = run_simulation(sub, rmds_program(r),
                          round_budget=rmds_round_budget(r))
    assert part.outputs[v] == full.outputs[v]


@given(graphs(), st.integers(1, 3))
def test_conservation_no_message_lost(g, r):
    report = run_simulation(g, count_neighborhood_program(r),
                            round_budget=max(r - 1, 0))
    # Counting sends one message per port per communication round.
    expected = (r - 1) * 2 * g.edge_count
    assert sum(report.messages_per_round) == expected


class Staggered(NodeProgram):
    """Sends CountMsg(round) on every port and halts in round 1 + ID mod 3,
    outputting the values that reached its ports in that round.

    With ``params`` "int" or "short", nodes whose ID is a multiple of 4
    break the contract in their last round: they send an ``int``, or an
    outbox one port short.
    """

    def __init__(self, own_id, num_ports, params):
        self.own, self.ports, self.fault = own_id, num_ports, params
        self.last = 1 + own_id % 3

    def step(self, round_index, inbox):
        out = [CountMsg(round_index)] * self.ports
        halted = round_index == self.last
        if halted and self.own % 4 == 0:
            if self.fault == "int":
                out = [7] * self.ports
            elif self.fault == "short":
                out = out[1:]
        return out, halted, [m and m.value for m in inbox]


@st.composite
def simulation_cases(draw):
    """(graph, program, params, round_budget), with shuffled IDs and, about
    half the time, a round budget one short."""
    kind = draw(st.sampled_from(["rmds", "count", "cycle_is", "staggered"]))
    r = draw(st.integers(1, 3))
    short = draw(st.booleans())
    if kind == "cycle_is":
        g = draw(relabelled(st.integers(3, 12).map(gen_cycle)))
        d_set = draw(st.sets(st.sampled_from(g.vertices)))
        return g, cycle_is_program(r), {"d_member": d_set}, 2 * r + 1 - short
    g = draw(relabelled(graphs(min_n=0, max_n=10)))
    if kind == "rmds":
        return g, rmds_program(r), None, rmds_round_budget(r) - short
    if kind == "count":
        return g, count_neighborhood_program(r), None, r - 1 - short
    return g, Staggered, draw(st.sampled_from([None, "int", "short"])), 2 - short


def _outcome(simulate, g, program, params, budget):
    """The report or the exception (type and text), plus the trace records."""
    records = []
    try:
        result = simulate(g, program, params, budget, records.append)
    except Exception as exc:  # compared with the reference's, not handled
        result = (type(exc), str(exc))
    return result, records


@settings(max_examples=300, deadline=None)
@given(simulation_cases())
def test_flat_port_buffer_matches_reference_loop(case):
    # Report, trace records and any exception must match the dict-of-inboxes
    # loop.  No case has two nodes break the contract in different ways in
    # one round, where the two may name different faults.
    assert _outcome(run_simulation, *case) == \
        _outcome(reference_run_simulation, *case)


def test_staggered_halting():
    # On the path 0-1-2, vertex v halts after round v + 1, so 0 halts a
    # round before 1 and 1 a round before 2.  A halted node is not stepped
    # again, yet what its neighbor sends it is still charged, and the
    # neighbor still hears what it sent before halting.
    records = []
    report = run_simulation(build_graph([(0, 1), (1, 2)]), Staggered,
                            round_budget=2, trace=records.append)
    assert [entry["live"] for entry in records] == [3, 2, 1]
    assert report.messages_per_round == [4, 3, 1]
    assert [entry["bits_total"] for entry in records] == \
        [n * id_bits(3) for n in (4, 3, 1)]
    assert report.outputs == {0: [None], 1: [1, 1], 2: [2]}


@st.composite
def gnp_graphs(draw, max_n=14):
    """G(n, p): each pair of the n vertices is an edge with probability p."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [e for e in itertools.combinations(range(n), 2)
             if rnd.random() < p]
    return build_graph(edges, n)


@st.composite
def trees_with_chords(draw, max_n=24):
    """A random tree plus up to four chords, each closing a cycle."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    ends = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(ends, ends), max_size=4)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(sorted(edges), n)


def gen_star(leaves: int):
    """The star K(1, leaves): vertex 0 joined to 1..leaves."""
    return build_graph([(0, v) for v in range(1, leaves + 1)])


@st.composite
def low_girth_rmds_cases(draw):
    """(graph, r, round_budget) off the girth premise, with shuffled IDs and,
    about half the time, a round budget one short.  Small cycles and stars
    run up to r = 8, so that a node hears many selection sends answered."""
    if draw(st.booleans()):
        family = st.one_of(gnp_graphs(), trees_with_chords())
        r = draw(st.integers(1, 5))
    else:
        family = st.one_of(st.integers(3, 16).map(gen_cycle),
                           st.integers(1, 10).map(gen_star))
        r = draw(st.integers(1, 8))
    g = draw(relabelled(family))
    return g, r, rmds_round_budget(r) - draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(low_girth_rmds_cases())
def test_rmds_matches_reference_program_off_the_girth_premise(case):
    # Off the premise only domination is judged elsewhere, so a changed
    # selection would go unseen but for this comparison with the earlier
    # per-port program, run by the dict-of-inboxes loop.
    g, r, budget = case
    assert _outcome(run_simulation, g, rmds_program(r), None, budget) == \
        _outcome(reference_run_simulation, g, reference_rmds_program(r),
                 None, budget)


@st.composite
def low_girth_count_cases(draw):
    """(graph, r, round_budget) off the girth premise, with shuffled IDs and,
    about half the time from r = 2 on, a round budget one short."""
    g = draw(relabelled(st.one_of(gnp_graphs(), trees_with_chords())))
    r = draw(st.integers(1, 5))
    return g, r, max(r - 1 - draw(st.booleans()), 0)


@settings(max_examples=300, deadline=None)
@given(low_girth_count_cases())
def test_count_matches_reference_program_off_the_girth_premise(case):
    # The counts are only right on the premise; off it they must still be
    # those of the earlier program, which kept a list of them.
    g, r, budget = case
    assert _outcome(run_simulation, g, count_neighborhood_program(r), None,
                    budget) == \
        _outcome(reference_run_simulation, g, reference_count_program(r),
                 None, budget)


@st.composite
def cycle_is_cases(draw):
    """(cycle, r, params, round_budget): shuffled IDs, any set D, so that a
    flood may stay incomplete, and about half the time a round budget one
    short."""
    g = draw(relabelled(st.integers(3, 24).map(gen_cycle)))
    d_set = draw(st.sets(st.sampled_from(g.vertices)))
    r = draw(st.integers(1, 6))
    return g, r, {"d_member": d_set}, 2 * r + 1 - draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(cycle_is_cases())
def test_cycle_is_matches_reference_program_for_any_set(case):
    # The outputs, or the "flood incomplete" fault when D is not a
    # distance-r dominating set, must be those of the earlier program.
    g, r, params, budget = case
    assert _outcome(run_simulation, g, cycle_is_program(r), params,
                    budget) == \
        _outcome(reference_run_simulation, g, reference_cycle_is_program(r),
                 params, budget)


class LogsChosen(RmdsProgram):
    """``RmdsProgram`` that logs, in ``params[own_id]``, each new value its
    ``chosen`` takes from round 2r on."""

    def __init__(self, r, own_id, num_ports, params):
        super().__init__(r, own_id, num_ports, params)
        self.log = params.setdefault(own_id, [])

    def step(self, round_index, inbox):
        result = super().step(round_index, inbox)
        if round_index >= 2 * self.r and self.log[-1:] != [self.chosen]:
            self.log.append(self.chosen)
        return result


def test_a_node_chosen_for_several_candidates_keeps_the_lowest():
    # On the path 0-..-6 at r = 2, vertex 2 selects 4, is told that its
    # send carrying 3 is chosen, and then that its own send is: its
    # ``chosen`` takes three distinct IDs, each lower than the last.  The
    # outputs still match the set-keeping reference program.
    g, r = gen_path(7), 2
    logs = {}
    report = run_simulation(g, functools.partial(LogsChosen, r), logs,
                            rmds_round_budget(r))
    assert {v: ids for v, ids in logs.items() if len(ids) > 1} == \
        {1: [3, 2], 2: [4, 3, 2], 3: [4, 3]}
    reference = reference_run_simulation(g, reference_rmds_program(r), None,
                                         rmds_round_budget(r))
    assert report == reference
    assert report.outputs == selection_oracle(g, r)


class LookAlike(NamedTuple):
    """Has the fields of ``CandidateMsg``, but is not a message type."""

    prio: int
    id: int


@pytest.mark.parametrize("simulate", [run_simulation, reference_run_simulation])
@pytest.mark.parametrize("msg, name", [((1, 2), "tuple"),
                                       (LookAlike(1, 2), "LookAlike")])
def test_tuples_are_not_messages(simulate, msg, name):
    # Equal as tuples to a candidate, yet charged by type, so refused.
    assert msg == CandidateMsg(1, 2)

    class Sends(NodeProgram):
        def __init__(self, own_id, num_ports, params):
            pass

        def step(self, round_index, inbox):
            return [msg] * len(inbox), True, None

    with pytest.raises(ProgramFault, match=f"^unknown message type {name}$"):
        simulate(gen_cycle(3), Sends, round_budget=0)


@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99))))
def test_candidates_order_by_prio_then_id(pairs):
    candidates = [CandidateMsg(prio, vid) for prio, vid in pairs]
    assert sorted(candidates) == sorted(candidates,
                                        key=lambda c: (c.prio, c.id))
    assert CandidateMsg(3, 0) > CandidateMsg(2, 9) > CandidateMsg(2, 8)


@pytest.mark.parametrize("msg, name", [
    (CountMsg(1), "value"), (CandidateMsg(1, 2), "id"),
    (BackBitMsg(True), "chosen"), (FloodMsg(1, 2, False), "hops")])
def test_messages_are_immutable_values(msg, name):
    with pytest.raises(AttributeError):
        setattr(msg, name, 0)
    assert hash(msg) == hash(type(msg)(*msg))


@pytest.mark.parametrize("n, width", [(1, 1), (255, 8), (256, 9),
                                      (32768, 16)])
def test_message_widths_per_type(n, width):
    assert message_widths(n) == {CountMsg: width, CandidateMsg: 2 * width,
                                 BackBitMsg: 1, FloodMsg: 2 * width + 1}


class Hoarder(NodeProgram):
    """Keeps every inbox it is given and outputs them all when it halts, in
    round 1 + ID mod 3; sends CountMsg(10 * ID + round) on every port."""

    def __init__(self, own_id, num_ports, params):
        self.own, self.ports = own_id, num_ports
        self.kept = []

    def step(self, round_index, inbox):
        self.kept.append(inbox)
        halted = round_index == 1 + self.own % 3
        out = [CountMsg(10 * self.own + round_index)] * self.ports
        return out, halted, self.kept if halted else None


def test_a_node_may_keep_its_inbox():
    # On the path 0-1-2-3, vertices 0 and 3 halt in round 1, 1 in round 2
    # and 2 in round 3.  Every list a node kept must still hold what reached
    # it in that round, after the rounds that followed.
    path = build_graph([(0, 1), (1, 2), (2, 3)])
    report = run_simulation(path, Hoarder, round_budget=2)
    c = CountMsg
    assert report.outputs == {
        0: [[None]],
        1: [[None, None], [c(1), c(21)]],
        2: [[None, None], [c(11), c(31)], [c(12), None]],
        3: [[None]],
    }
    assert _outcome(run_simulation, path, Hoarder, None, 2) == \
        _outcome(reference_run_simulation, path, Hoarder, None, 2)


class Raises(NodeProgram):
    """Raises an exception of its own from ``step``, not a simulator one."""

    def __init__(self, own_id, num_ports, params):
        pass

    def step(self, round_index, inbox):
        raise LookupError("raised inside step")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("program, params, budget, raises, match", [
    (EchoDegreeSum, None, 1, None, None),
    (NeverHalts, None, 5, BudgetExceeded, "not halted"),
    (Staggered, "short", 2, ProgramFault, "outbox of length"),
    (Staggered, "int", 2, ProgramFault, "unknown message type int"),
    (cycle_is_program(1), None, 3, ProgramFault, "d_member"),
    (Raises, None, 1, LookupError, "inside step"),
], ids=["returns", "budget", "short-outbox", "unknown-type", "constructor",
        "step-raises"])
def test_run_restores_the_collector_state(enabled, program, params, budget,
                                          raises, match):
    # The run pauses the cyclic collector; however it ends, the collector
    # is left as the caller had it, off included.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if raises is None:
            run_simulation(gen_cycle(8), program, params, budget)
        else:
            with pytest.raises(raises, match=match):
                run_simulation(gen_cycle(8), program, params, budget)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@st.composite
def builtin_runs(draw):
    """(graph, program, params, round_budget) for a built-in program that
    halts within its budget, on shuffled IDs."""
    kind = draw(st.sampled_from(["rmds", "count", "cycle_is"]))
    r = draw(st.integers(1, 3))
    if kind == "cycle_is":
        g = draw(relabelled(st.integers(3, 30).map(gen_cycle)))
        d_set = frozenset(v for v, out in selection_oracle(g, r).items()
                          if out.member)
        return g, cycle_is_program(r), {"d_member": d_set}, 2 * r + 1
    g = draw(relabelled(graphs(max_n=12)))
    if kind == "rmds":
        return g, rmds_program(r), None, rmds_round_budget(r)
    return g, count_neighborhood_program(r), None, r - 1


@settings(max_examples=100, deadline=None)
@given(builtin_runs())
def test_builtin_runs_leave_no_cyclic_garbage(case):
    # The collector pause is safe only because a run builds no reference
    # cycle: reference counting alone must free all that it allocates.
    # Freezing moves the test heap out of the collector's reach, so the
    # collection after the run scans only what the run allocated.
    gc.disable()
    gc.freeze()
    try:
        run_simulation(*case)
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        gc.enable()


class Knot:
    """Refers to itself, so only the cyclic collector can free it."""

    def __init__(self):
        self.me = self


class TiesKnots(NodeProgram):
    """Builds a ``Knot`` in its one step and keeps only a weak reference to
    it, in the list passed as ``params``."""

    def __init__(self, own_id, num_ports, params):
        self.refs = params

    def step(self, round_index, inbox):
        self.refs.append(weakref.ref(Knot()))
        return [None] * len(inbox), True, None


def test_cycles_a_program_builds_are_reclaimed_after_the_run():
    # The pause only delays a program's cycles: one collection after the
    # run frees them all.
    refs = []
    run_simulation(gen_cycle(5), TiesKnots, refs)
    assert len(refs) == 5
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


class Watched(Staggered):
    """A ``Staggered`` node that keeps a weak reference to itself in
    ``params`` and outputs, for each of its steps, the vertices whose nodes
    were already freed when it stepped."""

    def __init__(self, own_id, num_ports, params):
        super().__init__(own_id, num_ports, None)
        self.refs = params
        self.seen = []
        params[own_id] = weakref.ref(self)

    def step(self, round_index, inbox):
        self.seen.append(sorted(v for v, ref in self.refs.items()
                                if ref() is None))
        out, halted, _ = super().step(round_index, inbox)
        return out, halted, self.seen


def test_a_halted_node_is_freed_before_the_next_node_steps():
    # On the path 0-..-5, vertex v halts in round 1 + v mod 3.  Vertex 0
    # halts first, and vertex 1, stepping next in the same round, must find
    # it freed; likewise 3 before 4 in round 1, and 2 before 5 in round 3.
    refs = {}
    report = run_simulation(gen_path(6), Watched, refs, round_budget=2)
    assert report.outputs == {
        0: [[]],
        1: [[0], [0, 3]],
        2: [[0], [0, 1, 3], [0, 1, 3, 4]],
        3: [[0]],
        4: [[0, 3], [0, 1, 3]],
        5: [[0, 3], [0, 1, 3, 4], [0, 1, 2, 3, 4]],
    }


def peak_bytes_per_node(g, program, params, budget):
    """The most memory a run of ``program`` on ``g`` holds at once, per
    vertex, as tracemalloc sees it: only what the run allocates counts."""
    tracemalloc.start()
    try:
        run_simulation(g, program, params, round_budget=budget)
        return tracemalloc.get_traced_memory()[1] / g.vertex_count
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("graph, program, params, budget, ceiling", [
    (functools.partial(gen_cycle, 4096), rmds_program(1), None, 2, 304),
    (functools.partial(gen_random_tree, 4096, 0), rmds_program(2), None, 5,
     363),
    (functools.partial(gen_random_tree, 4096, 0), rmds_program(4), None, 11,
     405),
    (functools.partial(gen_random_tree, 4096, 0), rmds_program(8), None, 23,
     543),
    (functools.partial(gen_random_tree, 4096, 0),
     count_neighborhood_program(3), None, 2, 157),
    (functools.partial(gen_cycle, 4096), cycle_is_program(2),
     {"d_member": set(range(0, 4096, 5))}, 5, 250),
], ids=["rmds-cycle-r1", "rmds-tree-r2", "rmds-tree-r4", "rmds-tree-r8",
        "count-tree-r3", "cycle-is-r2"])
def test_peak_memory_per_node(graph, program, params, budget, ceiling):
    # CPython 3.10 to 3.13 measure 273-276, 329-330, 367-368 and 490-493
    # bytes per vertex on the rmds runs, 135-143 on the count run and
    # 227-228 on the cycle_is run, whose nodes halt in different rounds;
    # each ceiling is about 1.1 times the most.  A ``counts`` list per
    # counting node, a ``CountMsg`` of its own per port, a per-node set for
    # ``chosen``, a ``sent`` list or a list per absorbed send beside the one
    # log of an rmds node, a tuple per live node in the simulator, a slot
    # table or slot offsets of ``int`` objects, a copy of the adjacency, or
    # an ``int`` of its own for each node's ID or output key each costs more
    # than the margin.
    assert peak_bytes_per_node(graph(), program, params, budget) <= ceiling
