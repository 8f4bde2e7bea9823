"""Deterministic lockstep simulator for synchronous message passing.

Port-numbered model: a vertex addresses its incident edges by port index
(ports sorted by neighbor ID) and never sees neighbor IDs except through
message contents.  A message sent on port p of v in round t is delivered to
the matching port of the neighbor at the start of round t+1.  Per-message
bit accounting follows a fixed width per message type, so CONGEST budgets
can be asserted exactly.  Messages are immutable ``NamedTuple`` values, each
of its own type.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, islice, repeat
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .graphs import Graph, _collector_paused


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class BudgetExceeded(SimulationError):
    """Some node had not halted when the round budget ran out."""


class ProgramFault(SimulationError):
    """A node program signalled an internal contract violation."""


class CountMsg(NamedTuple):
    """Subtree size announcement (one integer field)."""

    value: int


class CandidateMsg(NamedTuple):
    """Selection candidate: (priority, vertex ID), compared lexicographically."""

    prio: int
    id: int


class BackBitMsg(NamedTuple):
    """Back-propagation answer: whether the candidate on this port is chosen."""

    chosen: bool


class FloodMsg(NamedTuple):
    """Hop-counted flood: distance from the originator, its ID, and a flag."""

    hops: int
    id: int
    flag: bool


Message = Union[CountMsg, CandidateMsg, BackBitMsg, FloodMsg]


def id_bits(n: int) -> int:
    """Bits per integer field: ceil(log2(n + 1)) for an n-vertex instance."""
    return max(1, n.bit_length())


def message_widths(n: int) -> Dict[type, int]:
    """Encoded length of each message type on an n-vertex instance.

    Integer fields cost ``id_bits(n)`` bits each and booleans 1 bit, so
    every type has a fixed width.
    """
    width = id_bits(n)
    return {CountMsg: width, CandidateMsg: 2 * width, BackBitMsg: 1,
            FloodMsg: 2 * width + 1}


class NodeProgram:
    """Behavioral contract for one vertex's state machine.

    A program is a callable ``program(own_id, num_ports, params)`` that
    builds the node; the node keeps its own state, and ``step`` advances it
    by one round.  ``inbox`` holds one message (or None) per port; it is a
    fresh list each round, so the node may keep it.  ``step`` returns the
    plain triple ``(outbox, halted, output)``: one message (or None) per port,
    whether the node halts, and its output if it does.  The simulator drops
    its reference to a node as soon as the node halts, within the round, so
    a halted node's state is freed before the next node steps unless its
    output, or something else, still refers to it.  Messages are the
    ``NamedTuple`` types above; any other type, a bare tuple included, is a
    ``ProgramFault``.  Steps must be deterministic: no hidden global state,
    no randomness.  ``run_simulation`` pauses the cyclic garbage collector,
    so a program that builds reference cycles keeps them alive until the
    run ends; the collector's state is process-global, and the runtime is
    single-threaded.
    """

    __slots__ = ()

    def step(self, round_index: int,
             inbox: Sequence[Optional[Message]]
             ) -> Tuple[Sequence[Optional[Message]], bool, Any]:
        raise NotImplementedError


class SimulationReport(NamedTuple):
    """Outcome of one lockstep run.

    ``messages_per_round[t-1]`` counts messages sent in round t (each is
    delivered exactly once at the start of round t+1; a delivery to an
    already-halted vertex is discarded).  ``rounds_executed`` is the number
    of communication rounds, i.e. rounds after the first.  Like the
    messages, an immutable ``NamedTuple`` that compares as a tuple.
    """

    outputs: Dict[int, Any]
    rounds_executed: int
    max_message_bits: int
    messages_per_round: Sequence[int] = ()


def run_simulation(g: Graph, program: Callable[[int, int, Any], NodeProgram],
                   params: Any = None, round_budget: int = 0,
                   trace: Optional[Callable[[Dict[str, int]], Any]] = None
                   ) -> SimulationReport:
    """Build one ``program(v, ports, params)`` node per vertex of ``g`` and
    step them in lockstep.

    Runs until all nodes halt; raises BudgetExceeded if some node is still
    live after ``round_budget`` communication rounds.  ``trace`` may be a
    callable, handed one plain dict per round, ``{"round", "live", "sent",
    "bits_max", "bits_total"}``: the number of nodes stepped, the messages
    they sent, and the widest and summed bits of those messages.
    """
    if round_budget < 0:
        raise ValueError("round_budget must be >= 0")
    # Nothing the simulator or the built-in programs allocate forms a
    # reference cycle.  A cycle that a program builds is held until the
    # collector next runs.
    with _collector_paused():
        verts, adjacency = g.vertices, g._adj
        n = len(verts)
        degrees = list(map(len, adjacency))
        # Every port of every vertex is one slot of a flat buffer: vertex v
        # owns slots lo[v]..lo[v+1]-1, one per port.
        lo = array("q", accumulate(degrees, initial=0))
        # mate[s] is the slot facing slot s.  Slot s is port p of v, facing
        # flat[s], the p-th of v's sorted neighbours, so the slots run in
        # (owner, neighbour) order.  A stable sort by neighbour puts them in
        # (neighbour, owner) order, and as each edge gives one slot at each
        # end, the k-th slot of that order is the one facing slot k.
        flat = list(chain.from_iterable(adjacency))
        mate = array("q", sorted(range(len(flat)), key=flat.__getitem__))
        del flat  # the rounds do not need it; free it first
        # A node that halts is replaced by None at once, so its state is
        # freed before the next node steps.
        nodes = list(map(program, verts, degrees, repeat(params)))
        del degrees
        widths = message_widths(n)
        inbox: List[Optional[Message]] = [None] * len(mate)
        outputs: Dict[int, Any] = {}
        messages_per_round: List[int] = []
        max_bits = 0
        t = 0
        while len(outputs) < n:
            t += 1
            live = n - len(outputs)
            if t > round_budget + 1:
                raise BudgetExceeded(
                    f"{live} node(s) not halted after {round_budget} "
                    f"communication rounds")
            out: List[Optional[Message]] = [None] * len(mate)
            for v, node, a, hi in zip(verts, nodes, lo, islice(lo, 1, None)):
                if node is None:
                    continue
                # The slice is a fresh list, so the node may keep it.
                outbox, halted, output = node.step(t, inbox[a:hi])
                if len(outbox) != hi - a:
                    raise ProgramFault(
                        f"vertex {v} produced outbox of length "
                        f"{len(outbox)}, expected {hi - a}")
                out[a:hi] = outbox
                if halted:
                    outputs[v] = output
                    nodes[v] = node = None
            # Charge every message sent this round, those to halted nodes too.
            kinds = Counter(map(type, out))
            kinds.pop(type(None), None)
            sent = bits_max = bits_total = 0
            for kind, num in kinds.items():
                bits = widths.get(kind)
                if bits is None:
                    raise ProgramFault(f"unknown message type {kind.__name__}")
                sent += num
                bits_total += num * bits
                bits_max = max(bits_max, bits)
            messages_per_round.append(sent)
            max_bits = max(max_bits, bits_max)
            if trace is not None:
                trace({"round": t, "live": live, "sent": sent,
                       "bits_max": bits_max, "bits_total": bits_total})
            if len(outputs) == n:
                break  # no node is live, so no inbox is needed
            # Slot s receives what the facing slot sent.  Halted nodes are
            # never stepped again, so what reaches their slots is discarded.
            # At most two port buffers exist at once: this round's inbox
            # goes before the gather, and the outbox buffer after it.
            del inbox
            inbox = list(map(out.__getitem__, mate))
            del out
        return SimulationReport(outputs=outputs,
                                rounds_executed=max(t - 1, 0),
                                max_message_bits=max_bits,
                                messages_per_round=messages_per_round)
