"""The three distributed node programs plus the centralized selection oracle.

* neighborhood counting: r-1 rounds of subtree-size exchange, exact whenever
  the girth is at least 4r+3 (the r-1 ball then looks like a tree);
* distance-r dominating set: counting, then r rounds of lexicographic-max
  candidate flooding, then r rounds of one-bit back-propagation;
* independent set on a cycle: given a dominating set, flood hop counters
  from its members and take odd distances to each gap's lower-ID endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .graphs import Graph, distances
from .simulator import (BackBitsetMsg, CandidateMsg, CountMsg, FloodMsg,
                        Message, NodeProgram, ProgramFault, StepResult)


class RmdsOutput(NamedTuple):
    """Per-vertex result: membership in D and the vertex it selected."""

    member: bool
    selected: int


@dataclass(frozen=True)
class SelectionMap:
    """Final selection of every vertex and the resulting dominating set.

    The members are exactly the range of ``sel``.
    """

    sel: Dict[int, int]
    members: FrozenSet[int]


class _CountState:
    __slots__ = ("counts",)

    def __init__(self, ports: int):
        self.counts = [1] * ports


def _counting(state, t: int, r: int, inbox) -> Optional[List[CountMsg]]:
    """Counting phase: rounds 1..r of a node, sending in rounds 1..r-1.

    From round 2 on, ``state.counts[p]`` takes the subtree size last heard on
    port p.  Before round r this returns the outbox, which tells each
    neighbor the size of our subtree excluding its own branch.  At round r
    it returns None: ``sum(state.counts)`` is then final, and equals
    |N^r(v)| whenever the girth is at least 4r+3.
    """
    if t >= 2:
        for p, msg in enumerate(inbox):
            state.counts[p] = msg.value
    if t == r:
        return None
    total = sum(state.counts)
    return [CountMsg(1 + total - c) for c in state.counts]


class CountNeighborhoodProgram(NodeProgram):
    """Computes |N^r(v)| at every vertex in r-1 communication rounds."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r

    def init(self, own_id, num_ports, params):
        return _CountState(num_ports)

    def step(self, state, round_index, inbox):
        out = _counting(state, round_index, self.r, inbox)
        if out is not None:
            return StepResult(out, state, False)
        return StepResult([None] * len(inbox), state, True, sum(state.counts))


def count_neighborhood_program(r: int) -> NodeProgram:
    return CountNeighborhoodProgram(r)


class _RmdsState(_CountState):
    __slots__ = ("own", "best", "sent", "recv", "chosen")

    def __init__(self, own: int, ports: int):
        super().__init__(ports)
        self.own = own
        self.best: Optional[Tuple[int, int]] = None
        self.sent: List[CandidateMsg] = []
        self.recv: List[List[CandidateMsg]] = [[] for _ in range(ports)]
        self.chosen: Optional[set] = None


class RmdsProgram(NodeProgram):
    """Distributed distance-r dominating set in exactly 3r-1 rounds.

    Rounds 1..r count (``_counting``).  Rounds r..2r-1 send the best
    (count, ID) candidate seen so far; after absorbing the r-th such send a
    node selects its best, the argmax over its r-ball.  Rounds 2r..3r-1
    back-propagate one bit per port, so no message exceeds the two integer
    fields of a candidate: round 2r+k-1 answers only selection send
    r-k+1, saying whether the candidate received on that port in that send
    is chosen.  The answer comes in time.  A node told in round 2r+k-2
    that its send r-k+2 is chosen held that candidate after r-k+1 absorbs;
    unless it is the candidate, a neighbor sent it the candidate in every
    send from the first that carried it through send r-k+1, which is the
    send it answers next.  The last round answers send 1, which carries
    the sender's own ID, so every selected node learns it is chosen.
    """

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r

    def init(self, own_id, num_ports, params):
        return _RmdsState(own_id, num_ports)

    def step(self, state, round_index, inbox):
        r, t = self.r, round_index
        if t <= r:
            out = _counting(state, t, r, inbox)
            if out is not None:
                return StepResult(out, state, False)
            state.best = (sum(state.counts), state.own)
        elif t <= 2 * r:  # absorb selection send t - r
            for recv, msg in zip(state.recv, inbox):
                recv.append(msg)
                state.best = max(state.best, (msg.prio, msg.id))
        elif any(msg.bits[0] for msg in inbox):  # answers to send 3r - t + 1
            state.chosen.add(state.sent[3 * r - t].id)
        if t < 2 * r:
            msg = CandidateMsg(*state.best)
            state.sent.append(msg)
            return StepResult([msg] * len(inbox), state, False)
        if t == 2 * r:
            state.chosen = {state.best[1]}
        if t < 3 * r:  # answer selection send 3r - t on every port
            out = [BackBitsetMsg((recv[3 * r - t - 1].id in state.chosen,))
                   for recv in state.recv]
            return StepResult(out, state, False)
        output = RmdsOutput(state.own in state.chosen, state.best[1])
        return StepResult([None] * len(inbox), state, True, output)


def rmds_program(r: int) -> NodeProgram:
    return RmdsProgram(r)


def rmds_round_budget(r: int) -> int:
    """Exact number of communication rounds the program uses."""
    return 3 * r - 1


class _CycleIsState:
    __slots__ = ("own", "is_d", "got")

    def __init__(self, own: int, is_d: bool):
        self.own = own
        self.is_d = is_d
        self.got: List[Optional[Tuple[int, int]]] = [None, None]


class CycleIsProgram(NodeProgram):
    """Independent set on a cycle from a given distance-r dominating set.

    ``params['d_member']`` is the dominating set (each vertex reads only its
    own membership).  Dominating vertices flood (hops, id) in both
    directions and output False; every gap vertex learns the two adjacent
    dominating vertices, takes the lower-ID one as representor, and joins
    the independent set iff its distance to the representor is odd.
    """

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r

    def init(self, own_id, num_ports, params):
        if num_ports != 2:
            raise ProgramFault("cycle_is_program requires a cycle (degree 2)")
        return _CycleIsState(own_id, own_id in params["d_member"])

    def step(self, state, round_index, inbox):
        if state.is_d:
            out = [FloodMsg(1, state.own, True), FloodMsg(1, state.own, True)]
            return StepResult(out, state, True, False)
        out: List[Optional[Message]] = [None, None]
        for p, msg in enumerate(inbox):
            if msg is not None:
                if state.got[p] is None:
                    state.got[p] = (msg.id, msg.hops)
                out[1 - p] = FloodMsg(msg.hops + 1, msg.id, msg.flag)
        if state.got[0] is not None and state.got[1] is not None:
            representor = min(state.got[0][0], state.got[1][0])
            dist = min(h for i, h in state.got if i == representor)
            return StepResult(out, state, True, dist % 2 == 1)
        if round_index > 2 * self.r + 1:
            raise ProgramFault(
                "flood incomplete after 2r+1 rounds; the supplied set is not "
                "a valid distance-r dominating set")
        return StepResult(out, state, False)


def cycle_is_program(r: int) -> NodeProgram:
    return CycleIsProgram(r)


def selection_oracle(g: Graph, r: int) -> SelectionMap:
    """Centralized reference selection, valid without any girth assumption.

    sel(v) is the lexicographic argmax of (|N^r(u)|, u) over the closed
    r-ball of v.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    # Each r-ball is built once, as a tuple: a fraction of a frozenset's size.
    balls = {v: tuple(distances(g, (v,), r)) for v in g.vertices}
    sel = {v: max(balls[v], key=lambda u: (len(balls[u]), u))
           for v in g.vertices}
    return SelectionMap(sel=sel, members=frozenset(sel.values()))
