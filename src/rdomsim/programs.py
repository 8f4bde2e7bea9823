"""The three distributed node programs plus the centralized selection oracle.

* neighborhood counting: r-1 rounds of subtree-size exchange, exact whenever
  the girth is at least 4r+3 (the r-1 ball then looks like a tree);
* distance-r dominating set: counting, then r rounds of lexicographic-max
  candidate flooding, then r rounds of back-propagation;
* independent set on a cycle: given a dominating set, flood hop counters
  from its members and take odd distances to each gap's lower-ID endpoint.
"""

from __future__ import annotations

import functools
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from .graphs import Graph, r_balls
from .simulator import (CandidateMsg, CountMsg, FloodMsg, NodeProgram,
                        ProgramFault)


class RmdsOutput(NamedTuple):
    """Per-vertex result: membership in D and the vertex it selected."""

    member: bool
    selected: int


#: C-level constructors, for values built once per port or per node: a
#: ``NamedTuple``'s own ``__new__`` is a Python function.  Each takes the
#: fields as one tuple and builds the same value.
_new_count = functools.partial(tuple.__new__, CountMsg)
_new_candidate = functools.partial(tuple.__new__, CandidateMsg)
_new_flood = functools.partial(tuple.__new__, FloodMsg)
_new_output = functools.partial(tuple.__new__, RmdsOutput)

#: Count values below this share one message each in ``_COUNTS``.
_COUNT_LIMIT = 1 << 10


class _CountTable(dict):
    """The ``CountMsg`` of each count value, made on first use.

    Counts repeat across the graph, and messages are immutable, so every
    port may send the same object.  Only values below ``_COUNT_LIMIT`` are
    kept, so the table stays small whatever the graph; a larger value gets
    a fresh message each time.
    """

    __slots__ = ()

    def __missing__(self, value: int) -> CountMsg:
        msg = _new_count((value,))
        if value < _COUNT_LIMIT:
            self[value] = msg
        return msg


_COUNTS = _CountTable()

#: The value of a ``CountMsg``, read at C level.
_value = itemgetter(0)


def _bind_radius(cls, r: int):
    """The program ``cls`` at radius ``r``, as ``run_simulation`` takes it."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return functools.partial(cls, r)


class CountNeighborhoodProgram(NodeProgram):
    """Computes |N^r(v)| at every vertex in r-1 communication rounds."""

    __slots__ = ("r",)

    def __init__(self, r: int, own_id: int, num_ports: int, params):
        self.r = r

    def _count(self, t: int, inbox) -> Union[List[CountMsg], int]:
        """Counting phase: rounds 1..r of a node, sending in rounds 1..r-1.

        The node keeps no counts: the subtree size last heard on port p is
        the ``CountMsg`` on port p of the inbox, from round 2 on, and is 1
        before that.  Before round r this returns the outbox, which tells
        each neighbor the size of our subtree excluding its own branch; in
        round 1 that is the degree on every port.  Every message comes from
        ``_COUNTS``, so below ``_COUNT_LIMIT`` each value is one object that
        all ports sending it share.  At round r it returns the sum of the
        sizes heard, which equals |N^r(v)| whenever the girth is at least
        4r+3.
        """
        if t == 1:
            if self.r == 1:
                return len(inbox)
            return [_COUNTS[len(inbox)]] * len(inbox)
        total = sum(map(_value, inbox))
        if t == self.r:
            return total
        total += 1
        return [_COUNTS[total - c] for c, in inbox]

    def step(self, round_index, inbox):
        if round_index < self.r:
            return self._count(round_index, inbox), False, None
        return [None] * len(inbox), True, self._count(round_index, inbox)


def count_neighborhood_program(r: int) -> Callable[..., NodeProgram]:
    return _bind_radius(CountNeighborhoodProgram, r)


class RmdsProgram(CountNeighborhoodProgram):
    """Distributed distance-r dominating set in exactly 3r-1 rounds.

    Rounds 1..r count (``_count``).  Rounds r..2r-1 send the best
    (count, ID) candidate seen so far; after absorbing the r-th such send a
    node selects its best, the argmax over its r-ball.  Rounds 2r..3r-1
    back-propagate: round 2r+k-1 answers selection send r-k+1, each node
    sending its ``chosen`` candidate on every port, and a node that hears
    its own send r-k+1 back adopts it as ``chosen``.  The answer comes in
    time.  A node told in round 2r+k-2 that its send r-k+2 is chosen held
    that candidate after r-k+1 absorbs; unless it is the candidate, a
    neighbor sent it the candidate in every send from the first that
    carried it through send r-k+1, which is the send it answers next.  The
    last round answers send 1, which carries the sender's own ID, so every
    selected node learns it is chosen.

    The broadcast tells what one bit per port would, and no message is
    wider than a candidate.  A node puts one candidate object on every port
    of a send, so what v received from u in send j is u's send j; u finding
    that send in its inbox is the OR of its neighbors' bits "this is my
    ``chosen``".  Only vertex x makes a candidate with ID x, and it carries
    x's own count, so two candidates are equal exactly when their IDs are.

    ``best`` is a ``CandidateMsg``, whose tuple order is the (count, ID)
    ranking, and each selection send re-sends that one object.  ``mine``
    is the node's own candidate, its send 1, and ``sent`` the list of its
    sends 2..r, made only when r >= 2.  Each field lives only for the
    phases that read it: counting keeps no state beyond the inbox and sends
    the shared messages of ``_COUNTS``, ``best``, ``mine`` and ``sent`` are
    made when selection starts, and ``chosen`` when back-propagation
    starts.  A step reads ``best`` and ``chosen`` off the node at most
    once, into locals.  ``__init__`` sets ``r`` and ``own`` itself rather
    than through the base class.

    ``chosen`` is one candidate, the lowest-ranked one known to be chosen,
    rather than the set of them.  Sends never fall in rank, and each ranks
    at or above every candidate absorbed before it.  Answers come for the
    later sends first, so each newly chosen candidate ranks at or below
    those before it, and every chosen candidate ranks at or above each
    candidate received in a send still to answer.  A received candidate is
    therefore chosen exactly when it is the lowest-ranked chosen one, and
    the node is a member exactly when that one carries its own ID, as its
    first and lowest send did.
    """

    __slots__ = ("own", "mine", "best", "sent", "chosen")

    def __init__(self, r: int, own_id: int, num_ports: int, params):
        self.r = r
        self.own = own_id

    def step(self, round_index, inbox):
        r, t = self.r, round_index
        if t < r:
            return self._count(t, inbox), False, None
        if t == r:
            best = self.best = self.mine = _new_candidate(
                (self._count(t, inbox), self.own))
            if r > 1:
                self.sent = [None] * (r - 1)
        elif t <= 2 * r:  # absorb selection send t - r
            best = self.best
            if inbox:
                heard = max(inbox)
                if heard > best:
                    best = self.best = heard
        if t < 2 * r:  # selection send t - r + 1
            if t > r:
                self.sent[t - r - 1] = best
            return [best] * len(inbox), False, None
        if t == 2 * r:
            chosen = self.chosen = best
        else:  # the inbox answers send j + 1
            j = 3 * r - t
            sent = self.sent[j - 1] if j else self.mine
            chosen = self.chosen = sent if sent in inbox else self.chosen
        if t < 3 * r:
            return [chosen] * len(inbox), False, None
        output = _new_output((chosen.id == self.own, self.best.id))
        return [None] * len(inbox), True, output


def rmds_program(r: int) -> Callable[..., NodeProgram]:
    return _bind_radius(RmdsProgram, r)


def rmds_round_budget(r: int) -> int:
    """Exact number of communication rounds the program uses."""
    return 3 * r - 1


class CycleIsProgram(NodeProgram):
    """Independent set on a cycle from a given distance-r dominating set.

    ``params['d_member']`` is the dominating set (each vertex reads only its
    own membership).  Dominating vertices flood (hops, id) in both
    directions, flagged on port 0 only, and output False; every gap vertex
    learns the two adjacent dominating vertices, takes the lower-ID one as
    representor, and joins the independent set iff its distance to the
    representor is odd.  When both are the same vertex, the distance is
    the flagged flood's, so distances run 1..n-1 along one side.
    """

    __slots__ = ("r", "own", "is_d", "first0", "first1")

    def __init__(self, r: int, own_id: int, num_ports: int, params):
        if num_ports != 2:
            raise ProgramFault("cycle_is_program requires a cycle (degree 2)")
        self.r = r
        self.own = own_id
        try:
            d_member = params["d_member"]
        except (KeyError, TypeError):
            raise ProgramFault(
                "cycle_is_program requires params['d_member'], the "
                "dominating set") from None
        self.is_d = own_id in d_member
        # The first FloodMsg heard on each port: the nearest dominating
        # vertex that way, and its distance.
        self.first0: Optional[FloodMsg] = None
        self.first1: Optional[FloodMsg] = None

    def step(self, round_index, inbox):
        if self.is_d:
            return [_new_flood((1, self.own, True)),
                    _new_flood((1, self.own, False))], True, False
        # Each port forwards what the other heard, one hop further.
        in0, in1 = inbox
        out = [None if in1 is None
               else _new_flood((in1.hops + 1, in1.id, in1.flag)),
               None if in0 is None
               else _new_flood((in0.hops + 1, in0.id, in0.flag))]
        if self.first0 is None:
            self.first0 = in0
        if self.first1 is None:
            self.first1 = in1
        a, b = self.first0, self.first1
        if a is not None and b is not None:
            # The representor is the lower ID.  When both ends are the same
            # vertex the flagged way counts: the nearer way ties mid-gap.
            way = a if (a.id, not a.flag) < (b.id, not b.flag) else b
            return out, True, way.hops % 2 == 1
        if round_index > 2 * self.r + 1:
            raise ProgramFault(
                "flood incomplete after 2r+1 rounds; the supplied set is not "
                "a valid distance-r dominating set")
        return out, False, None


def cycle_is_program(r: int) -> Callable[..., NodeProgram]:
    return _bind_radius(CycleIsProgram, r)


def selection_oracle(g: Graph, r: int) -> Dict[int, RmdsOutput]:
    """Centralized reference for the rmds outputs, valid without any girth
    assumption: what ``run_simulation(g, rmds_program(r)).outputs`` holds
    whenever the girth is at least 4r+3.

    Vertex v selects the lexicographic argmax of (|N^r(u)|, u) over its
    closed r-ball, and is a member exactly when some vertex selects it.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    balls = r_balls(g, r)
    rank = {u: (len(ball), u) for u, ball in balls.items()}
    sel = {v: max(map(rank.__getitem__, ball))[1]
           for v, ball in balls.items()}
    members = set(sel.values())
    return {v: RmdsOutput(v in members, s) for v, s in sel.items()}
