"""Shared test helpers: graph strategies and brute-force reference solvers."""

import functools
import itertools
import math
import os
import re
import sys
from collections import deque
from pathlib import Path
from typing import (Any, Dict, FrozenSet, List, NamedTuple, Optional, Set,
                    Tuple, get_type_hints)

from hypothesis import strategies as st

import rdomsim
from rdomsim import (BudgetExceeded, CandidateMsg, CountMsg, FloodMsg, Graph,
                     GraphError, NodeProgram, NotDominatingError,
                     OptimumUnknown, ProgramFault, RmdsOutput,
                     SimulationReport, VoronoiDecomposition, build_graph,
                     build_instance, distances, girth, id_bits,
                     message_widths, tightness_dominating_set)
from rdomsim.oracles import _known_optimum
from rdomsim.simulator import Message


def cli_env() -> Dict[str, str]:
    """The environment for a child ``python`` that imports this ``rdomsim``:
    its ``src`` directory put first on ``PYTHONPATH``."""
    src = str(Path(rdomsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Arbitrary small simple graphs (possibly disconnected)."""
    n = draw(st.integers(min_n, max_n))
    all_edges = list(itertools.combinations(range(n), 2))
    if all_edges:
        edges = draw(st.lists(st.sampled_from(all_edges), unique=True,
                              max_size=len(all_edges)))
    else:
        edges = []
    return build_graph(edges, n)


def shuffled(g: Graph, ids) -> Graph:
    """``g`` with vertex v renamed ``ids[v]``, for a permutation ``ids``."""
    return build_graph([(ids[u], ids[v]) for u, v in g.edges()],
                       g.vertex_count)


@st.composite
def relabelled(draw, graph_strategy):
    """Graphs from ``graph_strategy`` with their IDs 0..n-1 shuffled: vertex
    v becomes ``ids[v]`` for a drawn permutation ``ids``.  The ID order is
    all that rmds reads from IDs, and a permutation varies it fully."""
    g = draw(graph_strategy)
    return shuffled(g, draw(st.permutations(range(g.vertex_count))))


class Admissible(NamedTuple):
    """A drawn instance: ``m`` is the tightness family's own set and ``ids``
    the shuffle applied after the build, each None where there is none."""

    spec: Dict[str, int]
    g: Graph
    r: int
    f_r: int
    m: Optional[FrozenSet[int]]
    ids: Optional[List[int]]


#: family -> its drawn parameters; one row per ``experiments._FAMILIES`` key.
_ADMISSIBLE = {
    "cycle": {"n": st.integers(7, 64)},
    "path": {"n": st.integers(1, 64)},
    "tree": {"n": st.integers(1, 64), "seed": st.integers(0, 2 ** 16)},
    "subdivided_k4": {"k": st.integers(2, 8)},
    "tightness": {"r": st.integers(1, 2), "f": st.just(2)},
}


@st.composite
def admissible(draw):
    """An instance of a built-in family that meets the girth premise, small
    enough for ``exact_min_rds``: cycles with n = 7..64, paths and seeded
    trees with n <= 64, subdivided K_4 with k = 2..8, tightness with f = 2
    and r <= 2.  r is drawn with girth >= 4r+3 and r <= n (tightness fixes
    its own), and about half the draws have their IDs shuffled."""
    family = draw(st.sampled_from(sorted(_ADMISSIBLE)))
    spec = draw(st.fixed_dictionaries(
        {"family": st.just(family), **_ADMISSIBLE[family]}))
    g, f_r = build_instance(spec)
    n = g.vertex_count
    r = spec.get("r") or draw(st.integers(1, min(n, (girth(g) - 3) // 4)))
    m = tightness_dominating_set(r, spec["f"]) if "f" in spec else None
    ids = draw(st.none() | st.permutations(range(n)))
    if ids is not None:
        g = shuffled(g, ids)
        m = m and frozenset(ids[v] for v in m)
    return Admissible(spec, g, r, f_r, m, ids)


@st.composite
def spoilt(draw, tokens: List[bytes], max_id: int) -> List[bytes]:
    """The tokens of a graph or set file body, as given or with one or two
    replaced by: a digit run of up to 5000 digits (or an ID up to
    ``max_id``), such a run behind a '-', one of ``+1``, ``1_0`` and
    ``1.0``, which int() reads, or a byte that is not ASCII, alone or
    behind a digit."""
    lengths = st.integers(1, 5000) | st.sampled_from([4300, 4301, 5000])
    runs = (st.integers(0, max_id).map(lambda v: str(v).encode())
            | lengths.map(lambda k: b"7" * k))
    other = st.one_of(
        runs, runs.map(b"-".__add__), st.sampled_from([b"+1", b"1_0", b"1.0"]),
        st.tuples(st.sampled_from([b"", b"1"]), st.integers(128, 255)).map(
            lambda t: t[0] + bytes([t[1]])))
    tokens = list(tokens)
    if tokens:
        places = st.lists(st.integers(0, len(tokens) - 1), min_size=1,
                          max_size=2)
        for i in draw(st.just(()) | places):
            tokens[i] = draw(other)
    return tokens


def reference_ids(tokens) -> Optional[List[int]]:
    """The IDs that ``tokens`` spell when each is a run of ASCII digits
    that int() converts, else None."""
    limit = sys.get_int_max_str_digits() or math.inf
    if all(re.fullmatch(rb"[0-9]+", tok) and len(tok) <= limit
           for tok in tokens):
        return [int(tok) for tok in tokens]
    return None


def ball(g: Graph, v: int, r: int) -> FrozenSet[int]:
    """Closed distance-r neighborhood of ``v``, by a plain queue BFS that
    shares no code with the library's ``distances`` or ``r_balls``."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        if dist[u] == r:
            continue
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return frozenset(dist)


def view(g: Graph, v: int, t: int) -> Tuple[Graph, Tuple[int, ...]]:
    """``v``'s t-view: the graph of every edge of ``g`` with an end within
    distance t of ``v``, on ``v`` and those edges' ends, relabelled 0..k-1
    in ID order.  Every vertex within distance t keeps its degree, and the
    order-preserving relabelling keeps its ports and every ID comparison.
    Returns the view and ``ids``: view vertex i is vertex ``ids[i]`` of
    ``g``."""
    near = ball(g, v, t)
    edges = [(a, b) for a, b in g.edges() if a in near or b in near]
    ids = tuple(sorted(near.union(*edges)))
    label = {u: i for i, u in enumerate(ids)}
    return build_graph([(label[a], label[b]) for a, b in edges],
                       len(ids)), ids


def cells(dec: VoronoiDecomposition) -> Dict[int, FrozenSet[int]]:
    """Each center's cell, the vertices ``dec.assignment`` maps to it."""
    members: Dict[int, Set[int]] = {m: set() for m in dec.centers}
    for v, m in dec.assignment.items():
        members[m].add(v)
    return {m: frozenset(vs) for m, vs in members.items()}


def enumerate_min_rds(g: Graph, r: int) -> frozenset:
    """Oracle-of-the-oracle: smallest dominating set by full enumeration.

    Only for |V| <= 16.
    """
    assert g.vertex_count <= 16
    verts = g.vertices
    for size in range(g.vertex_count + 1):
        for combo in itertools.combinations(verts, size):
            if reference_is_r_dominating(g, combo, r):
                return frozenset(combo)
    raise AssertionError("unreachable: V itself always dominates")


def reference_greedy_rds(g: Graph, r: int) -> FrozenSet[int]:
    """Slow greedy oracle: every gain recomputed at every step, O(n²)
    ball intersections.

    Repeatedly add the vertex covering the most uncovered vertices, ties
    broken by smaller ID.  This is ``greedy_rds`` as it was before the lazy
    heap.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    balls = {v: ball(g, v, r) for v in g.vertices}
    uncovered = set(g.vertices)
    chosen: List[int] = []
    while uncovered:
        best = max(g.vertices, key=lambda v: (len(balls[v] & uncovered), -v))
        chosen.append(best)
        uncovered -= balls[best]
    return frozenset(chosen)


def _reference_packing_lower_bound(uncovered: FrozenSet[int],
                                   balls: Dict[int, FrozenSet[int]]) -> int:
    """Greedy set of uncovered vertices with pairwise disjoint candidate
    coverers; any cover needs one distinct vertex per member."""
    blocked: Set[int] = set()
    count = 0
    for v in sorted(uncovered, key=lambda u: (len(balls[u]), u)):
        if balls[v].isdisjoint(blocked):
            count += 1
            blocked |= balls[v]
    return count


def reference_exact_min_rds(g: Graph, r: int, *, vertex_cap: int = 200,
                            node_budget: int = 10_000_000) -> FrozenSet[int]:
    """Slow exact oracle: the branch and bound as it was before the known
    optimum size, searching on until nothing smaller can exist.

    Set cover over closed r-balls: branch on an uncovered vertex with the
    fewest remaining candidate coverers, prune with the greedy upper bound
    and the larger of a disjoint-ball packing bound and
    ceil(uncovered / max ball size).  Raises OptimumUnknown when the node
    budget is exhausted.  ``exact_min_rds`` must return the same set
    whenever this returns one.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.vertex_count > vertex_cap:
        raise OptimumUnknown(
            f"instance has {g.vertex_count} vertices, above cap {vertex_cap}")
    if g.vertex_count == 0:
        return frozenset()
    balls = {v: ball(g, v, r) for v in g.vertices}
    max_ball = max(len(b) for b in balls.values())
    best = sorted(reference_greedy_rds(g, r))
    nodes = 0

    def search(chosen: List[int], uncovered: FrozenSet[int],
               excluded: FrozenSet[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise OptimumUnknown(f"search node budget {node_budget} exhausted")
        if not uncovered:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        bound = max(_reference_packing_lower_bound(uncovered, balls),
                    -(-len(uncovered) // max_ball))
        if len(chosen) + bound >= len(best):
            return
        target = min(uncovered,
                     key=lambda v: (len(balls[v] - excluded), v))
        candidates = sorted(balls[target] - excluded,
                            key=lambda c: (-len(balls[c] & uncovered), c))
        banned = set(excluded)
        for c in candidates:
            chosen.append(c)
            search(chosen, uncovered - balls[c], frozenset(banned))
            chosen.pop()
            banned.add(c)

    search([], frozenset(g.vertices), frozenset())
    return frozenset(best)


def _rescanning_packing_lower_bound(uncovered: FrozenSet[int],
                                    balls: Dict[int, FrozenSet[int]],
                                    order: List[int]) -> int:
    """``_packing_lower_bound`` as it was before it walked only the
    uncovered vertices."""
    blocked: Set[int] = set()
    count = 0
    for v in order:
        if v in uncovered and balls[v].isdisjoint(blocked):
            count += 1
            blocked |= balls[v]
    return count


def rescanning_exact_min_rds(g: Graph, r: int, *, vertex_cap: int = 200,
                             node_budget: int = 10_000_000) -> FrozenSet[int]:
    """Exact oracle that rescans: ``exact_min_rds`` as it was before the
    incremental search, stopping at the known optimum size but rebuilding
    ``balls[v] - excluded`` for every uncovered vertex at every node and
    computing both bounds at every node.

    The body is that earlier solver's, with the greedy set taken from
    ``reference_greedy_rds``.  ``exact_min_rds`` visits the same nodes in
    the same order, so at every node budget both return the same set or
    both raise OptimumUnknown.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.vertex_count > vertex_cap:
        raise OptimumUnknown(
            f"instance has {g.vertex_count} vertices, above cap {vertex_cap}")
    if g.vertex_count == 0:
        return frozenset()
    balls = {v: ball(g, v, r) for v in g.vertices}
    best = sorted(reference_greedy_rds(g, r))
    k = _known_optimum(g, r)
    if len(best) == k:
        return frozenset(best)
    prune_at = math.inf if k is None else k + 1
    max_ball = max(len(b) for b in balls.values())
    order = sorted(g.vertices, key=lambda u: (len(balls[u]), u))
    nodes = 0

    def search(chosen: List[int], uncovered: FrozenSet[int],
               excluded: FrozenSet[int]) -> bool:
        """True once ``best`` has k vertices, which ends the search."""
        nonlocal best, nodes
        nodes += 1
        if nodes > node_budget:
            raise OptimumUnknown(f"search node budget {node_budget} exhausted")
        if not uncovered:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return len(best) == k
        bound = max(_rescanning_packing_lower_bound(uncovered, balls, order),
                    -(-len(uncovered) // max_ball))
        if len(chosen) + bound >= min(len(best), prune_at):
            return False
        target = min(uncovered,
                     key=lambda v: (len(balls[v] - excluded), v))
        candidates = sorted(balls[target] - excluded,
                            key=lambda c: (-len(balls[c] & uncovered), c))
        banned = set(excluded)
        for c in candidates:
            chosen.append(c)
            if search(chosen, uncovered - balls[c], frozenset(banned)):
                return True
            chosen.pop()
            banned.add(c)
        return False

    search([], frozenset(g.vertices), frozenset())
    return frozenset(best)


def reference_max_packing(g: Graph, r: int) -> FrozenSet[int]:
    """A maximum 2r-packing of a forest: a largest set of vertices pairwise
    more than 2r apart, by one leaf-up pass per tree, O(n).

    Each vertex v, deepest first, hears from each child the distance to
    the nearest member kept below it and counts itself as a member at
    distance 0.  Members nearer than 2r+1 to one another through v are
    resolved by keeping the farthest from v: of the near ones (distance
    at most r) at most one survives, and only if it is far enough from
    every far one.  v then reports the nearest survivor to its parent.
    Two members below one child are at least 2r+1 apart through a vertex
    below v, so the farther one never conflicts with a survivor, and only
    the nearest member of each child can take part in a conflict.

    On a tree this size is the minimum distance-r dominating set size
    (A. Meir and J. W. Moon, Pacific J. Math. 61(1), 1975): an independent
    certificate for Slater's count.
    """
    members: Set[int] = set()
    heard: Dict[int, List[Tuple[int, int]]] = {}
    for root in g.vertices:
        if root in heard:
            continue
        parent = {root: None}
        order = [root]
        for u in order:
            for w in g.neighbors(u):
                if w not in parent:
                    parent[w] = u
                    order.append(w)
        heard.update((v, []) for v in order)
        for v in reversed(order):
            members.add(v)
            found = heard[v] + [(0, v)]
            near = [x for x in found if x[0] <= r]
            far = [x for x in found if x[0] > r]
            kept = far
            if near:
                closest = max(near)
                near.remove(closest)
                if not far or closest[0] + min(far)[0] > 2 * r:
                    kept = far + [closest]
                else:
                    near.append(closest)
                members.difference_update(m for _, m in near)
            if parent[v] is not None:
                d, m = min(kept)
                heard[parent[v]].append((d + 1, m))
    return frozenset(members)


def reference_girth(g: Graph):
    """Slow girth oracle: an untruncated BFS from every vertex, O(n·m).

    For each non-tree edge {u, w} seen from root s the closed walk through
    s has length dist(u) + dist(w) + 1, which never undercuts the girth and
    achieves it for a root on a shortest cycle.
    """
    best = math.inf
    for s in g.vertices:
        dist = {s: 0}
        parent = {s: None}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def reference_is_r_dominating(g: Graph, dominators, r: int) -> bool:
    """Slow domination oracle: the union of one closed r-ball per member."""
    if r < 1:
        raise ValueError("r must be >= 1")
    covered = set()
    for m in set(dominators):
        if m not in g:
            raise GraphError(f"vertex {m!r} out of range for n={g.vertex_count}")
        covered |= ball(g, m, r)
    return len(covered) == g.vertex_count


def reference_voronoi_decompose(g: Graph, centers) -> VoronoiDecomposition:
    """Slow Voronoi oracle: one full BFS per center, O(|centers|·n).

    Each vertex keeps the smallest (distance, center) label seen.
    """
    center_set = frozenset(centers)
    if not center_set:
        raise NotDominatingError("center set is empty")
    for m in center_set:
        if m not in g:
            raise GraphError(f"vertex {m!r} out of range for n={g.vertex_count}")
    label = {}
    for m in sorted(center_set):
        for v, d in distances(g, (m,)).items():
            if v not in label or (d, m) < label[v]:
                label[v] = (d, m)
    missing = [v for v in g.vertices if v not in label]
    if missing:
        raise NotDominatingError(
            f"{len(missing)} vertex(es) unreachable from every center")
    assignment = {v: m for v, (_, m) in label.items()}
    by_center = {m: frozenset(v for v, c in assignment.items() if c == m)
                 for m in sorted(center_set)}
    intercell = []
    for u, v in g.edges():
        cu, cv = assignment[u], assignment[v]
        if cu != cv:
            intercell.append(((u, v), (min(cu, cv), max(cu, cv))))
    # A cell's inner edges, counted from both ends through the adjacency.
    inner = {m: sum(w in cell for v in cell for w in g.neighbors(v)) // 2
             for m, cell in by_center.items()}
    return VoronoiDecomposition(
        centers=center_set, dist={v: d for v, (d, _) in label.items()},
        assignment=assignment, intercell_edges=tuple(intercell),
        quotient_edge_count=len({pair for _, pair in intercell}),
        non_tree_cells=tuple(m for m in sorted(by_center)
                             if inner[m] != len(by_center[m]) - 1))


def reference_run_simulation(g: Graph, program, params: Any = None,
                             round_budget: int = 0,
                             trace=None) -> SimulationReport:
    """Slow simulator oracle: a dict of per-vertex inboxes, rebuilt every
    round, and each message routed and charged one at a time.

    The round loop is the simulator as it was before the flat port buffer.
    It checks each node's outbox as soon as that node steps, so in a round
    where two nodes break the contract in different ways it may report a
    different fault than ``run_simulation``; any other difference is a bug.
    It also charges a ``BackBitMsg``, 1 bit, which only the reference rmds
    program sends and ``run_simulation`` refuses.
    """
    if round_budget < 0:
        raise ValueError("round_budget must be >= 0")
    n = g.vertex_count
    # peers[v][p] = (u, q): port p of v faces port q of u.  Visiting v in
    # ascending ID order hands each neighbor u its next free port, which is
    # v's index in u's sorted neighbor list.
    next_port = dict.fromkeys(g.vertices, 0)
    peers = {}
    for v in g.vertices:
        peers[v] = [(u, next_port[u]) for u in g.neighbors(v)]
        for u in g.neighbors(v):
            next_port[u] += 1
    del next_port  # not needed in the rounds; free it before they start
    nodes = {v: program(v, len(peers[v]), params) for v in g.vertices}
    widths = message_widths(n) | {BackBitMsg: 1}
    inboxes = {v: [None] * len(peers[v]) for v in g.vertices}
    live = list(g.vertices)
    outputs: Dict[int, Any] = {}
    messages_per_round: List[int] = []
    max_bits = 0
    t = 0
    while live:
        t += 1
        if t > round_budget + 1:
            raise BudgetExceeded(
                f"{len(live)} node(s) not halted after {round_budget} "
                f"communication rounds")
        # Messages to nodes that halted earlier are discarded.
        next_inboxes = {v: [None] * len(peers[v]) for v in live}
        sent = bits_max = bits_total = 0
        for v in live:
            outbox, halted, output = nodes[v].step(t, inboxes[v])
            if len(outbox) != len(peers[v]):
                raise ProgramFault(
                    f"vertex {v} produced outbox of length {len(outbox)}, "
                    f"expected {len(peers[v])}")
            for (u, q), msg in zip(peers[v], outbox):
                if msg is None:
                    continue
                bits = widths.get(type(msg))
                if bits is None:
                    raise ProgramFault(
                        f"unknown message type {type(msg).__name__}")
                bits_max = max(bits_max, bits)
                bits_total += bits
                sent += 1
                if u in next_inboxes:
                    next_inboxes[u][q] = msg
            if halted:
                outputs[v] = output
        messages_per_round.append(sent)
        max_bits = max(max_bits, bits_max)
        if trace is not None:
            trace({"round": t, "live": len(live), "sent": sent,
                   "bits_max": bits_max, "bits_total": bits_total})
        live = [v for v in live if v not in outputs]
        inboxes = next_inboxes
    return SimulationReport(outputs=outputs,
                            rounds_executed=max(t - 1, 0),
                            max_message_bits=max_bits,
                            messages_per_round=messages_per_round)


class OutboxLog(NodeProgram):
    """Steps the node that ``program`` builds, with the run's params, and
    appends every outbox it returns to ``log``, a list."""

    def __init__(self, program, log: list, own_id: int, num_ports: int,
                 params):
        self.node = program(own_id, num_ports, params)
        self.log = log

    def step(self, round_index, inbox):
        result = self.node.step(round_index, inbox)
        self.log.append(result[0])
        return result


def logged(program, log: list):
    """``program`` with every outbox of every node appended to ``log``."""
    return functools.partial(OutboxLog, program, log)


def misfits(outboxes, n: int) -> List[Message]:
    """The messages in ``outboxes`` that do not encode in ``message_widths``
    on an n-vertex instance: a field declared ``int`` that is not an int in
    0..2^id_bits(n)-1, or one declared ``bool`` that is not a bool."""
    limit = 2 ** id_bits(n)

    def fits(kind, x):
        return type(x) is kind and (kind is bool or 0 <= x < limit)

    sent = set(itertools.chain.from_iterable(outboxes)) - {None}
    return [msg for msg in sent if not all(
        map(fits, get_type_hints(type(msg)).values(), msg))]


class BackBitMsg(NamedTuple):
    """Back-propagation answer of the reference rmds program: whether the
    candidate received on this port is chosen."""

    chosen: bool


_BACK_BITS = (BackBitMsg(False), BackBitMsg(True))


class ReferenceRmdsProgram(NodeProgram):
    """Slow rmds oracle: the one-bit, per-port protocol that the runtime's
    broadcast back-propagation is checked against.

    It keeps one list of received candidates per port, builds a new
    candidate for every send, and answers each port of a back-propagation
    round with a ``BackBitMsg``: whether the candidate received there is
    chosen.  The step logic and its counting are an earlier
    ``RmdsProgram`` and ``CountNeighborhoodProgram._count``, unchanged.
    """

    __slots__ = ("r", "counts", "own", "best", "sent", "recv", "chosen")

    def __init__(self, r: int, own_id: int, num_ports: int, params):
        self.r = r
        self.counts = [1] * num_ports
        self.own = own_id
        self.best: Optional[Tuple[int, int]] = None
        self.sent: List[CandidateMsg] = []
        self.recv: List[List[CandidateMsg]] = [[] for _ in range(num_ports)]
        self.chosen: Optional[set] = None

    def _count(self, t: int, inbox) -> Optional[List[CountMsg]]:
        if t >= 2:
            self.counts = [msg.value for msg in inbox]
        if t == self.r:
            return None
        total = sum(self.counts)
        return [CountMsg(1 + total - c) for c in self.counts]

    def step(self, round_index, inbox):
        r, t = self.r, round_index
        if t <= r:
            out = self._count(t, inbox)
            if out is not None:
                return out, False, None
            self.best = (sum(self.counts), self.own)
        elif t <= 2 * r:  # absorb selection send t - r
            for recv, msg in zip(self.recv, inbox):
                recv.append(msg)
                self.best = max(self.best, (msg.prio, msg.id))
        elif any(msg.chosen for msg in inbox):  # answers to send 3r - t + 1
            self.chosen.add(self.sent[3 * r - t].id)
        if t < 2 * r:
            msg = CandidateMsg(*self.best)
            self.sent.append(msg)
            return [msg] * len(inbox), False, None
        if t == 2 * r:
            self.chosen = {self.best[1]}
        if t < 3 * r:  # answer selection send 3r - t on every port
            k = 3 * r - t - 1
            return [_BACK_BITS[recv[k].id in self.chosen]
                    for recv in self.recv], False, None
        output = RmdsOutput(self.own in self.chosen, self.best[1])
        return [None] * len(inbox), True, output


def reference_rmds_program(r: int):
    """``ReferenceRmdsProgram`` at radius ``r``, as a simulator takes it."""
    return functools.partial(ReferenceRmdsProgram, r)


_new_count = functools.partial(tuple.__new__, CountMsg)
_new_flood = functools.partial(tuple.__new__, FloodMsg)


class ReferenceCountNeighborhoodProgram(NodeProgram):
    """Counting oracle: the program as it was while it kept a ``counts``
    list and sent one new message per port in round 1, unchanged."""

    __slots__ = ("r", "counts")

    def __init__(self, r: int, own_id: int, num_ports: int, params):
        self.r = r
        self.counts = [1] * num_ports

    def _count(self, t: int, inbox) -> Optional[List[CountMsg]]:
        """Counting phase: rounds 1..r of a node, sending in rounds 1..r-1.

        From round 2 on, ``counts[p]`` takes the subtree size last heard on
        port p.  Before round r this returns the outbox, which tells each
        neighbor the size of our subtree excluding its own branch.  At round
        r it returns None: ``sum(counts)`` is then final, and equals
        |N^r(v)| whenever the girth is at least 4r+3.
        """
        if t >= 2:
            self.counts = [msg.value for msg in inbox]
        if t == self.r:
            return None
        total = sum(self.counts)
        return [_new_count((1 + total - c,)) for c in self.counts]

    def step(self, round_index, inbox):
        out = self._count(round_index, inbox)
        if out is not None:
            return out, False, None
        return [None] * len(inbox), True, sum(self.counts)


def reference_count_program(r: int):
    """``ReferenceCountNeighborhoodProgram`` at radius ``r``."""
    return functools.partial(ReferenceCountNeighborhoodProgram, r)


class ReferenceCycleIsProgram(NodeProgram):
    """Cycle independent-set oracle: the program as it was while it looped
    over its ports and kept a tuple per port, with the flagged tie rule.

    ``params['d_member']`` is the dominating set (each vertex reads only its
    own membership).  Dominating vertices flood (hops, id) in both
    directions, flagged on port 0 only, and output False; every gap vertex
    learns the two adjacent dominating vertices, takes the lower-ID one as
    representor, and joins the independent set iff its distance to the
    representor is odd, along the flagged flood when both are the same.
    """

    __slots__ = ("r", "own", "is_d", "got")

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
        self.got: List[Optional[Tuple[int, int, bool]]] = [None, None]

    def step(self, round_index, inbox):
        if self.is_d:
            return [_new_flood((1, self.own, p == 0)) for p in range(2)], \
                True, False
        out: List[Optional[Message]] = [None, None]
        for p, msg in enumerate(inbox):
            if msg is not None:
                if self.got[p] is None:
                    self.got[p] = (msg.id, msg.hops, msg.flag)
                out[1 - p] = _new_flood((msg.hops + 1, msg.id, msg.flag))
        if self.got[0] is not None and self.got[1] is not None:
            representor = min(self.got[0][0], self.got[1][0])
            # The flagged flood's hops win when both ends are the same.
            dist = max((f, h) for i, h, f in self.got if i == representor)[1]
            return out, True, dist % 2 == 1
        if round_index > 2 * self.r + 1:
            raise ProgramFault(
                "flood incomplete after 2r+1 rounds; the supplied set is not "
                "a valid distance-r dominating set")
        return out, False, None


def reference_cycle_is_program(r: int):
    """``ReferenceCycleIsProgram`` at radius ``r``."""
    return functools.partial(ReferenceCycleIsProgram, r)


def reference_adjacency(edges, n: int) -> List[Tuple[int, ...]]:
    """The sorted neighbor tuple of each vertex 0..n-1 of a clean edge
    list, by a plain set per vertex that shares no code with
    ``build_graph``."""
    adj: List[Set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [tuple(sorted(ns)) for ns in adj]


def reference_random_tree_edges(n: int, seed: int) -> List[Tuple[int, int]]:
    """The edges ``(parent, i)`` of ``gen_random_tree(n, seed)``, i = 1..n-1,
    from the LCG that the README documents, without the generator's code:
    the state starts at ``seed`` mod 2^64 and steps to
    6364136223846793005 * state + 1442695040888963407 mod 2^64 per draw; a
    draw is the top 31 bits of the new state, and vertex i's parent is the
    draw mod i."""
    state = seed % 2 ** 64
    edges = []
    for i in range(1, n):
        state = (6364136223846793005 * state + 1442695040888963407) % 2 ** 64
        edges.append(((state >> 33) % i, i))
    return edges
