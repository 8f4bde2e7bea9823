"""Immutable simple undirected graphs plus exact sequential primitives.

These routines (BFS distances, closed r-balls, girth) serve as ground
truth for everything the distributed algorithms compute.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Girth of an acyclic graph.
INFINITE = math.inf

#: Most vertices a graph file's header may declare (see ``read_graph``).
_MAX_FILE_VERTICES = 1 << 20
#: The one refusal of a vertex ID that is not an ``int`` in 0..n-1.
_OUT_OF_RANGE = "vertex {!r} out of range for n={}"
#: Most bytes of line 1 that ``read_graph`` reads, far above any header that
#: can pass, so a file with no newline, such as /dev/zero, is refused at once.
#: No token in a graph or set file may be longer either.
_MAX_HEADER_BYTES = 1 << 16
#: Most bytes read at a time from a graph file's body or a set file.
_PIECE_BYTES = 1 << 16


def render_girth(value):
    """A girth as JSON shows it: an int, or "inf" for an acyclic graph."""
    return "inf" if math.isinf(value) else int(value)


class GraphError(ValueError):
    """Malformed graph input, such as an ID out of range or a self-loop."""


class Graph:
    """Simple undirected graph on the vertices 0..n-1.

    ``_adj[v]`` is the sorted tuple of v's neighbors, so a per-vertex table
    is a list indexed by vertex.  Callers with other IDs relabel them to
    0..n-1 first.  Each ID is one ``int`` object, shared by ``vertices``,
    the tuple 0..n-1, and every neighbor tuple that holds it, so a dict
    keyed by vertex, such as a simulation's outputs, makes no ``int`` of
    its own.  Instances are immutable after construction and safe to
    share across threads.

    Facts derived from the graph alone (``girth``, ``r_balls`` and the
    2-core peel ``_peel``) are memoized in ``_memo``, computed at the first
    call and kept as long as the graph.  Each value depends only on the
    graph, so two threads that race on a miss store equal values, and
    sharing stays safe.  No value holds the graph itself.
    """

    __slots__ = ("_adj", "_vertices", "_memo")

    def __init__(self, adjacency: List[Tuple[int, ...]], ids: Sequence[int]):
        self._adj = adjacency
        self._vertices = tuple(ids)
        self._memo: Dict = {}

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def __contains__(self, v) -> bool:
        """The one rule for a vertex ID: an ``int`` in 0..n-1, not a bool."""
        return type(v) is int and 0 <= v < len(self._adj)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        if v in self:
            return self._adj[v]
        raise GraphError(_OUT_OF_RANGE.format(v, len(self._adj)))

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u, ns in zip(self._vertices, self._adj)
                for v in ns if u < v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def build_graph(edges: Iterable[Sequence[int]], n: Optional[int] = None) -> Graph:
    """Build the graph on 0..n-1 from an edge list: any iterable, read once,
    of edges that are each a sequence of two IDs.  ``n`` defaults to one
    more than the largest ID; the rest are isolated vertices.

    A vertex ID is an ``int`` in 0..n-1 other than a ``bool``.  A bad ID,
    a self-loop and a duplicate edge (in either orientation) are hard
    errors: generators are expected to produce clean instances, and silent
    repair would mask their bugs.
    """
    edges = list(edges)
    ends = list(itertools.chain.from_iterable(edges))
    if n is None:
        n = 1 + max((w for w in ends if type(w) is int), default=-1)
    if set(map(len, edges)) - {2}:
        _first_fault(edges, n)  # an earlier fault, or the unpacking fails
    del edges
    return _build(ends, n)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector for a graph build or a simulation run.

    Neither makes a reference cycle, so reference counting frees all they
    discard, and each collection would rescan every list, tuple and node
    made so far only to free nothing.  However the block ends, the
    collector is left as the caller had it: a caller who had already
    turned it off keeps it off.
    """
    collect = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collect:
            gc.enable()


def _build(ends: List[int], n: int) -> Graph:
    """The graph on 0..n-1 whose edge i is ``(ends[2i], ends[2i+1])``, a
    flat list, so that no tuple per edge is made.

    Indexing by a negative ID or a ``bool`` would not fail, so the IDs are
    checked in bulk before the one pass over the edges; only when a check
    fails does ``_first_fault`` rescan the edges in order, so the error
    names the first fault in the input.  Every end is appended as the one
    object ``ids`` holds for its ID.
    """
    def pairs():
        it = iter(ends)
        return zip(it, it)

    with _collector_paused():
        if not (set(map(type, ends)) <= {int}
                and 0 <= min(ends, default=0)
                and max(ends, default=-1) < n):
            _first_fault(pairs(), n)
        ids = list(range(n))
        adj = [[] for _ in ids]
        for u, v in pairs():
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        # A self-loop or a duplicate edge repeats an entry in some list.
        if sum(map(len, map(set, adj))) != len(ends):
            _first_fault(pairs(), n)
        # Each list is freed as its tuple replaces it.
        for v, ns in enumerate(adj):
            ns.sort()
            adj[v] = tuple(ns)
        return Graph(adj, ids)


def _first_fault(edges: Iterable[Sequence[int]], n: int) -> None:
    """Raise ``GraphError`` for the first faulty edge in input order, if
    any: an ID that is not an ``int`` in 0..n-1, then a self-loop, then a
    repeat of an earlier edge."""
    seen = set()
    for u, v in edges:
        for w in (u, v):
            if type(w) is not int or not 0 <= w < n:
                raise GraphError(_OUT_OF_RANGE.format(w, n))
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)


def distances(g: Graph, sources: Iterable[int],
              limit: Optional[int] = None) -> Dict[int, int]:
    """Hop distance from the nearest source, for every vertex within
    ``limit`` hops (all reachable vertices when ``limit`` is None).

    One level-synchronous multi-source BFS, O(n + m).  The dict is in BFS
    order: sources first, in the order given, then each level in the order
    it was discovered, so distances never decrease along it.
    """
    dist: Dict[int, int] = {}
    for s in sources:
        if s not in g:
            raise GraphError(_OUT_OF_RANGE.format(s, g.vertex_count))
        dist[s] = 0
    frontier, adj = list(dist), g._adj
    d = 0
    while frontier and (limit is None or d < limit):
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def r_balls(g: Graph, r: int) -> Dict[int, Tuple[int, ...]]:
    """Closed distance-r neighborhood of every vertex, as ``{v: ball}``,
    each ball a tuple in BFS order from ``v``.

    One truncated BFS per vertex, computed once per graph and radius and
    shared by every caller, which must not modify it.  Tuples, not
    frozensets: at n = 10^5 and r = 4 a random tree's balls take about a
    seventh of the memory.
    """
    key = ("r_balls", r)
    balls = g._memo.get(key)
    if balls is None:
        balls = g._memo[key] = {v: tuple(distances(g, (v,), r))
                                for v in g.vertices}
    return balls


def girth(g: Graph):
    """Length of the shortest cycle, or INFINITE for acyclic graphs;
    computed once per graph (see ``_compute_girth``)."""
    value = g._memo.get("girth")
    if value is None:
        value = g._memo["girth"] = _compute_girth(g)
    return value


def _compute_girth(g: Graph):
    """The girth, computed from scratch.

    Every cycle lies in the 2-core (see ``_peel``); a bare cycle there
    counts its size, and every other cycle passes through a core vertex of
    degree >= 3, so a BFS in the core runs from those only.  A vertex at
    depth d with a neighbor at depth d closes a walk of length 2d+1 through
    the root, one with two neighbors at depth d-1 a walk of length 2d;
    neither undercuts the girth, and a root on a shortest cycle meets it.
    So a BFS goes no deeper than (best - 1) // 2.  Cost: the O(n + m) peel
    plus one truncated BFS per core vertex of degree >= 3.
    """
    _, core, cycles, branched = _peel(g)
    best = min(cycles, default=INFINITE)
    for s in branched:
        dist = distances(core, (s,), None if best == INFINITE
                         else (best - 1) // 2)
        for u, d in dist.items():
            if 2 * d >= best:
                break
            depths = [dist.get(w) for w in core.neighbors(u)]
            if d in depths:
                best = 2 * d + 1
            if depths.count(d - 1) >= 2:
                best = 2 * d
    return best


def _peel(g: Graph):
    """``(removed, core, cycles, branched)``, computed once per graph.

    Leaves are peeled off repeatedly.  ``removed`` maps each peeled vertex,
    in removal order, to its one neighbor still present then, or to None
    for the last vertex of a tree, so children come before parents.  What
    remains is the 2-core: ``core`` is a new ``Graph`` on the same vertices
    whose edges are the core's, so each peeled vertex is isolated in it and
    a BFS in it from a core vertex never leaves the core.  ``cycles`` holds
    the sizes of the core's components whose vertices all have degree 2,
    and ``branched`` its vertices of degree >= 3, ascending.  O(n + m).
    """
    peel = g._memo.get("peel")
    if peel is not None:
        return peel
    adj = g._adj
    degree = list(map(len, adj))
    order = [v for v, d in zip(g.vertices, degree) if d <= 1]
    removed: Dict[int, Optional[int]] = {}
    for v in order:
        for parent in adj[v]:
            if parent not in removed:
                break
        else:
            parent = None
        removed[v] = parent
        if parent is not None:
            degree[parent] -= 1
            if degree[parent] == 1:
                order.append(parent)
    core_adj = [() if v in removed else ns for v, ns in zip(g.vertices, adj)]
    for p in set(removed.values()).difference(removed, (None,)):  # trees hang here
        core_adj[p] = tuple(w for w in adj[p] if w not in removed)
    core = Graph(core_adj, g.vertices)
    branched = [v for v, ns in zip(core.vertices, core_adj) if len(ns) >= 3]
    seen, cycles = set(distances(core, branched)), []
    for s in itertools.compress(core.vertices, core_adj):  # the core's vertices
        if s not in seen:
            cycle = distances(core, (s,))
            seen.update(cycle)
            cycles.append(len(cycle))
    peel = g._memo["peel"] = (removed, core, cycles, branched)
    return peel


def write_graph(g: Graph, path) -> None:
    """Write the interchange text format: ``n m`` then one ``u v`` per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.vertex_count} {g.edge_count}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def _token_pieces(fh, head: bytes = b""):
    """The tokens of ``head``, then of the buffered binary file ``fh``, one
    list per read of at most ``_PIECE_BYTES``, so a pipe's tokens come as
    they arrive.  A token cut by a piece's end is carried into the next;
    one that grows past ``_MAX_HEADER_BYTES`` ends the last list, cut to
    one byte more, and nothing more is read."""
    carry, piece = head, True
    while piece:
        piece = fh.read1(_PIECE_BYTES)
        text = carry + piece
        tokens = text.split()
        carry = tokens.pop() if piece and not text[-1:].isspace() else b""
        if len(carry) > _MAX_HEADER_BYTES:
            tokens.append(carry[:_MAX_HEADER_BYTES + 1])
            piece = b""
        yield tokens


def _token_ints(tokens, first: int = 1):
    """Yield the ``bytes`` ``tokens``, token ``first`` (1-based) on, as ``int``s:
    each must be a run of ASCII digits, the spelling ``write_graph`` writes, and
    no longer than ``int()`` converts, or it is a ``GraphError`` naming its
    position and showing at most its first 20 bytes."""
    for i, tok in enumerate(tokens, first):
        with contextlib.suppress(ValueError):  # more digits than int() takes
            if tok.isdigit():
                yield int(tok)
                continue
        size = (len(tok) if len(tok) <= _MAX_HEADER_BYTES
                else f"more than {_MAX_HEADER_BYTES}")
        more = f"\u2026 ({size} bytes)" if len(tok) > 20 else ""
        raise GraphError(
            f"token {i} is not a count or vertex ID: {repr(tok[:20])[1:]}{more}")


def read_graph(path) -> Graph:
    """Read the interchange text format written by :func:`write_graph`.
    Line 1, ``n m`` alone in at most ``_MAX_HEADER_BYTES``, is checked
    before the rest is read.  The body is read in pieces and holds at most
    2m IDs: a token past them is refused as it arrives.  While every token
    is a digit run, the IDs go to ``_build``'s bulk check, as
    ``build_graph``'s edges do; otherwise they are scanned in file order,
    so the first fault of any kind is named, a body that ends early last.
    Every refusal is a ``GraphError`` that names the file."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_MAX_HEADER_BYTES + 1)
            first = line.partition(b"\r")[0].removesuffix(b"\n")
            header = first.split()
            if len(header) != 2 or len(first) > _MAX_HEADER_BYTES:
                raise GraphError("line 1 must be the header 'n m' alone")
            n, m = _token_ints(header)
            if n > _MAX_FILE_VERTICES:
                raise GraphError(f"header '{n} {m}' needs n <= {_MAX_FILE_VERTICES}")
            if m > n * (n - 1) // 2:
                raise GraphError(f"header '{n} {m}' needs m <= n(n-1)/2 = "
                                 f"{n * (n - 1) // 2}")
            ids: List[int] = []
            tokens: List[bytes] = []  # the piece a fault stopped the reading in
            for piece in _token_pieces(fh, line[len(first):]):
                ints = None
                with contextlib.suppress(ValueError):  # more digits than int() takes
                    if all(map(bytes.isdigit, piece)):
                        ints = list(map(int, piece))
                if ints is None or len(ids) + len(ints) > 2 * m:
                    tokens = piece
                    break
                ids += ints
        if tokens or len(ids) != 2 * m:
            # In file order, from token 3 to token 2m + 2, the last of the
            # body; a token past it is refused whatever it holds.
            ends = itertools.chain(ids, _token_ints(tokens[:2 * m - len(ids)],
                                                    len(ids) + 3))
            _first_fault(zip(ends, ends), n)
            found = f"more than {2 * m}" if tokens else len(ids)
            raise GraphError(f"expects {m} edges, 2 IDs each, found {found} IDs")
        return _build(ids, n)
    except GraphError as exc:
        raise GraphError(f"graph file {path}: {exc}") from None
