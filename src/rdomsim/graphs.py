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


def render_girth(value):
    """A girth as JSON shows it: an int, or "inf" for an acyclic graph."""
    return "inf" if math.isinf(value) else int(value)


class GraphError(ValueError):
    """Malformed graph input: self-loop, duplicate edge, or unknown vertex."""


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Instances are immutable after construction and safe to share across
    threads.  Vertex IDs are arbitrary non-negative integers; they need not
    be contiguous.  Each ID is stored once, as one ``int`` object shared by
    its key in the adjacency, every neighbor tuple that holds it and
    ``vertices``.

    Facts derived from the graph alone (``girth``, ``r_balls`` and the
    2-core peel ``_peel``) are memoized in ``_memo``, computed at the first
    call and kept as long as the graph.  Each value depends only on the
    graph, so two threads that race on a miss store equal values, and
    sharing stays safe.  No value holds the graph itself.
    """

    __slots__ = ("_adj", "_vertices", "_memo")

    def __init__(self, adjacency: Dict[int, Tuple[int, ...]]):
        self._adj = adjacency
        self._vertices = tuple(sorted(adjacency))
        self._memo: Dict = {}

    @property
    def vertices(self) -> Tuple[int, ...]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> Tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in self._vertices for v in self._adj[u] if u < v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._adj.items())))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def build_graph(edges: Iterable[Sequence[int]],
                extra_vertices: Iterable[int] = ()) -> Graph:
    """Build a graph from an edge list: any iterable, read once, of edges
    that are each a sequence of two IDs.

    Self-loops and duplicate edges (in either orientation) are hard errors:
    generators are expected to produce clean instances, and silent repair
    would mask their bugs.  ``extra_vertices`` adds isolated vertices.  A
    vertex ID is a non-negative ``int`` other than a ``bool``.
    """
    with _collector_paused():
        return Graph(_adjacency(list(edges), extra_vertices))


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


def _adjacency(edges: List[Sequence[int]],
               extra_vertices: Iterable[int]) -> Dict[int, Tuple[int, ...]]:
    """``build_graph``'s ``{v: sorted neighbor tuple}``.

    Each ID is kept as one object, the first one seen for its value.  While
    the lists fill, each starts with its own vertex's object, and one pass
    over the edges appends each end's object, read from there, to the
    other end's list.  The checks then run in bulk; only when one fails
    does ``_first_fault`` rescan the edges in order, so the error names the
    first fault in the input.
    """
    ends = itertools.chain.from_iterable
    try:
        adj = dict.fromkeys(ends(edges))
        for v in adj:
            adj[v] = [v]
        for u, v in edges:
            us, vs = adj[u], adj[v]
            us.append(vs[0])
            vs.append(us[0])
    except (TypeError, ValueError):  # an unhashable ID, or not a pair
        _first_fault(edges)
        raise
    # A self-loop or a duplicate edge repeats an entry in some list.
    if not (set(map(type, ends(edges))) <= {int}
            and min(adj, default=0) >= 0
            and sum(map(len, map(set, adj.values())))
            == len(adj) + 2 * len(edges)):
        _first_fault(edges)
    for v, ns in adj.items():
        del ns[0]
        ns.sort()
        adj[v] = tuple(ns)
    for w in extra_vertices:
        _check_id(w)
        adj.setdefault(w, ())
    return adj


def _check_id(w) -> None:
    if isinstance(w, bool) or not isinstance(w, int) or w < 0:
        raise GraphError(f"vertex IDs must be non-negative integers, got {w!r}")


def _first_fault(edges: List[Sequence[int]]) -> None:
    """Raise ``GraphError`` for the first faulty edge in input order, if
    any: a bad ID, then a self-loop, then a repeat of an earlier edge."""
    seen = set()
    for u, v in edges:
        _check_id(u)
        _check_id(v)
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
            raise GraphError(f"unknown vertex {s}")
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
    remains is the 2-core, ``core``, a new ``Graph``.  ``cycles`` holds
    the sizes of its components whose vertices all have degree 2, and
    ``branched`` its vertices of degree >= 3, ascending.  O(n + m).
    """
    peel = g._memo.get("peel")
    if peel is not None:
        return peel
    adj = g._adj
    degree = {v: len(ns) for v, ns in adj.items()}
    order = [v for v, d in degree.items() if d <= 1]
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
    core_adj = {v: ns for v, ns in adj.items() if v not in removed}
    for p in core_adj.keys() & removed.values():  # where trees hang
        core_adj[p] = tuple(w for w in adj[p] if w not in removed)
    core = Graph(core_adj)
    branched = [v for v in core.vertices if len(core_adj[v]) >= 3]
    seen, cycles = set(distances(core, branched)), []
    for s in core.vertices:
        if s not in seen:
            cycle = distances(core, (s,))
            seen.update(cycle)
            cycles.append(len(cycle))
    peel = g._memo["peel"] = (removed, core, cycles, branched)
    return peel


def write_graph(g: Graph, path) -> None:
    """Write the interchange text format: ``n m`` then one ``u v`` per edge.

    Requires contiguous vertex IDs 0..n-1 (all generators produce these).
    """
    n = g.vertex_count
    if g.vertices != tuple(range(n)):
        raise GraphError("text format requires contiguous vertex IDs 0..n-1")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n} {g.edge_count}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def _token_ints(tokens, first: int = 1):
    """Yield the ``bytes`` ``tokens``, token ``first`` (1-based) on, as ``int``s:
    each must be a run of ASCII digits, the spelling ``write_graph`` writes, and
    no longer than ``int()`` converts, or it is a ``GraphError`` naming its position."""
    for i, tok in enumerate(tokens, first):
        with contextlib.suppress(ValueError):  # more digits than int() takes
            if tok.isdigit():
                yield int(tok)
                continue
        raise GraphError(f"token {i} is not a count or vertex ID: {repr(tok)[1:]}")


def read_graph(path) -> Graph:
    """Read the interchange text format written by :func:`write_graph`.
    Line 1, ``n m`` alone, is checked before the rest is read; the rest is
    parsed in one pass and checked in bulk before ``build_graph``.  A body
    that fails the bulk check always has a fault that the file-order scan
    names.  Every refusal is a ``GraphError`` that names the file."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            header = line.partition(b"\r")[0].split()
            if len(header) != 2:
                raise GraphError("line 1 must be the header 'n m' alone")
            n, m = _token_ints(header)
            if n > _MAX_FILE_VERTICES:
                raise GraphError(f"header '{n} {m}' needs n <= {_MAX_FILE_VERTICES}")
            tokens = (line + fh.read()).split()[2:]
        if len(tokens) != 2 * m:
            raise GraphError(f"expects {m} edges, 2 IDs each, found {len(tokens)} IDs")
        ids = None
        with contextlib.suppress(ValueError):  # more digits than int() takes
            ids = list(map(int, tokens)) if all(map(bytes.isdigit, tokens)) else None
        if ids is None or ids and max(ids) >= n:
            # In file order, to name the first fault; the body starts at token 3.
            ends = _token_ints(tokens, 3)
            for u, v in zip(ends, ends):
                if max(u, v) >= n:
                    raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        ends = iter(ids)
        del tokens, ids  # build_graph's list(edges) exhausts ends, freeing the IDs
        return build_graph(zip(ends, ends), extra_vertices=range(n))
    except GraphError as exc:
        raise GraphError(f"graph file {path}: {exc}") from None
