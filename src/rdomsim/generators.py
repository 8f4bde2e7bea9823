"""Deterministic graph family generators.

Cycles, paths, seeded random trees, edge subdivisions, and the
subdivided-biclique tightness family that forces the distributed algorithm
into its worst-case approximation ratio.  All generators are pure functions
of their parameters: byte-identical output across runs and platforms.
"""

from __future__ import annotations

from typing import List, Tuple

from .graphs import Graph, _collector_paused, build_graph

# 64-bit linear congruential generator (Knuth's MMIX multiplier).  The top
# 31 bits of the state are used per draw; specified explicitly so seeded
# output is reproducible across languages and platforms.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

# Cycles, paths and random trees cannot make a self-loop, a duplicate edge
# or a bad ID, so they skip ``build_graph`` and its checks: each builds the
# list of sorted neighbor tuples that ``build_graph`` would, from one
# ``int`` object per ID (the entries of ``ids``).


def gen_cycle(n: int) -> Graph:
    """Cycle on vertices 0..n-1 in cyclic order."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
    ids = list(range(n))
    return _chain(ids, (ids[1], ids[-1]), (ids[0], ids[-2]))


def gen_path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"a path needs at least 1 vertex, got {n}")
    ids = list(range(n))
    return _chain(ids, tuple(ids[1:2]), tuple(ids[-2:-1]))


def _chain(ids: List[int], first: Tuple[int, ...],
           last: Tuple[int, ...]) -> Graph:
    """The graph in which each inner vertex ``ids[i]`` neighbors
    ``ids[i-1]`` and ``ids[i+1]``, and the end vertices neighbor ``first``
    and ``last``."""
    with _collector_paused():
        adj = [first, *zip(ids, ids[2:]), last]
        del adj[len(ids):]  # a one-vertex path has one end
        return Graph(adj, ids)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform parent in 0..i-1.

    Parents are drawn from the documented LCG sequence, so (n, seed) fully
    determines the edge list.
    """
    if n < 1:
        raise ValueError(f"a tree needs at least 1 vertex, got {n}")
    a, c, mask = _LCG_A, _LCG_C, _LCG_MASK
    state = seed & mask
    ids = list(range(n))
    with _collector_paused():
        adj = [[] for _ in ids]
        # Vertex i's list gets its parent p < i first, then its children in
        # ascending order, so every list is sorted as it fills.
        for i in ids[1:]:
            state = (a * state + c) & mask
            p = (state >> 33) % i
            adj[p].append(i)
            adj[i].append(ids[p])
        # Each list is freed as its tuple replaces it, so the build never
        # holds every list and every tuple at once.
        for i, ns in enumerate(adj):
            adj[i] = tuple(ns)
        return Graph(adj, ids)


def gen_complete(n: int) -> Graph:
    """Complete graph K_n (subdivision base for planar test instances)."""
    if n < 1:
        raise ValueError(f"K_n needs at least 1 vertex, got {n}")
    return build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)


def subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge by a path with k internal fresh vertices.

    Fresh IDs start at n and are assigned in sorted edge order.  Multiplies
    the girth by k+1.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    nxt = g.vertex_count
    edges = []
    for u, v in g.edges():
        chain = [u, *range(nxt, nxt + k), v]
        nxt += k
        edges.extend(zip(chain, chain[1:]))
    return build_graph(edges, nxt)


def tightness_size(r: int, f: int) -> int:
    """The vertex count 4f + 8rf^2 + 8rf^3 of ``gen_tightness(r, f)``,
    known before the build; radius r >= 1 and density bound f >= 2."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if f < 2:
        raise ValueError(f"f must be >= 2, got {f}")
    return 4 * f + 8 * r * f ** 2 + 8 * r * f ** 3


def gen_tightness(r: int, f: int) -> Graph:
    """Subdivided biclique with pendant blocks, for radius r >= 1 and
    density bound f >= 2.

    Two sides X and Y of 2f vertices each; every (x, y) pair is joined by a
    path of 2r fresh vertices (so d(x, y) = 2r + 1), and carries a block of
    k = 2rf pendant degree-1 vertices, each attached by a single edge to the
    path vertex adjacent to x.  ID layout: X = 0..2f-1, Y = 2f..4f-1, then
    the paths in (x, y)-lexicographic order, each from the x side, then the
    pendant blocks in the same order.
    """
    tightness_size(r, f)
    side, k = 2 * f, 2 * r * f
    nxt = 2 * side
    edges = []
    for x in range(side):
        for y in range(side, 2 * side):
            chain = (x, *range(nxt, nxt + 2 * r), y)
            nxt += 2 * r
            edges.extend(zip(chain, chain[1:]))
    # Each block hangs off the first vertex of its path, the one next to x.
    for anchor in range(2 * side, nxt, 2 * r):
        edges.extend((anchor, b) for b in range(nxt, nxt + k))
        nxt += k
    return build_graph(edges, nxt)


def tightness_dominating_set(r: int, f: int) -> frozenset:
    """A valid distance-r dominating set of ``gen_tightness(r, f)``.

    X union Y suffices for r >= 2.  For r = 1 the pendant vertices sit at
    distance 2 from X, so the x-adjacent path vertex of every path is added
    as well.
    """
    tightness_size(r, f)
    firsts = range(4 * f, 4 * f + 8 * f * f, 2) if r == 1 else ()
    return frozenset(range(4 * f)).union(firsts)
