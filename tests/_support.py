"""Shared test helpers: graph strategies and brute-force reference solvers."""

import itertools
import math
from collections import deque

from hypothesis import strategies as st

from rdomsim import (Graph, GraphError, NotDominatingError,
                     VoronoiDecomposition, ball, build_graph, distances)


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
    return build_graph(edges, extra_vertices=range(n))


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
            raise GraphError(f"unknown vertex {m}")
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
            raise GraphError(f"unknown center {m}")
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
    cells = {m: frozenset(v for v, c in assignment.items() if c == m)
             for m in sorted(center_set)}
    intercell = []
    for u, v in g.edges():
        cu, cv = assignment[u], assignment[v]
        if cu != cv:
            intercell.append(((u, v), (min(cu, cv), max(cu, cv))))
    return VoronoiDecomposition(
        centers=center_set, dist={v: d for v, (d, _) in label.items()},
        assignment=assignment, cells=cells, intercell_edges=tuple(intercell),
        quotient_edge_count=len({pair for _, pair in intercell}))
