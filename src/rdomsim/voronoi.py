"""Voronoi-cell machinery behind the approximation bound.

Decomposes the graph around a dominating set, checks the structural facts
the bound rests on (cells induce trees, at most one edge between any two
cells, few quotient edges), builds the boundary forest, splits the
algorithm's selections into in-cell and cross-cell parts, and aggregates
everything into a per-instance report.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .graphs import Graph, distances, girth, render_girth
from .oracles import is_r_dominating
from .programs import RmdsOutput
from .simulator import SimulationReport

CellPair = Tuple[int, int]
InterCellEdge = Tuple[Tuple[int, int], CellPair]


class NotDominatingError(ValueError):
    """The center set is empty or misses a whole component."""


class VoronoiDecomposition(NamedTuple):
    """Partition of V into cells around centers.

    ``dist[v]`` is the hop distance from ``v`` to its nearest center, in
    BFS order; ``assignment[v]`` is that center, ties going to the smaller
    center ID.  ``intercell_edges`` lists each edge whose endpoints lie in
    different cells, together with its sorted cell pair;
    ``quotient_edge_count`` deduplicates cell pairs.  ``non_tree_cells``
    lists, ascending, the centers whose cell does not induce a tree.  An
    immutable ``NamedTuple`` (no code generated at import, tuple equality).
    """

    centers: FrozenSet[int]
    dist: Dict[int, int]
    assignment: Dict[int, int]
    intercell_edges: Tuple[InterCellEdge, ...]
    quotient_edge_count: int
    non_tree_cells: Tuple[int, ...]


def voronoi_decompose(g: Graph, centers: Iterable[int]) -> VoronoiDecomposition:
    """Assign every vertex to its nearest center, ties to the smaller ID.

    One multi-source BFS from the centers gives ``dist``.  Walking it in
    BFS order, each vertex takes the smallest center among its neighbors
    one step nearer; those carry, by induction, the smallest center at
    their own distance, and every center at distance d from the vertex is
    at distance d - 1 from one of them, so this is the smallest center at
    the vertex's distance.  O(n + m) for any number of centers.  A center
    not in ``g`` is a ``GraphError`` naming the smallest such ID; a vertex
    unreachable from every center is a ``NotDominatingError``.  Each vertex
    joins the cell of a neighbor, so a cell is connected and induces a tree
    exactly when the pass over the edges counts |cell| - 1 edges inside it.
    """
    center_set = frozenset(centers)
    if not center_set:
        raise NotDominatingError("center set is empty")
    ordered = sorted(center_set)
    dist = distances(g, ordered)
    missing = g.vertex_count - len(dist)
    if missing:
        raise NotDominatingError(
            f"{missing} vertex(es) unreachable from every center")
    assignment: Dict[int, int] = {}
    for v, d in dist.items():
        assignment[v] = v if d == 0 else min(
            assignment[u] for u in g.neighbors(v) if dist[u] == d - 1)
    sizes = Counter(assignment.values())
    intercell: List[InterCellEdge] = []
    pairs = set()
    inner = dict.fromkeys(ordered, 0)
    for u, v in g.edges():
        cu, cv = assignment[u], assignment[v]
        if cu == cv:
            inner[cu] += 1
        else:
            pair = (cu, cv) if cu < cv else (cv, cu)
            intercell.append(((u, v), pair))
            pairs.add(pair)
    return VoronoiDecomposition(
        centers=center_set, dist=dist, assignment=assignment,
        intercell_edges=tuple(intercell), quotient_edge_count=len(pairs),
        non_tree_cells=tuple(m for m in ordered
                             if inner[m] != sizes[m] - 1))


def check_structural_lemmas(dec: VoronoiDecomposition,
                            f_r: int) -> Dict[str, bool]:
    """The three structural facts, under the report's check names.

    Every cell pair in the quotient has at least one edge, so no pair has
    two exactly when the inter-cell edges and the pairs are equally many.
    """
    return {
        "cells_tree": not dec.non_tree_cells,
        "single_edge": len(dec.intercell_edges) == dec.quotient_edge_count,
        "quotient_bound": dec.quotient_edge_count <= f_r * len(dec.centers)}


def boundary_forest(g: Graph, dec: VoronoiDecomposition) -> FrozenSet[int]:
    """The boundary forest T: the union of the unique in-cell paths from
    boundary vertices to their centers.  Requires every cell to induce a
    tree.

    In a tree cell every vertex but the center has exactly one in-cell
    neighbor one step nearer (two would close a cycle with their paths to
    the center), so each boundary vertex walks to it until it meets a
    vertex already in its tree, and the whole forest is linear.  The trees
    are disjoint, each inside its own cell, so cell m's tree is T
    restricted to cell m's vertices; it always holds the center m.
    """
    if dec.non_tree_cells:
        raise ValueError(
            f"cell of center {dec.non_tree_cells[0]} does not induce a tree")
    assignment, dist = dec.assignment, dec.dist
    tree = set(dec.centers)
    for edge, _ in dec.intercell_edges:
        for u in edge:
            m = assignment[u]
            while u not in tree:
                tree.add(u)
                nearer = dist[u] - 1
                u = next(w for w in g.neighbors(u)
                         if dist[w] == nearer and assignment[w] == m)
    return frozenset(tree)


def split_selection(dec: VoronoiDecomposition, outputs: Dict[int, RmdsOutput]
                    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """``(D_I, D_O)``: the selected vertices with some selector in their own
    cell, and those with some selector in another (the two may overlap)."""
    inside, outside = set(), set()
    for v, out in outputs.items():
        d = out.selected
        if dec.assignment[v] == dec.assignment[d]:
            inside.add(d)
        else:
            outside.add(d)
    return frozenset(inside), frozenset(outside)


class ApproxReport(NamedTuple):
    """Per-instance summary of the algorithm-versus-M analysis.

    ``checks`` maps check names to True/False, or None when not evaluable.
    ``opt_source`` says where M came from: "exact" (a minimum), "supplied"
    or "unknown" (no M); ``ratio`` tests the paper's bound only if "exact".
    An immutable ``NamedTuple``: no code generated at import, tuple
    equality; ``to_dict`` copies ``checks`` and puts ``girth`` last.
    """

    n: int
    r: int
    f_r: int
    girth_value: float
    alg_size: int
    opt_size: Optional[int]
    opt_source: str
    ratio: Optional[float]
    bound: int
    quotient_edges: Optional[int]
    boundary_size: Optional[int]
    di_size: Optional[int]
    do_size: Optional[int]
    rounds_executed: int
    max_message_bits: int
    checks: Dict[str, Optional[bool]]

    def to_dict(self) -> dict:
        d = self._asdict() | {"checks": dict(self.checks)}
        d["girth"] = render_girth(d.pop("girth_value"))
        return d


def approx_report(g: Graph, r: int, f_r: int, sim: SimulationReport,
                  opt: Optional[Iterable[int]],
                  opt_source: str) -> ApproxReport:
    """Judge one dominating-set run against the comparison set M = ``opt``.

    The caller decides M and names its source; with ``opt`` None every
    check that needs M stays None.  The lemma checks hold for any M that
    r-dominates; ``ratio`` and ``ratio_bound`` divide by |M|, so they test
    the paper's bound only when M is a minimum (``opt_source`` "exact").
    """
    outputs: Dict[int, RmdsOutput] = sim.outputs
    selected = frozenset(v for v, out in outputs.items() if out.member)
    checks: Dict[str, Optional[bool]] = dict.fromkeys(
        ("dominating", "opt_dominating", "cells_tree", "single_edge",
         "quotient_bound", "t_bound", "di_in_T", "di_bound", "do_bound",
         "ratio_bound"))
    checks["dominating"] = is_r_dominating(g, selected, r)

    bound = 1 + 4 * r * f_r
    ratio = opt_size = None
    quotient_edges = boundary_size = di_size = do_size = None
    if opt is not None:
        opt_set = frozenset(opt)
        opt_size = len(opt_set)
        ratio = len(selected) / opt_size if opt_size else None
        checks["ratio_bound"] = len(selected) <= bound * opt_size
        try:
            dec = voronoi_decompose(g, opt_set)
        except NotDominatingError:
            # m misses a whole component: no lemma is evaluable
            checks["opt_dominating"] = False
        else:
            checks["opt_dominating"] = max(dec.dist.values()) <= r
            checks.update(check_structural_lemmas(dec, f_r))
            quotient_edges = dec.quotient_edge_count
            d_inside, d_outside = split_selection(dec, outputs)
            di_size, do_size = len(d_inside), len(d_outside)
            checks["di_bound"] = di_size <= (1 + 2 * r * f_r) * opt_size
            checks["do_bound"] = do_size <= 2 * r * f_r * opt_size
            if checks["cells_tree"]:
                forest = boundary_forest(g, dec)
                boundary_size = len(forest)
                checks["t_bound"] = (boundary_size
                                     <= (1 + 2 * r * f_r) * opt_size)
                # T is built from boundary paths, so a cell with no
                # inter-cell edge is a whole component with T = {center},
                # where rmds may break a tie in ball size towards another
                # vertex.  D_I ⊆ T is judged only in cells with a boundary;
                # the rest still count in di_bound and ratio_bound.
                bounded = {m for _, pair in dec.intercell_edges for m in pair}
                checks["di_in_T"] = all(
                    d in forest for d in d_inside
                    if dec.assignment[d] in bounded)

    return ApproxReport(
        n=g.vertex_count, r=r, f_r=f_r, girth_value=girth(g),
        alg_size=len(selected), opt_size=opt_size, opt_source=opt_source,
        ratio=ratio, bound=bound, quotient_edges=quotient_edges,
        boundary_size=boundary_size, di_size=di_size, do_size=do_size,
        rounds_executed=sim.rounds_executed,
        max_message_bits=sim.max_message_bits, checks=checks)
