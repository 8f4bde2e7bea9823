"""Sequential ground-truth solvers and validators for distance-r domination."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .graphs import Graph, GraphError, ball, distances


class OptimumUnknown(RuntimeError):
    """The exact solver ran out of budget; no answer is returned."""


def _check_subset(g: Graph, vs: Iterable[int]) -> Set[int]:
    members = set(vs)
    for v in members:
        if v not in g:
            raise GraphError(f"unknown vertex {v}")
    return members


def is_r_dominating(g: Graph, dominators: Iterable[int], r: int) -> bool:
    """True iff every vertex is within distance r of some member: one
    multi-source BFS truncated at depth r, O(n + m)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return len(distances(g, dominators, r)) == g.vertex_count


def is_independent(g: Graph, candidates: Iterable[int]) -> bool:
    """True iff no edge has both endpoints in the set."""
    members = _check_subset(g, candidates)
    return not any(u in members and v in members for u, v in g.edges())


def greedy_rds(g: Graph, r: int) -> FrozenSet[int]:
    """Greedy baseline: repeatedly add the vertex covering the most uncovered
    vertices, ties broken by smaller ID."""
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


def _packing_lower_bound(uncovered: FrozenSet[int],
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


def exact_min_rds(g: Graph, r: int, *, vertex_cap: int = 200,
                  node_budget: int = 10_000_000) -> FrozenSet[int]:
    """Minimum-cardinality distance-r dominating set via branch and bound.

    Set cover over closed r-balls: branch on an uncovered vertex with the
    fewest remaining candidate coverers, prune with the greedy upper bound
    and the larger of a disjoint-ball packing bound and
    ceil(uncovered / max ball size).  Which optimum is returned is
    unspecified; only the cardinality is canonical.  Raises OptimumUnknown
    when the node budget is exhausted, never a wrong answer.
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
    best = sorted(greedy_rds(g, r))
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
        bound = max(_packing_lower_bound(uncovered, balls),
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
