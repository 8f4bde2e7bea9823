"""Sequential ground-truth solvers and validators for distance-r domination."""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .graphs import Graph, _peel, distances, r_balls


class OptimumUnknown(RuntimeError):
    """The exact solver ran out of budget; no answer is returned."""


def is_r_dominating(g: Graph, dominators: Iterable[int], r: int) -> bool:
    """True iff every vertex is within distance r of some member: one
    multi-source BFS truncated at depth r, O(n + m)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return len(distances(g, dominators, r)) == g.vertex_count


def is_independent(g: Graph, candidates: Iterable[int]) -> bool:
    """True iff no edge has both endpoints in the set: one pass over the
    members' neighbors, O(sum of their degrees).  Every member is looked
    up before any is judged, so an unknown one always raises."""
    members = set(candidates)
    rows = list(map(g.neighbors, members))
    return all(map(members.isdisjoint, rows))


def greedy_rds(g: Graph, r: int) -> FrozenSet[int]:
    """Greedy baseline: repeatedly add the vertex covering the most uncovered
    vertices, ties broken by smaller ID.

    Lazy: the heap holds (-gain, v) keys that may be stale.  Gains only
    shrink, so a stale key is an upper bound, and a vertex whose fresh key
    still heads the heap is the greedy choice.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    balls = r_balls(g, r)
    heap = [(-len(b), v) for v, b in balls.items()]
    heapq.heapify(heap)
    uncovered = set(balls)
    chosen: Set[int] = set()
    while uncovered:
        _, v = heapq.heappop(heap)
        key = (-len(uncovered.intersection(balls[v])), v)
        if heap and key > heap[0]:
            heapq.heappush(heap, key)
            continue
        chosen.add(v)
        uncovered.difference_update(balls[v])
    return frozenset(chosen)


def _known_optimum(g: Graph, r: int) -> Optional[int]:
    """Minimum distance-r dominating set size when every component is a
    tree or a cycle, None when some component is neither.

    Read off the peel (see ``graphs._peel``): the 2-core must be bare
    cycles with no tree hanging off it.  A cycle of c vertices needs
    ceil(c / (2r+1)).  Trees follow Slater's leaf-up rule (P. J. Slater,
    "R-Domination in Graphs", J. ACM 23(3), 1976) in removal order,
    children before parents: ``far[v]`` is the distance to the farthest
    undominated vertex below v (v itself counts), ``near[v]`` to the
    nearest chosen one.  A vertex is chosen when its farthest undominated
    vertex is exactly r away, and a root (parent None) when it still needs
    cover; the count does not depend on the root.
    """
    removed, _, cycles, branched = _peel(g)
    # A tree hangs off the core where a peeled vertex's parent is not peeled.
    if branched or not removed.keys() | {None} >= set(removed.values()):
        return None
    total = sum(-(-c // (2 * r + 1)) for c in cycles)
    far = dict.fromkeys(removed, 0)
    near = dict.fromkeys(removed, r + 1)  # r + 1: nothing chosen in reach
    for v, p in removed.items():
        needs_cover = far[v] + near[v] > r
        if needs_cover and far[v] == r:
            total += 1
            near[v] = 0
            needs_cover = False
        if p is None:
            total += needs_cover
        else:
            if needs_cover:
                far[p] = max(far[p], far[v] + 1)
            near[p] = min(near[p], near[v] + 1)
    return total


def _packing_lower_bound(uncovered: FrozenSet[int],
                         balls: Dict[int, FrozenSet[int]],
                         order: List[int]) -> int:
    """Greedy set of uncovered vertices with pairwise disjoint candidate
    coverers; any cover needs one distinct vertex per member.  ``order``
    holds every vertex sorted by (ball size, ID)."""
    blocked: Set[int] = set()
    count = 0
    for v in filter(uncovered.__contains__, order):
        if balls[v].isdisjoint(blocked):
            count += 1
            blocked |= balls[v]
    return count


#: exact_min_rds gives up past these; no corpus spec needs 1000 nodes.
_VERTEX_CAP = 200
_NODE_BUDGET = 100_000


def exact_min_rds(g: Graph, r: int) -> FrozenSet[int]:
    """Minimum-cardinality distance-r dominating set via branch and bound.

    Set cover over closed r-balls: branch on an uncovered vertex with the
    fewest remaining candidate coverers, prune with the greedy upper bound
    and the larger of a disjoint-ball packing bound and
    ceil(uncovered / max ball size).  The optimum returned is a
    deterministic function of the graph and r, and the reports depend on
    which set it is, not only on its size.  Raises OptimumUnknown, never a
    wrong answer, past ``_VERTEX_CAP`` or ``_NODE_BUDGET``.

    When every component is a tree or a cycle the optimum size k is known
    beforehand (see ``_known_optimum``).  The greedy set is then returned
    if it has k vertices; otherwise the search prunes every node that
    cannot reach k and stops at its first leaf.  That is the set the full
    search would settle on too, since no node on the way to its first
    k-vertex leaf can be pruned; only the proof that nothing smaller
    exists is skipped.

    The search is incremental.  One ``excluded`` set holds the candidates
    banned on the current path, and ``free[v]`` counts the vertices of
    ``balls[v]`` not in it.  Balls are symmetric, so banning c takes one
    from ``free[u]`` for each u in ``balls[c]``; a node restores both when
    it returns.  The cheap bound ceil(uncovered / max ball size) is tried
    before the packing bound, which runs only when the cheap one does not
    prune.  Either bound reaching the threshold prunes, so the search
    visits the same nodes in the same order as one that recomputes both
    bounds and every ``free`` count at each node.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if g.vertex_count > _VERTEX_CAP:
        raise OptimumUnknown(f"instance has {g.vertex_count} vertices, "
                             f"above cap {_VERTEX_CAP}")
    if g.vertex_count == 0:
        return frozenset()
    balls = {v: frozenset(b) for v, b in r_balls(g, r).items()}
    best = sorted(greedy_rds(g, r))
    k = _known_optimum(g, r)
    if len(best) == k:
        return frozenset(best)
    prune_at = math.inf if k is None else k + 1
    max_ball = max(len(b) for b in balls.values())
    order = sorted(g.vertices, key=lambda u: (len(balls[u]), u))
    free = {v: len(b) for v, b in balls.items()}
    excluded: Set[int] = set()
    nodes = 0

    def search(chosen: List[int], uncovered: FrozenSet[int]) -> bool:
        """True once ``best`` has k vertices, which ends the search."""
        nonlocal best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise OptimumUnknown(f"search node budget {_NODE_BUDGET} exhausted")
        if not uncovered:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return len(best) == k
        threshold = min(len(best), prune_at) - len(chosen)
        if (-(-len(uncovered) // max_ball) >= threshold
                or _packing_lower_bound(uncovered, balls, order) >= threshold):
            return False
        target = min(zip(map(free.__getitem__, uncovered), uncovered))[1]
        candidates = sorted(balls[target] - excluded,
                            key=lambda c: (-len(balls[c] & uncovered), c))
        for c in candidates:
            chosen.append(c)
            if search(chosen, uncovered - balls[c]):
                return True
            chosen.pop()
            excluded.add(c)
            for u in balls[c]:
                free[u] -= 1
        excluded.difference_update(candidates)
        for c in candidates:
            for u in balls[c]:
                free[u] += 1
        return False

    # ``search`` reaches itself through its closure.  Dropping the name
    # breaks that cycle, so reference counting frees the tables when the
    # call returns or its OptimumUnknown is released, not the collector.
    try:
        search([], frozenset(g.vertices))
    finally:
        del search
    return frozenset(best)
