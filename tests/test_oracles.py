import gc
import inspect
import random
from unittest.mock import patch

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (GraphError, OptimumUnknown, build_graph, distances,
                     exact_min_rds, gen_complete, gen_cycle, gen_path,
                     gen_random_tree, greedy_rds, is_independent,
                     is_r_dominating, subdivide)
from rdomsim import oracles
from rdomsim.oracles import _known_optimum

from _support import (enumerate_min_rds, graphs, reference_exact_min_rds,
                      reference_greedy_rds, reference_is_r_dominating,
                      reference_max_packing, relabelled,
                      rescanning_exact_min_rds)


@st.composite
def forests(draw, max_n=40, isolated=False):
    """Random trees on 0..n-1, each vertex hanging from an earlier one; with
    ``isolated``, a vertex may also hang from nothing, which splits off a
    new component."""
    n = draw(st.integers(1, max_n))
    edges = []
    for v in range(1, n):
        p = draw(st.integers(-1 if isolated else 0, v - 1))
        if p >= 0:
            edges.append((p, v))
    return build_graph(edges, n)


@st.composite
def gnp_graphs(draw, max_n=40):
    """G(n, p) with an average degree of about 1 to 5: sparse, but with
    short cycles."""
    n = draw(st.integers(3, max_n))
    degree = draw(st.sampled_from([1, 2, 3, 5]))
    rnd = draw(st.randoms(use_true_random=False))
    p = degree / (n - 1)
    return build_graph([(u, v) for u in range(n) for v in range(u + 1, n)
                        if rnd.random() < p], n)


def _paths(max_n):
    return st.integers(1, max_n).map(gen_path)


def _cycles(max_n):
    return st.integers(3, max_n).map(gen_cycle)


def _disjoint_union(g, h):
    shift = g.vertex_count
    return build_graph(g.edges() + [(u + shift, v + shift) for u, v in h.edges()],
                       shift + h.vertex_count)


@st.composite
def cycle_beside_forest(draw, max_n=14):
    """A cycle and a forest side by side, either one first: a cycle
    component among tree components, at most ``max_n`` vertices in all."""
    c = draw(st.integers(3, max_n - 1))
    parts = [gen_cycle(c), draw(forests(max_n=max_n - c, isolated=True))]
    if draw(st.booleans()):
        parts.reverse()
    return _disjoint_union(*parts)


#: Every family the exact solver meets, with and without a known optimum.
_ORACLE_GRAPHS = st.one_of(
    forests(), forests(isolated=True), _paths(40), _cycles(40),
    st.integers(0, 6).map(lambda k: subdivide(gen_complete(4), k)),
    gnp_graphs())

#: Forests, paths, cycles and cycles beside forests small enough to
#: enumerate.
_KNOWN_GRAPHS = st.one_of(forests(max_n=14), forests(max_n=14, isolated=True),
                          _paths(14), _cycles(14), cycle_beside_forest())


def test_is_r_dominating_examples():
    c9 = gen_cycle(9)
    assert is_r_dominating(c9, {0, 3, 6}, 1)
    assert not is_r_dominating(c9, {0}, 1)
    assert is_r_dominating(gen_path(5), {2}, 2)
    with pytest.raises(ValueError):
        is_r_dominating(c9, {0}, 0)


def test_is_r_dominating_unknown_vertex():
    with pytest.raises(GraphError):
        is_r_dominating(gen_cycle(3), {7}, 1)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.data(), st.none() | st.integers(0, 4),
       st.integers(1, 4))
def test_distances_and_domination_match_networkx(g, data, limit, r):
    G = nx.Graph(g.edges())
    G.add_nodes_from(g.vertices)
    sources = data.draw(st.sets(st.sampled_from(g.vertices)))

    def nx_distances(cutoff):
        if not sources:
            return {}
        return nx.multi_source_dijkstra_path_length(G, sources, cutoff=cutoff)

    dist = distances(g, sources, limit)
    assert dist == nx_distances(limit)
    assert list(dist.values()) == sorted(dist.values())  # BFS order
    dominating = is_r_dominating(g, sources, r)
    assert dominating == (len(nx_distances(r)) == g.vertex_count)
    assert dominating == reference_is_r_dominating(g, sources, r)


def test_is_independent_examples():
    c9 = gen_cycle(9)
    assert is_independent(c9, {1, 4, 7})
    assert not is_independent(gen_cycle(4), {0, 1})
    assert is_independent(c9, set())


@settings(max_examples=300, deadline=None)
@given(relabelled(graphs()), st.data())
def test_is_independent_matches_networkx(g, data):
    G = nx.Graph(g.edges())
    G.add_nodes_from(g.vertices)
    candidates = data.draw(st.lists(st.sampled_from(g.vertices)))
    assert is_independent(g, candidates) == (
        G.subgraph(candidates).number_of_edges() == 0)


def test_is_independent_looks_up_every_member_before_judging():
    # {0, 1} alone is not independent on C4, but 99 is no vertex of it.
    with pytest.raises(GraphError) as info:
        is_independent(gen_cycle(4), {0, 1, 99})
    assert str(info.value) == "vertex 99 out of range for n=4"


def test_greedy_c9():
    assert greedy_rds(gen_cycle(9), 1) == frozenset({0, 3, 6})


def test_greedy_single_vertex():
    g = build_graph([], 1)
    assert greedy_rds(g, 1) == frozenset({0})


def test_exact_cycle_and_path_examples():
    assert len(exact_min_rds(gen_cycle(9), 1)) == 3
    assert len(exact_min_rds(gen_path(7), 1)) == 3
    assert len(exact_min_rds(gen_cycle(15), 2)) == 3


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_exact_cycle_optimum_is_every_2r_plus_1_th(r, m):
    n = (2 * r + 1) * m
    result = exact_min_rds(gen_cycle(n), r)
    assert len(result) == m
    assert is_r_dominating(gen_cycle(n), result, r)


def test_exact_respects_vertex_cap(monkeypatch):
    with pytest.raises(OptimumUnknown):
        exact_min_rds(gen_path(201), 1)
    monkeypatch.setattr(oracles, "_VERTEX_CAP", 40)
    with pytest.raises(OptimumUnknown):
        exact_min_rds(gen_random_tree(50, 1), 1)


def test_exact_reports_unknown_on_tiny_node_budget(monkeypatch):
    monkeypatch.setattr(oracles, "_NODE_BUDGET", 1)
    with pytest.raises(OptimumUnknown):
        exact_min_rds(gen_random_tree(120, 5), 2)


@pytest.mark.parametrize("budget", [oracles._NODE_BUDGET, 1],
                         ids=["solves", "gives-up"])
def test_exact_leaves_no_cyclic_garbage(monkeypatch, budget):
    # The search's tables are freed by reference counting, whether the
    # call returns a set or gives up.  Freezing moves the test heap out of
    # the collector's reach, so the collection scans only what the call
    # allocated.  On this tree at r = 1 greedy is not optimal, so the
    # search runs.
    g = gen_random_tree(200, 1)
    monkeypatch.setattr(oracles, "_NODE_BUDGET", budget)
    gc.disable()
    gc.freeze()
    try:
        try:
            exact_min_rds(g, 1)
            gave_up = False
        except OptimumUnknown:
            gave_up = True
        assert gave_up == (budget == 1)
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        gc.enable()


def test_exact_takes_only_the_graph_and_the_radius():
    # Its limits are module constants that a test patches, not options.
    assert list(inspect.signature(exact_min_rds).parameters) == ["g", "r"]


def test_exact_is_deterministic():
    g = gen_random_tree(80, 9)
    assert exact_min_rds(g, 2) == exact_min_rds(g, 2)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(1, 3))
def test_exact_matches_full_enumeration(g, r):
    result = exact_min_rds(g, r)
    assert is_r_dominating(g, result, r) or g.vertex_count == 0
    assert len(result) == len(enumerate_min_rds(g, r))


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(1, 3))
def test_greedy_never_beats_exact(g, r):
    greedy = greedy_rds(g, r)
    assert is_r_dominating(g, greedy, r) or g.vertex_count == 0
    assert len(greedy) >= len(exact_min_rds(g, r))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ORACLE_GRAPHS, relabelled(_ORACLE_GRAPHS)),
       st.integers(1, 5))
def test_solvers_return_the_reference_sets(g, r):
    assert greedy_rds(g, r) == reference_greedy_rds(g, r)
    try:
        expected = reference_exact_min_rds(g, r, node_budget=20_000)
    except OptimumUnknown:
        return
    with patch.object(oracles, "_NODE_BUDGET", 20_000):
        assert exact_min_rds(g, r) == expected


def _outcome(solve):
    """The set ``solve()`` returns, or OptimumUnknown if it gives up."""
    try:
        return solve()
    except OptimumUnknown:
        return OptimumUnknown


def _assert_same_search(g, r):
    # A node budget of b gives up at node b + 1, so agreeing at every
    # small budget means visiting the same first nodes.
    for budget in (1, 2, 4, 8, 16, 32, 64):
        with patch.object(oracles, "_NODE_BUDGET", budget):
            fast = _outcome(lambda: exact_min_rds(g, r))
        assert fast == _outcome(
            lambda: rescanning_exact_min_rds(g, r, node_budget=budget))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ORACLE_GRAPHS, relabelled(_ORACLE_GRAPHS)),
       st.integers(1, 5))
def test_search_visits_the_same_nodes_as_the_rescanning_one(g, r):
    _assert_same_search(g, r)


@pytest.mark.parametrize("seed", range(40))
def test_search_visits_the_same_nodes_on_backtracking_graphs(seed):
    # G(n, p) with n = 30..40 and average degree 2..4 backtracks within 64
    # nodes far more often than the small graphs drawn above.
    rnd = random.Random(seed)
    n = rnd.randint(30, 40)
    p = rnd.choice([2, 3, 4]) / (n - 1)
    g = build_graph([(u, v) for u in range(n) for v in range(u + 1, n)
                     if rnd.random() < p], n)
    for r in (1, 2):
        _assert_same_search(g, r)


def _random_forest(seed, n):
    """A forest on the n IDs 0..n-1, shuffled: vertex v hangs from one
    of the ``span`` vertices before it (a path at span 1, a recursive tree
    at span n), or with probability ``split`` starts a new tree."""
    rnd = random.Random(seed)
    span = rnd.choice([1, 2, 5, 40, n])
    split = rnd.choice([0.0, 0.0, 0.02, 0.3])
    edges = [(rnd.randrange(max(0, v - span), v), v) for v in range(1, n)
             if rnd.random() >= split]
    ids = rnd.sample(range(n), n)
    return build_graph([(ids[u], ids[v]) for u, v in edges], n)


@pytest.mark.parametrize("n", [1, 2, 9, 150, 2000])
@pytest.mark.parametrize("seed", range(8))
def test_max_packing_certifies_the_known_optimum(seed, n):
    # Meir and Moon: on a forest the largest set of vertices pairwise more
    # than 2r apart is as large as a smallest distance-r dominating set.
    g = _random_forest(seed, n)
    graph = nx.Graph(g.edges())
    graph.add_nodes_from(g.vertices)
    for r in (1, 2, 3, 4):
        packing = reference_max_packing(g, r)
        assert len(packing) == _known_optimum(g, r)
        for p in packing:
            near = nx.single_source_shortest_path_length(graph, p, cutoff=2 * r)
            assert packing.isdisjoint(near.keys() - {p})


@pytest.mark.parametrize("r", [1, 4])
def test_max_packing_certifies_the_known_optimum_at_100k_vertices(r):
    g = _random_forest(5, 100_000)
    assert len(reference_max_packing(g, r)) == _known_optimum(g, r)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_KNOWN_GRAPHS, relabelled(_KNOWN_GRAPHS)), st.integers(1, 5))
def test_known_optimum_matches_enumeration(g, r):
    k = _known_optimum(g, r)
    assert k == len(enumerate_min_rds(g, r))
    greedy = greedy_rds(g, r)
    if len(greedy) == k:  # nothing to search: the greedy set is optimal
        with patch.object(oracles, "_NODE_BUDGET", 0):
            assert exact_min_rds(g, r) == greedy


@pytest.mark.parametrize("g, r, k", [
    (gen_path(1), 1, 1),
    (gen_path(2), 1, 1),
    (gen_path(2), 3, 1),
    (build_graph([], 3), 1, 3),
    (build_graph([(0, 1)], 3), 2, 2),
    (gen_cycle(3), 1, 1),
    (gen_cycle(5), 2, 1),
    (gen_cycle(7), 4, 1),
    (gen_cycle(8), 3, 2),
])
def test_known_optimum_small_cases(g, r, k):
    assert _known_optimum(g, r) == k == len(enumerate_min_rds(g, r))


@pytest.mark.parametrize("g", [
    _disjoint_union(gen_random_tree(10, 1), subdivide(gen_complete(4), 1)),
    _disjoint_union(gen_cycle(5), build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])),
    gen_complete(4),
    build_graph(gen_cycle(7).edges() + [(3, 7), (7, 8), (8, 9)]),
    build_graph(subdivide(gen_complete(4), 2).edges()
                + [(0, 20), (20, 21), (20, 22), (22, 23)]),
])
def test_known_optimum_is_none_beyond_trees_and_cycles(g):
    assert _known_optimum(g, 1) is None


@pytest.mark.parametrize("solver", [greedy_rds, exact_min_rds])
def test_solvers_refuse_r_below_one(solver):
    with pytest.raises(ValueError) as info:
        solver(gen_cycle(5), 0)
    assert str(info.value) == "r must be >= 1"


def test_exact_on_the_empty_graph_is_the_empty_set():
    assert exact_min_rds(build_graph([]), 1) == frozenset()
