import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (GraphError, OptimumUnknown, build_graph, distances,
                     exact_min_rds, gen_cycle, gen_path, gen_random_tree,
                     greedy_rds, is_independent, is_r_dominating)

from _support import enumerate_min_rds, graphs, reference_is_r_dominating


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


def test_greedy_c9():
    assert greedy_rds(gen_cycle(9), 1) == frozenset({0, 3, 6})


def test_greedy_single_vertex():
    g = build_graph([], extra_vertices=[4])
    assert greedy_rds(g, 1) == frozenset({4})


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


def test_exact_respects_vertex_cap():
    with pytest.raises(OptimumUnknown):
        exact_min_rds(gen_random_tree(50, 1), 1, vertex_cap=40)


def test_exact_reports_unknown_on_tiny_node_budget():
    with pytest.raises(OptimumUnknown):
        exact_min_rds(gen_random_tree(120, 5), 2, node_budget=1)


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
