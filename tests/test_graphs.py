import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (INFINITE, GraphError, TightnessParams, build_graph,
                     distances, gen_complete, gen_cycle, gen_random_tree,
                     gen_tightness, girth, read_graph, subdivide, write_graph)

from rdomsim.graphs import _peel, r_balls

from _support import ball, graphs, reference_girth, relabelled


def test_build_path_on_three_vertices():
    g = build_graph([(0, 1), (1, 2)])
    assert g.vertices == (0, 1, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighbors(1) == (0, 2)


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph([(0, 0)])


def test_build_rejects_duplicate_edge_either_orientation():
    with pytest.raises(GraphError):
        build_graph([(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_graph([(0, 1), (0, 1)])


def test_bfs_distances_on_cycle():
    g = gen_cycle(6)
    assert distances(g, (0,)) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1}


def test_bfs_distances_restricted_to_component():
    g = build_graph([(0, 1), (2, 3)])
    assert distances(g, (0,)) == {0: 0, 1: 1}


def test_bfs_distances_path():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert distances(g, (0,)) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_unknown_source():
    with pytest.raises(GraphError):
        distances(gen_cycle(3), (99,))


def test_neighborhood_size_on_long_cycle():
    g = gen_cycle(11)
    assert all(len(b) - 1 == 4 for b in r_balls(g, 2).values())


def test_neighborhood_size_star_center():
    star = build_graph([(5, leaf) for leaf in range(5)])
    balls = r_balls(star, 1)
    assert len(balls[5]) - 1 == 5
    assert len(balls[0]) - 1 == 1


def test_girth_cycles_and_trees():
    assert girth(gen_cycle(9)) == 9
    for n in range(3, 12):
        assert girth(gen_cycle(n)) == n
    assert girth(gen_random_tree(50, 1)) == INFINITE
    assert math.isinf(girth(build_graph([(0, 1)])))


def test_girth_two_cycles_takes_minimum():
    # Triangle and C_5 sharing nothing.
    g = build_graph([(0, 1), (1, 2), (2, 0),
                     (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    assert girth(g) == 3


def test_graph_roundtrip_through_text_format(tmp_path):
    g = gen_random_tree(30, 7)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_read_graph_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 5\n")
    with pytest.raises(GraphError):
        read_graph(path)


@pytest.mark.parametrize("header", ["-3 0", "2 -1", "1048577 0",
                                    "1000000000 0"])
def test_read_graph_rejects_negative_or_oversized_header(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    with pytest.raises(GraphError, match="header|limit"):
        read_graph(path)


@given(graphs())
def test_bfs_distance_symmetry(g):
    for u in g.vertices:
        du = distances(g, (u,))
        for v, d in du.items():
            assert distances(g, (v,))[u] == d


@given(graphs())
def test_neighborhood_oracle_matches_bfs(g):
    for v in g.vertices:
        dist = distances(g, (v,))
        for r in (1, 2, 3):
            expected = sum(1 for u, d in dist.items() if u != v and d <= r)
            found = r_balls(g, r)[v]
            assert len(found) - 1 == expected
            assert frozenset(found) == ball(g, v, r) == frozenset(
                u for u, d in dist.items() if d <= r)


@given(graphs())
def test_edges_roundtrip(g):
    assert build_graph(g.edges(), extra_vertices=g.vertices) == g


def _chain(start, length, u, v):
    """Edges of a u-v path of ``length`` edges through fresh IDs from ``start``."""
    nodes = [u, *range(start, start + length - 1), v]
    return list(zip(nodes, nodes[1:]))


def _theta(a, b, c):
    """Two hubs 0 and 1 joined by internally disjoint paths of a, b, c edges."""
    edges, nxt = [], 2
    for length in (a, b, c):
        edges += _chain(nxt, length, 0, 1)
        nxt += length - 1
    return build_graph(edges)


def _networkx_girth(g):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    return nx.girth(nxg)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_girth_matches_reference_and_networkx(g):
    assert girth(g) == reference_girth(g) == _networkx_girth(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=10), relabelled(graphs(max_n=10))),
       st.integers(1, 4))
def test_memoized_girth_and_r_balls_match_references(g, r):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    first = r_balls(g, r)
    for _ in range(2):  # the second round reads the memo
        assert girth(g) == reference_girth(g)
        balls = r_balls(g, r)
        assert balls is first
        assert sorted(balls) == list(g.vertices)
        for v, found in balls.items():
            assert found[0] == v and len(set(found)) == len(found)
            assert set(found) == set(
                nx.single_source_shortest_path_length(nxg, v, cutoff=r))


def test_girth_cycle_with_pendant_trees():
    # C_7 on 0..6 with a path hanging off 0 and a star hanging off 3.
    g = build_graph(gen_cycle(7).edges()
                    + [(0, 7), (7, 8), (8, 9), (3, 10), (10, 11), (10, 12)])
    assert girth(g) == 7 == reference_girth(g)


@pytest.mark.parametrize("lengths", [(1, 2, 2), (2, 2, 2), (1, 5, 9),
                                     (3, 4, 5), (6, 2, 7), (4, 4, 1)])
def test_girth_theta_graphs(lengths):
    g = _theta(*lengths)
    a, b, _ = sorted(lengths)
    assert girth(g) == a + b == reference_girth(g)


@pytest.mark.parametrize("cycle_n, expected", [(5, 5), (9, 8)])
def test_girth_bare_cycle_next_to_branched_component(cycle_n, expected):
    # A theta graph of girth 8 on 0..13 and a bare cycle on fresh IDs: the
    # minimum comes from whichever holds the smaller girth.
    theta = _theta(4, 4, 6)
    offset = 100
    bare = [(u + offset, v + offset) for u, v in gen_cycle(cycle_n).edges()]
    g = build_graph(theta.edges() + bare)
    assert girth(g) == expected == reference_girth(g)


@pytest.mark.parametrize("k", range(6))
def test_girth_subdivided_k4(k):
    g = subdivide(gen_complete(4), k)
    assert girth(g) == 3 * (k + 1) == reference_girth(g)


@pytest.mark.parametrize("r, f", [(1, 2), (2, 2), (1, 3)])
def test_girth_tightness_family(r, f):
    g = gen_tightness(TightnessParams(r, f)).graph
    # Subdivided K_{2f,2f}: every 4-cycle becomes 4 paths of 2r+1 edges.
    assert girth(g) == 4 * (2 * r + 1) == reference_girth(g)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 60), st.integers(1, 60), st.integers(0, 5))
def test_girth_cycle_beside_a_tree(n, tree_n, seed):
    offset = n
    tree = [(u + offset, v + offset)
            for u, v in gen_random_tree(tree_n, seed).edges()]
    g = build_graph(gen_cycle(n).edges() + tree,
                    extra_vertices=range(offset, offset + tree_n))
    assert girth(g) == n
    assert girth(build_graph(tree, extra_vertices=[offset])) == INFINITE


def _nx(g):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    return nxg


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=10), relabelled(graphs(max_n=10))))
def test_peel_matches_networkx_2_core_and_orders_children_first(g):
    removed, core, cycles, branched = _peel(g)
    nxg = _nx(g)
    k_core = nx.k_core(nxg, 2)
    assert set(core.vertices) == set(k_core.nodes)
    assert core.edges() == sorted(tuple(sorted(e)) for e in k_core.edges)
    assert set(removed) == set(g.vertices) - set(core.vertices)
    position = {v: i for i, v in enumerate(removed)}
    for v, p in removed.items():
        if p is not None:
            assert p in g.neighbors(v)
            assert p in core or position[p] > position[v]
    trees = sum(nx.is_tree(nxg.subgraph(c))
                for c in nx.connected_components(nxg))
    assert list(removed.values()).count(None) == trees
    core_nx = _nx(core)
    assert sorted(cycles) == sorted(
        len(c) for c in nx.connected_components(core_nx)
        if all(core_nx.degree(v) == 2 for v in c))
    assert branched == [v for v in core.vertices if core_nx.degree(v) >= 3]
    assert _peel(g) is _peel(g)


def _with_hanging_trees(g, seed, trees=3):
    """``g`` with ``trees`` seeded random trees, each hung by one edge from
    a random vertex of ``g`` on fresh IDs."""
    rnd = random.Random(seed)
    edges, nxt = g.edges(), max(g.vertices) + 1
    for _ in range(trees):
        tree = gen_random_tree(rnd.randint(1, 12), rnd.randrange(1000))
        edges.append((rnd.choice(g.vertices), nxt))
        edges += [(u + nxt, v + nxt) for u, v in tree.edges()]
        nxt += tree.vertex_count
    return build_graph(edges)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("base", [
    *(subdivide(gen_complete(4), k) for k in range(1, 7)),
    gen_tightness(TightnessParams(2, 2)).graph,
    gen_tightness(TightnessParams(3, 2)).graph,
], ids=[*(f"subdivided-k4-{k}" for k in range(1, 7)),
        "tightness-2-2", "tightness-3-2"])
def test_girth_of_branched_high_girth_core_with_hanging_trees(base, seed):
    g = _with_hanging_trees(base, seed)
    expected = _networkx_girth(g)
    assert girth(g) == expected == girth(base)
    # A slightly longer bare cycle beside it caps every BFS's depth first.
    shift = max(g.vertices) + 1
    bare = [(u + shift, v + shift)
            for u, v in gen_cycle(expected + 1 + seed).edges()]
    assert girth(build_graph(g.edges() + bare)) == expected
