import pytest

from rdomsim import (INFINITE, TightnessParams, build_graph, distances,
                     exact_min_rds, gen_complete, gen_cycle, gen_path,
                     gen_random_tree, gen_tightness, girth, is_r_dominating,
                     rmds_program, rmds_round_budget, run_simulation,
                     subdivide, tightness_dominating_set)

from _support import (ball, reference_adjacency,
                      reference_random_tree_edges)


def test_gen_cycle():
    g = gen_cycle(7)
    assert g.vertex_count == 7 and g.edge_count == 7
    assert girth(g) == 7
    assert gen_cycle(3).edge_count == 3
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_gen_path():
    assert gen_path(1).vertex_count == 1
    assert gen_path(4).edge_count == 3
    with pytest.raises(ValueError):
        gen_path(0)


def test_gen_random_tree_is_a_deterministic_tree():
    g = gen_random_tree(50, 1)
    assert g.edge_count == 49
    assert girth(g) == INFINITE
    assert g.edges() == gen_random_tree(50, 1).edges()
    assert gen_random_tree(1, 123).vertex_count == 1
    # Different seeds give different trees (overwhelmingly likely by design).
    assert g.edges() != gen_random_tree(50, 2).edges()


def assert_built_from(g, edges, extra=()):
    """``g`` is the graph ``build_graph(edges, extra)`` would build: the same
    vertices, neighbor tuples and adjacency order, and one object per ID."""
    expected = reference_adjacency(edges, extra)
    assert g.vertices == tuple(expected)
    assert list(g._adj) == list(expected)
    assert all(g.neighbors(v) == ns for v, ns in expected.items())
    one = {v: v for v in g._adj}
    assert all(v is one[v] for v in g.vertices)
    assert all(w is one[w] for ns in g._adj.values() for w in ns)


@pytest.mark.parametrize("n", [*range(3, 81), 4096])
def test_gen_cycle_matches_reference(n):
    assert_built_from(gen_cycle(n), [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("n", [*range(1, 81), 4096])
def test_gen_path_matches_reference(n):
    assert_built_from(gen_path(n), [(i, i + 1) for i in range(n - 1)], [0])


@pytest.mark.parametrize("seed", range(32))
def test_gen_random_tree_matches_reference(seed):
    for n in range(1, 81):
        assert_built_from(gen_random_tree(n, seed),
                          reference_random_tree_edges(n, seed), [0])


def test_gen_random_tree_matches_reference_at_scale():
    assert_built_from(gen_random_tree(32768, 0),
                      reference_random_tree_edges(32768, 0))


def test_subdivide_k4():
    g = subdivide(gen_complete(4), 3)
    assert g.vertex_count == 4 + 6 * 3
    assert girth(g) == 12


def test_subdivide_identity_and_cycle():
    c5 = gen_cycle(5)
    assert subdivide(c5, 0) == c5
    c10 = subdivide(c5, 1)
    assert c10.vertex_count == 10 and girth(c10) == 10


def test_subdivide_girth_scaling():
    base = build_graph([(0, 1), (1, 2), (2, 0), (2, 3)])
    for k in (1, 2, 4):
        assert girth(subdivide(base, k)) == 3 * (k + 1)


def test_tightness_params_validation():
    with pytest.raises(ValueError):
        TightnessParams(0, 2)
    with pytest.raises(ValueError):
        TightnessParams(1, 1)


def test_tightness_r1_f2_shape():
    tg = gen_tightness(TightnessParams(1, 2))
    g = tg.graph
    assert g.vertex_count == 8 + 16 * 2 + 16 * 4 == 104
    assert girth(g) == 12
    for x in tg.x_side:
        for y in tg.y_side:
            assert distances(g, (x,))[y] == 3
        assert len(ball(g, x, 1)) - 1 == 4
    for block in tg.pendants.values():
        assert all(len(g.neighbors(b)) == 1 for b in block)


def test_tightness_r2_f2_shape():
    tg = gen_tightness(TightnessParams(2, 2))
    g = tg.graph
    assert g.vertex_count == 8 + 16 * 4 + 16 * 8 == 200
    assert girth(g) == 20 >= 4 * (2 * 2 + 1)
    for x in tg.x_side:
        for y in tg.y_side:
            assert distances(g, (x,))[y] == 5
    # X union Y dominates at distance 2.
    assert is_r_dominating(g, set(tg.x_side) | set(tg.y_side), 2)


def test_tightness_dominating_set_is_valid():
    for r, f in ((1, 2), (2, 2), (1, 3)):
        tg = gen_tightness(TightnessParams(r, f))
        m = tightness_dominating_set(tg)
        assert is_r_dominating(tg.graph, m, r)
        if r >= 2:
            assert m == frozenset(tg.x_side) | frozenset(tg.y_side)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("f", [2, 3, 4])
def test_tightness_ratio_is_exactly_one_plus_r_f(r, f):
    # From r = 2 on, X union Y (4f vertices) is a minimum r-dominating set
    # and rmds selects 1 + r*f times as many vertices.
    tg = gen_tightness(TightnessParams(r, f))
    g = tg.graph
    m = tightness_dominating_set(tg)
    assert len(m) == 4 * f
    assert len(exact_min_rds(g, r, vertex_cap=g.vertex_count)) == len(m)
    sim = run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))
    selected = sum(out.member for out in sim.outputs.values())
    assert selected == (1 + r * f) * len(m)


def test_tightness_determinism():
    a = gen_tightness(TightnessParams(2, 2))
    b = gen_tightness(TightnessParams(2, 2))
    assert a.graph.edges() == b.graph.edges()
    assert a.paths == b.paths and a.pendants == b.pendants
