import pytest

from rdomsim import (INFINITE, build_graph, distances, exact_min_rds,
                     gen_complete, gen_cycle, gen_path, gen_random_tree,
                     gen_tightness, girth, is_r_dominating, rmds_program,
                     rmds_round_budget, run_simulation, subdivide,
                     tightness_dominating_set, tightness_size)
from rdomsim import oracles

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


def assert_built_from(g, edges, n):
    """``g`` is the graph ``build_graph(edges, n)`` would build: the
    vertices 0..n-1, the same neighbor tuples, and one object per ID."""
    expected = reference_adjacency(edges, n)
    assert g.vertices == tuple(range(n))
    assert g._adj == expected
    assert all(g.neighbors(v) == ns for v, ns in enumerate(expected))
    one = {v: v for v in g.vertices}
    assert all(w is one[w] for ns in g._adj for w in ns)


@pytest.mark.parametrize("n", [*range(3, 81), 4096])
def test_gen_cycle_matches_reference(n):
    assert_built_from(gen_cycle(n), [(i, (i + 1) % n) for i in range(n)], n)


@pytest.mark.parametrize("n", [*range(1, 81), 4096])
def test_gen_path_matches_reference(n):
    assert_built_from(gen_path(n), [(i, i + 1) for i in range(n - 1)], n)


@pytest.mark.parametrize("seed", range(32))
def test_gen_random_tree_matches_reference(seed):
    for n in range(1, 81):
        assert_built_from(gen_random_tree(n, seed),
                          reference_random_tree_edges(n, seed), n)


def test_gen_random_tree_matches_reference_at_scale():
    assert_built_from(gen_random_tree(32768, 0),
                      reference_random_tree_edges(32768, 0), 32768)


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


def tightness_layout(r, f):
    """The documented ID layout of ``gen_tightness(r, f)``: X, Y, and the
    path and pendant block of each (x, y) pair, pairs in lexicographic
    order."""
    side, k = 2 * f, 2 * r * f
    x_side, y_side = range(side), range(side, 2 * side)
    pairs = [(x, y) for x in x_side for y in y_side]
    first_block = 2 * side + 2 * r * len(pairs)
    paths = {pair: range(2 * side + 2 * r * i, 2 * side + 2 * r * (i + 1))
             for i, pair in enumerate(pairs)}
    pendants = {pair: range(first_block + k * i, first_block + k * (i + 1))
                for i, pair in enumerate(pairs)}
    return x_side, y_side, paths, pendants


@pytest.mark.parametrize("make", [tightness_size, gen_tightness,
                                  tightness_dominating_set])
def test_tightness_range_checks(make):
    with pytest.raises(ValueError, match=r"^r must be >= 1, got 0$"):
        make(0, 2)
    with pytest.raises(ValueError, match=r"^f must be >= 2, got 1$"):
        make(1, 1)
    # r is checked first.
    with pytest.raises(ValueError, match=r"^r must be >= 1, got 0$"):
        make(0, 1)


@pytest.mark.parametrize("r, f", [(1, 2), (2, 2), (1, 3), (3, 2), (2, 4)])
def test_tightness_follows_its_documented_layout(r, f):
    g = gen_tightness(r, f)
    x_side, y_side, paths, pendants = tightness_layout(r, f)
    assert g.vertex_count == tightness_size(r, f) == 4 * f + 8 * r * f ** 2 \
        + 8 * r * f ** 3
    assert [*x_side, *y_side, *(v for p in paths.values() for v in p),
            *(v for b in pendants.values() for v in b)] == list(g.vertices)
    expected = {v: set() for v in g.vertices}
    for (x, y), path in paths.items():
        chain = (x, *path, y)
        for u, v in [*zip(chain, chain[1:]),
                     *((path[0], b) for b in pendants[(x, y)])]:
            expected[u].add(v)
            expected[v].add(u)
    assert {v: g.neighbors(v) for v in g.vertices} == {
        v: tuple(sorted(ns)) for v, ns in expected.items()}


def test_tightness_r1_f2_shape():
    g = gen_tightness(1, 2)
    x_side, y_side, _, pendants = tightness_layout(1, 2)
    assert g.vertex_count == 8 + 16 * 2 + 16 * 4 == 104
    assert girth(g) == 12
    for x in x_side:
        for y in y_side:
            assert distances(g, (x,))[y] == 3
        assert len(ball(g, x, 1)) - 1 == 4
    for block in pendants.values():
        assert all(len(g.neighbors(b)) == 1 for b in block)


def test_tightness_r2_f2_shape():
    g = gen_tightness(2, 2)
    x_side, y_side, _, _ = tightness_layout(2, 2)
    assert g.vertex_count == 8 + 16 * 4 + 16 * 8 == 200
    assert girth(g) == 20 >= 4 * (2 * 2 + 1)
    for x in x_side:
        for y in y_side:
            assert distances(g, (x,))[y] == 5
    # X union Y dominates at distance 2.
    assert is_r_dominating(g, set(x_side) | set(y_side), 2)


def test_tightness_dominating_set_is_valid():
    for r, f in ((1, 2), (2, 2), (1, 3)):
        x_side, y_side, paths, _ = tightness_layout(r, f)
        m = tightness_dominating_set(r, f)
        assert is_r_dominating(gen_tightness(r, f), m, r)
        if r >= 2:
            assert m == frozenset(x_side) | frozenset(y_side)
        else:
            assert m == frozenset(x_side) | frozenset(y_side) | frozenset(
                path[0] for path in paths.values())


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("f", [2, 3, 4])
def test_tightness_ratio_is_exactly_one_plus_r_f(monkeypatch, r, f):
    # From r = 2 on, X union Y (4f vertices) is a minimum r-dominating set
    # and rmds selects 1 + r*f times as many vertices.
    g = gen_tightness(r, f)
    m = tightness_dominating_set(r, f)
    assert len(m) == 4 * f
    monkeypatch.setattr(oracles, "_VERTEX_CAP", g.vertex_count)
    assert len(exact_min_rds(g, r)) == len(m)
    sim = run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))
    selected = sum(out.member for out in sim.outputs.values())
    assert selected == (1 + r * f) * len(m)


def test_tightness_determinism():
    a = gen_tightness(2, 2)
    b = gen_tightness(2, 2)
    assert a.edges() == b.edges()
    assert a._adj == b._adj


def test_complete_and_subdivide_refuse_bad_sizes():
    with pytest.raises(ValueError) as info:
        gen_complete(0)
    assert str(info.value) == "K_n needs at least 1 vertex, got 0"
    with pytest.raises(ValueError) as info:
        subdivide(gen_cycle(3), -1)
    assert str(info.value) == "k must be non-negative"
