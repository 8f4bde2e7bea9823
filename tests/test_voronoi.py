import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (GraphError, NotDominatingError, OptimumUnknown,
                     RmdsOutput, SimulationReport, approx_report,
                     boundary_forest, build_graph, check_structural_lemmas,
                     exact_min_rds, gen_cycle, gen_path, gen_random_tree,
                     gen_tightness, greedy_rds, rmds_program,
                     rmds_round_budget, run_simulation, selection_oracle,
                     split_selection, tightness_dominating_set,
                     voronoi_decompose)

from _support import cells, graphs, reference_voronoi_decompose


def run_rmds(g, r):
    return run_simulation(g, rmds_program(r), round_budget=rmds_round_budget(r))


def test_decompose_c9():
    dec = voronoi_decompose(gen_cycle(9), {0, 3, 6})
    assert cells(dec)[0] == frozenset({0, 1, 8})
    assert cells(dec)[3] == frozenset({2, 3, 4})
    assert cells(dec)[6] == frozenset({5, 6, 7})
    assert dec.quotient_edge_count == 3


def test_decompose_tie_breaks_by_smaller_center_id():
    g = build_graph([(0, 1), (1, 2)])
    dec = voronoi_decompose(g, {0, 2})
    assert dec.assignment[1] == 0


def test_decompose_single_center_tree():
    g = gen_random_tree(40, 2)
    dec = voronoi_decompose(g, {0})
    assert cells(dec)[0] == frozenset(g.vertices)
    assert dec.quotient_edge_count == 0


def test_decompose_rejects_non_dominating_centers():
    # A center set that misses a component has no decomposition; one that
    # reaches every vertex has one, and its distances show how far it
    # falls short of r-domination.
    with pytest.raises(NotDominatingError, match="unreachable"):
        voronoi_decompose(build_graph([(0, 1), (2, 3)]), {0})
    with pytest.raises(NotDominatingError, match="empty"):
        voronoi_decompose(gen_cycle(9), set())
    dec = voronoi_decompose(gen_cycle(9), {0})
    assert max(dec.dist.values()) == 4
    assert dec.dist == {v: min(v, 9 - v) for v in range(9)}


def test_decompose_negative_control_without_domination_guard():
    dec = voronoi_decompose(gen_cycle(4), {0})
    # the cell is the whole 4-cycle
    assert check_structural_lemmas(dec, 1)["cells_tree"] is False


def test_structural_lemmas_c9():
    g = gen_cycle(9)
    dec = voronoi_decompose(g, {0, 3, 6})
    # |E'| = 3 <= 1 * 3
    assert check_structural_lemmas(dec, 1) == {
        "cells_tree": True, "single_edge": True, "quotient_bound": True}


def test_structural_lemmas_single_center_tree():
    g = gen_random_tree(40, 2)
    dec = voronoi_decompose(g, {0})
    assert check_structural_lemmas(dec, 1) == {
        "cells_tree": True, "single_edge": True, "quotient_bound": True}


def test_boundary_forest_c9_meets_bound_with_equality():
    g = gen_cycle(9)
    dec = voronoi_decompose(g, {0, 3, 6})
    forest = boundary_forest(g, dec)
    assert forest & cells(dec)[0] == frozenset({0, 1, 8})
    assert len(forest) == 9 == (1 + 2 * 1 * 1) * 3


def test_boundary_forest_single_center_no_boundary():
    g = gen_random_tree(40, 2)
    dec = voronoi_decompose(g, {0})
    assert boundary_forest(g, dec) == frozenset({0})


def test_boundary_forest_walks_inside_its_cell_on_ties():
    # Vertex 2 is two steps from both centers and joins cell 0 through 3;
    # its smaller neighbor 1 is one step nearer too, but in cell 4.
    g = build_graph([(0, 3), (3, 2), (2, 1), (1, 4)])
    dec = voronoi_decompose(g, {0, 4})
    forest = boundary_forest(g, dec)
    assert forest & cells(dec)[0] == frozenset({0, 3, 2})
    assert forest & cells(dec)[4] == frozenset({4, 1})


def test_boundary_forest_tightness_family():
    g = gen_tightness(1, 2)
    centers = frozenset(range(8))  # X = 0..3 and Y = 4..7
    # X union Y misses the pendant vertices at r=1; the decomposition is
    # still well-defined and the bound still holds.
    dec = voronoi_decompose(g, centers)
    assert len(boundary_forest(g, dec)) <= (1 + 2 * 1 * 2) * 8 == 40


def test_boundary_forest_rejects_cyclic_cell():
    g = gen_cycle(4)
    dec = voronoi_decompose(g, {0})
    with pytest.raises(ValueError):
        boundary_forest(g, dec)


def test_split_selection_c7():
    g = gen_cycle(7)
    dec = voronoi_decompose(g, {0, 3, 5})
    inside, outside = split_selection(dec, selection_oracle(g, 1))
    assert inside == frozenset({3, 4, 6})
    assert outside == frozenset({2, 5, 6})


def test_split_selection_identity():
    g = gen_cycle(5)
    dec = voronoi_decompose(g, set(g.vertices))
    outputs = {v: RmdsOutput(True, v) for v in g.vertices}
    assert split_selection(dec, outputs) == (frozenset(g.vertices),
                                             frozenset())


def test_approx_report_c9():
    g = gen_cycle(9)
    report = approx_report(g, 1, 1, run_rmds(g, 1), exact_min_rds(g, 1),
                           "exact")
    assert report.opt_size == 3 and report.opt_source == "exact"
    assert report.ratio <= report.bound == 5
    assert False not in report.checks.values()


def test_approx_report_single_vertex():
    g = build_graph([], 1)
    report = approx_report(g, 1, 1, run_rmds(g, 1), exact_min_rds(g, 1),
                           "exact")
    assert report.alg_size == report.opt_size == 1
    assert report.ratio == 1.0


def test_approx_report_tightness_lower_bound():
    g = gen_tightness(1, 2)
    report = approx_report(g, 1, 2, run_rmds(g, 1),
                           tightness_dominating_set(1, 2), "supplied")
    assert report.opt_source == "supplied"
    assert report.alg_size >= 1 * 4 * 2 * 2  # at least r * 4 * f^2 selected
    assert report.alg_size / (4 * 2) >= 1 * 2  # ratio against |M| <= 4f
    assert False not in report.checks.values()


def test_approx_report_unknown_optimum():
    g = gen_random_tree(30, 1)
    report = approx_report(g, 1, 1, run_rmds(g, 1), exact_min_rds(g, 1),
                           "exact")
    assert report.opt_source == "exact"
    # Over the solver's cap no M is known; the caller passes None.
    big = gen_random_tree(230, 1)
    with pytest.raises(OptimumUnknown):
        exact_min_rds(big, 1)
    unknown = approx_report(big, 1, 1, run_rmds(big, 1), None, "unknown")
    assert unknown.opt_source == "unknown"
    assert unknown.ratio is None and unknown.opt_size is None
    assert unknown.checks["dominating"] is True
    assert unknown.checks["cells_tree"] is None


def test_approx_report_empty_comparison_set_misses_every_component():
    g = gen_cycle(11)
    report = approx_report(g, 1, 1, run_rmds(g, 1), [], "supplied")
    assert report.opt_source == "supplied" and report.opt_size == 0
    assert report.ratio is None
    assert report.checks["dominating"] is True
    assert report.checks["opt_dominating"] is False
    for name in ("cells_tree", "single_edge", "quotient_bound", "t_bound",
                 "di_in_T", "di_bound", "do_bound"):
        assert report.checks[name] is None


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.integers(1, 40), st.integers(0, 5),
       st.integers(1, 5))
def test_approx_report_passes_on_small_trees_and_paths(path, n, seed, r):
    g = gen_path(n) if path else gen_random_tree(n, seed)
    report = approx_report(g, r, 1, run_rmds(g, r), exact_min_rds(g, r),
                           "exact")
    assert report.opt_source == "exact"
    assert [k for k, v in report.checks.items() if v is False] == []


def test_di_in_T_fails_off_the_boundary_forest_of_a_bounded_cell():
    # Path 1-0-2-3-4 with M = {0, 3} at r = 1: cell {0, 1, 2} meets cell
    # {3, 4} at edge (2, 3), so its T is {0, 2}.  Vertex 0 selecting 1
    # puts 1 in D_I but off T.
    g = build_graph([(0, 1), (0, 2), (2, 3), (3, 4)])
    sel = {0: 1, 1: 1, 2: 0, 3: 3, 4: 3}
    sim = SimulationReport(
        outputs={v: RmdsOutput(v in sel.values(), d) for v, d in sel.items()},
        rounds_executed=2, max_message_bits=6)
    report = approx_report(g, 1, 1, sim, {0, 3}, "supplied")
    assert report.checks["dominating"] is True
    assert report.checks["di_in_T"] is False


@settings(max_examples=25, deadline=None)
@given(graphs(min_n=2), st.integers(1, 2))
def test_decomposition_partitions_with_radius_bound(g, r):
    centers = greedy_rds(g, r)
    dec = voronoi_decompose(g, centers)
    assert max(dec.dist.values()) <= r
    seen = set()
    for m, cell in cells(dec).items():
        assert m in cell
        assert not (cell & seen)
        seen |= cell
    assert seen == set(g.vertices)


@settings(max_examples=25, deadline=None)
@given(st.integers(11, 40), st.integers(1, 2))
def test_split_union_equals_selected_on_cycles(n, r):
    g = gen_cycle(n)
    centers = greedy_rds(g, r)
    dec = voronoi_decompose(g, centers)
    oracle = selection_oracle(g, r)
    inside, outside = split_selection(dec, oracle)
    assert inside | outside == frozenset(
        v for v, out in oracle.items() if out.member)


def _outcome(decompose, g, centers):
    try:
        return decompose(g, centers)
    except NotDominatingError as exc:
        return ("NotDominatingError", str(exc))


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=1, max_n=10), st.data())
def test_decompose_matches_per_center_reference(g, data):
    centers = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    fast = _outcome(voronoi_decompose, g, centers)
    slow = _outcome(reference_voronoi_decompose, g, centers)
    assert fast == slow  # tuple equality compares dist too


def test_decompose_ties_on_even_cycle_go_to_smaller_center():
    # On C_12 with centers 0, 4, 8 vertices 2, 6 and 10 sit at distance 2
    # from two centers each.
    g = gen_cycle(12)
    dec = voronoi_decompose(g, {8, 4, 0})
    assert (dec.assignment[2], dec.assignment[6], dec.assignment[10]) == (0, 4, 0)
    assert dec == reference_voronoi_decompose(g, {0, 4, 8})


def test_decompose_error_branches_match_reference():
    disconnected = build_graph([(0, 1), (2, 3)])
    far = gen_cycle(9)
    for g, centers in [(disconnected, {0}), (disconnected, {0, 1})]:
        fast = _outcome(voronoi_decompose, g, centers)
        assert fast == _outcome(reference_voronoi_decompose, g, centers)
        assert fast[0] == "NotDominatingError"
    assert "unreachable" in _outcome(voronoi_decompose, disconnected, {0})[1]
    # Centers farther than r from some vertex still decompose; dist shows it.
    for centers, farthest in [({0}, 4), ({0, 4}, 2)]:
        dec = voronoi_decompose(far, centers)
        assert dec == reference_voronoi_decompose(far, centers)
        assert max(dec.dist.values()) == farthest


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10), st.data())
def test_lemmas_and_forest_match_networkx(g, data):
    G = nx.Graph(g.edges())
    G.add_nodes_from(g.vertices)
    drawn = data.draw(st.sets(st.sampled_from(g.vertices)))
    # One center in every component missed by the draw, so every vertex
    # is reachable and the decomposition exists.
    centers = drawn | {min(comp) for comp in nx.connected_components(G)
                       if not comp & drawn}
    dec = voronoi_decompose(g, centers)
    lemmas = check_structural_lemmas(dec, 1)

    tree_cells = {m: nx.is_tree(G.subgraph(cell))
                  for m, cell in cells(dec).items()}
    assert lemmas["cells_tree"] == all(tree_cells.values())
    assert dec.non_tree_cells == tuple(
        sorted(m for m, ok in tree_cells.items() if not ok))

    pair_edges = {}
    for u, v in G.edges():
        cu, cv = sorted((dec.assignment[u], dec.assignment[v]))
        if cu != cv:
            pair_edges[cu, cv] = pair_edges.get((cu, cv), 0) + 1
    assert lemmas["single_edge"] == all(
        count == 1 for count in pair_edges.values())

    if not lemmas["cells_tree"]:
        first = min(m for m, ok in tree_cells.items() if not ok)
        with pytest.raises(ValueError, match=f"center {first} does not"):
            boundary_forest(g, dec)
        return
    forest = boundary_forest(g, dec)
    trees = []
    for m, cell in cells(dec).items():
        inside = G.subgraph(cell)
        boundary = {u for u in cell
                    if any(w not in cell for w in G.neighbors(u))}
        trees.append({m}.union(*(nx.shortest_path(inside, b, m)
                                 for b in boundary)))
        assert forest & cell == trees[-1]
    assert forest == frozenset().union(*trees)


def test_voronoi_refuses_an_unknown_center():
    # Several unknown centers are named by the smallest, whatever the
    # order of the set.
    for centers, bad in [([99], 99), ([1, 99, 42, 7, 3], 7),
                         ([1000, 64, 8, 0], 8)]:
        with pytest.raises(GraphError) as info:
            voronoi_decompose(gen_cycle(5), centers)
        assert str(info.value) == f"vertex {bad} out of range for n=5"
