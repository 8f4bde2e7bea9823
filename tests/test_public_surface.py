"""The package's public names, pinned: adding or removing an export is a
deliberate edit of this list."""

import rdomsim

PUBLIC = [
    "ApproxReport", "BudgetExceeded", "CSV_HEADER", "CandidateMsg",
    "CountMsg", "ExperimentError", "ExperimentResult", "FloodMsg", "Graph",
    "GraphError", "INFINITE", "NodeProgram", "NotDominatingError",
    "OptimumUnknown", "ProgramFault", "RmdsOutput",
    "SimulationReport", "VoronoiDecomposition", "approx_report",
    "boundary_forest", "build_graph", "build_instance", "builtin_corpus",
    "check_structural_lemmas", "count_neighborhood_program",
    "cycle_is_program", "distances", "exact_min_rds", "gen_complete",
    "gen_cycle", "gen_path", "gen_random_tree", "gen_tightness", "girth",
    "greedy_rds", "id_bits", "is_independent", "is_r_dominating",
    "message_widths", "read_graph", "rmds_program", "rmds_round_budget",
    "run_experiment", "run_simulation", "run_suite", "selection_oracle",
    "split_selection", "subdivide", "tightness_dominating_set",
    "tightness_size", "voronoi_decompose", "write_graph",
]


def test_public_names_are_pinned():
    assert sorted(rdomsim.__all__) == PUBLIC
