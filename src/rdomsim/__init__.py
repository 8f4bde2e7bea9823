"""Distributed distance-r dominating set on high-girth sparse graphs.

A deterministic CONGEST-style simulator, the greedy selection algorithm and
its companion programs, exact sequential oracles, and the Voronoi-cell
analysis that certifies the approximation bound instance by instance.
"""

from types import ModuleType as _ModuleType

from .corpus import builtin_corpus
from .experiments import (CSV_HEADER, ExperimentError, ExperimentResult,
                          build_instance, run_experiment, run_suite)
from .generators import (gen_complete, gen_cycle, gen_path, gen_random_tree,
                         gen_tightness, subdivide, tightness_dominating_set,
                         tightness_size)
from .graphs import (INFINITE, Graph, GraphError, build_graph, distances,
                     girth, read_graph, write_graph)
from .oracles import (OptimumUnknown, exact_min_rds, greedy_rds,
                      is_independent, is_r_dominating)
from .programs import (RmdsOutput, count_neighborhood_program,
                       cycle_is_program, rmds_program, rmds_round_budget,
                       selection_oracle)
from .simulator import (BudgetExceeded, CandidateMsg, CountMsg, FloodMsg,
                        NodeProgram, ProgramFault, SimulationReport, id_bits,
                        message_widths, run_simulation)
from .voronoi import (ApproxReport, NotDominatingError, VoronoiDecomposition,
                      approx_report, boundary_forest, check_structural_lemmas,
                      split_selection, voronoi_decompose)

# Each submodule binds itself here as it loads.  It stays reachable as an
# attribute, ``rdomsim.graphs``, but a star import does not bind it.
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
