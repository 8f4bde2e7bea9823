import pytest

from rdomsim import distances, gen_random_tree, run_experiment

R = 2


def _tree_levels_spec():
    # Vertices whose depth from 0 is a multiple of r+1 dominate at radius r.
    depth = distances(gen_random_tree(1000, 1), (0,))
    return {"family": "tree", "n": 1000, "seed": 1, "r": R, "algo": "rmds",
            "m": [v for v in sorted(depth) if depth[v] % (R + 1) == 0]}


@pytest.mark.parametrize("spec", [
    {"family": "cycle", "n": 1000, "r": R, "algo": "rmds",
     "m": list(range(0, 1000, 2 * R + 1))},
    _tree_levels_spec(),
], ids=["cycle1000", "tree1000"])
def test_mid_size_experiment_evaluates_every_check(spec):
    result = run_experiment(spec)
    assert result.passed, result.failures
    assert result.report.opt_source == "supplied"
    assert None not in result.report.checks.values(), result.report.checks
