"""The JSON report of every built-in spec, pinned by digest.

The suite CSV (pinned in test_acceptance) does not carry the fields that
depend on which optimum the exact solver returns: ``quotient_edges``,
``boundary_size``, ``di_size``, ``do_size`` and ``t_bound``.  The reports
do, so a solver that returns another optimum of the same size changes a
digest here.

Regenerate the digests only when a report is meant to change:

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
"""

import hashlib
import json
from pathlib import Path
from unittest.mock import patch

from rdomsim import builtin_corpus, oracles, run_experiment

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def spec_key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


def report_digest(result) -> str:
    report = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def test_every_builtin_spec_is_pinned():
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == sorted(spec_key(s) for s in builtin_corpus())


def pytest_generate_tests(metafunc):
    # A hook rather than a marker, so the module runs as a script without
    # pytest installed.
    if "spec" in metafunc.fixturenames:
        metafunc.parametrize("spec", builtin_corpus(), ids=spec_key)


def test_report_matches_pinned_digest(spec):
    assert (report_digest(run_experiment(spec))
            == json.loads(DIGESTS.read_text())[spec_key(spec)])


def test_exact_specs_solve_within_1000_search_nodes():
    # The solver's node budget is 100 times this measured need: at 1000
    # nodes every rmds spec that asks for the exact optimum still gets it,
    # and with it the same report.
    pinned = json.loads(DIGESTS.read_text())
    exact = [spec for spec in builtin_corpus() if spec["algo"] == "rmds"
             and spec.get("m", "exact") == "exact"]
    assert len(exact) == 48
    with patch.object(oracles, "_NODE_BUDGET", 1000):
        for spec in exact:
            result = run_experiment(spec)
            assert result.report.opt_source == "exact", spec
            assert report_digest(result) == pinned[spec_key(spec)], spec


if __name__ == "__main__":
    print(json.dumps({spec_key(s): report_digest(run_experiment(s))
                      for s in builtin_corpus()}, indent=1, sort_keys=True))
