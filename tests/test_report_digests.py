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

from rdomsim import builtin_corpus, run_experiment

DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def spec_key(spec) -> str:
    return json.dumps(spec, sort_keys=True)


def report_digest(spec) -> str:
    report = json.dumps(run_experiment(spec).to_dict(), sort_keys=True)
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
    assert report_digest(spec) == json.loads(DIGESTS.read_text())[spec_key(spec)]


if __name__ == "__main__":
    print(json.dumps({spec_key(s): report_digest(s) for s in builtin_corpus()},
                     indent=1, sort_keys=True))
