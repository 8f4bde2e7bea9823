"""The result records are immutable ``NamedTuple``s with fixed fields.

Importing the package defines them without generating code, so neither
``dataclasses`` nor ``inspect`` is loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdomsim
from rdomsim import (ApproxReport, ExperimentResult, SimulationReport,
                     VoronoiDecomposition, gen_cycle, rmds_program,
                     run_experiment, run_simulation, voronoi_decompose)

#: Each record's fields, in order.
FIELDS = {
    SimulationReport: ("outputs", "rounds_executed", "max_message_bits",
                       "messages_per_round"),
    VoronoiDecomposition: ("centers", "dist", "assignment", "intercell_edges",
                           "quotient_edge_count", "non_tree_cells"),
    ApproxReport: ("n", "r", "f_r", "girth_value", "alg_size", "opt_size",
                   "opt_source", "ratio", "bound", "quotient_edges",
                   "boundary_size", "di_size", "do_size", "rounds_executed",
                   "max_message_bits", "checks"),
    ExperimentResult: ("spec", "passed", "failures", "row", "report",
                       "detail"),
}


def _records():
    g = gen_cycle(11)
    result = run_experiment({"family": "cycle", "n": 11, "r": 1})
    count = run_experiment({"family": "cycle", "n": 11, "r": 1,
                            "algo": "count"})
    return [
        run_simulation(g, rmds_program(1), round_budget=2),
        voronoi_decompose(g, [0, 4, 8]),
        result.report,
        result,
        count,
    ]


RECORDS = _records()
IDS = [type(rec).__name__ for rec in RECORDS]


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import rdomsim, rdomsim.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & "
            "(set(sys.modules) - before)))\n")
    src = str(Path(rdomsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_fields_keep_their_names_and_order(rec):
    assert type(rec)._fields == FIELDS[type(rec)]


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_equals_one_rebuilt_from_its_own_fields(rec):
    fields = {name: getattr(rec, name) for name in type(rec)._fields}
    assert type(rec)(**fields) == rec
    assert type(rec)(*fields.values()) == rec


@pytest.mark.parametrize("rec", RECORDS, ids=IDS)
def test_record_attributes_cannot_be_set(rec):
    first = type(rec)._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_messages_per_round_defaults_to_an_empty_tuple():
    a = SimulationReport({}, 0, 0)
    b = SimulationReport(outputs={}, rounds_executed=0, max_message_bits=0)
    assert a.messages_per_round == b.messages_per_round == ()


def test_approx_report_to_dict_pins_its_keys_and_copies_checks():
    report = RECORDS[2]
    d = report.to_dict()
    assert list(d) == ["n", "r", "f_r", "alg_size", "opt_size", "opt_source",
                       "ratio", "bound", "quotient_edges", "boundary_size",
                       "di_size", "do_size", "rounds_executed",
                       "max_message_bits", "checks", "girth"]
    assert d["girth"] == 11
    assert d["checks"] == report.checks
    before = dict(report.checks)
    d["checks"]["dominating"] = False
    d["checks"]["extra"] = True
    assert report.checks == before
    assert report.to_dict()["checks"] == before
