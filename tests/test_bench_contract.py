"""The names by which the benchmark under ``bench/`` reaches into rdomsim,
and the shape of the committed ``BENCH_*.json`` trajectories.

The benchmark wraps and calls rdomsim functions by name from outside, so a
rename would break only ``bench/run.py --trace 1`` and fail no other test.
``spans.py`` is loaded by path (it needs only the standard library);
``workloads.py`` is read as source.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import rdomsim
import rdomsim.cli  # noqa: F401  (reached as rd.cli by the benchmark)

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    for _, home, attr in _spans().LAYERS:
        assert callable(getattr(importlib.import_module(home), attr, None)), \
            f"{home}.{attr}"


def test_every_step_class_defines_its_own_step():
    # The tracer replaces ``cls.step``; an inherited step would be wrapped
    # on the base class and counted under every subclass.
    programs = importlib.import_module("rdomsim.programs")
    for name in _spans().STEP_CLASSES:
        assert "step" in vars(getattr(programs, name)), name


def _factory_names():
    """Factories the workloads look up by name: _simulate(g, "name", ...)."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return sorted({node.args[1].value for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "_simulate"})


@pytest.mark.parametrize("name", _factory_names())
def test_workload_factories_build_only_traced_nodes(name):
    # Called as Simulate._simulate calls it.  Every node must be exactly of
    # a class whose ``step`` the tracer wraps, or its steps go uncounted.
    programs = importlib.import_module("rdomsim.programs")
    step_classes = {getattr(programs, cls) for cls in _spans().STEP_CLASSES}
    r, g = 2, rdomsim.gen_cycle(11)
    factory = getattr(programs, name)(r)
    built = []

    def recording(*args):
        built.append(factory(*args))
        return built[-1]

    report = rdomsim.run_simulation(
        g, recording, params={"d_member": frozenset(range(0, 11, 2 * r + 1))},
        round_budget=3 * r - 1)
    assert set(report.outputs) == set(g.vertices)
    assert len(built) == g.vertex_count
    assert {type(node) for node in built} <= step_classes


def _chain(node):
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names[::-1]


def test_names_the_workloads_call_still_exist():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _chain(node)
            if chain[:1] == ["rd"]:
                paths.add(tuple(chain[1:]))
            elif chain[:2] == ["self", "rd"]:
                paths.add(tuple(chain[2:]))
    paths.update(("programs", name) for name in _factory_names())
    assert ("programs", "rmds_program") in paths
    assert ("experiments", "run_experiment") in paths
    for path in paths:
        obj = rdomsim
        for attr in path:
            assert hasattr(obj, attr), ".".join(path)
            obj = getattr(obj, attr)


def test_committed_bench_trajectories_are_complete():
    # Every entry of every BENCH_*.json names its source and run length and
    # gives, per workload, the median and quartiles of each end-to-end
    # metric that BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json"
    for path in paths:
        trajectory = json.loads(path.read_text())["trajectory"]
        for i, entry in enumerate(trajectory):
            where = f"{path.name} entry {i}"
            for key in ("src", "run_seconds", "workloads"):
                assert key in entry, f"{where}: no {key!r}"
            assert entry["workloads"], f"{where}: no workload"
            for w, data in entry["workloads"].items():
                for name in names:
                    metric = data["end_to_end"].get(name, {})
                    for stat in ("median", "q1", "q3"):
                        assert isinstance(metric.get(stat), (int, float)), \
                            f"{where} {w}: no {name} {stat}"
