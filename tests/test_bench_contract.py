"""The names by which the benchmark under ``bench/`` reaches into rdomsim.

The benchmark wraps and calls rdomsim functions by name from outside, so a
rename would break only ``bench/run.py --trace 1`` and fail no other test.
``spans.py`` is loaded by path (it needs only the standard library);
``workloads.py`` is read as source.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import rdomsim
import rdomsim.cli  # noqa: F401  (reached as rd.cli by the benchmark)

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
        # Program factories are looked up by name: _simulate(g, "name", ...).
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_simulate"):
            paths.add(("programs", node.args[1].value))
    assert ("programs", "rmds_program") in paths
    assert ("experiments", "run_experiment") in paths
    for path in paths:
        obj = rdomsim
        for attr in path:
            assert hasattr(obj, attr), ".".join(path)
            obj = getattr(obj, attr)
