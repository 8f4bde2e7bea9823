"""A spec names only what its family and algo read: any other key is
``bad_spec`` (exit 2), refused before the graph is built."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rdomsim import (ExperimentError, build_instance, builtin_corpus,
                     experiments, gen_cycle, run_experiment, write_graph)
from rdomsim.cli import EXIT_ERROR, main


#: The spec fields each family, each algo and every spec read.
_FAMILY_READS = {"cycle": ("n",), "path": ("n",), "tree": ("n", "seed"),
                 "subdivided_k4": ("k",), "tightness": ("r", "f")}
_ALGO_READS = {"rmds": ("m",), "count": (), "cycle_is": ("d_source",)}
_COMMON_READS = ("family", "algo", "r", "f_r", "allow_low_girth")


def _read_fields(spec):
    """The fields a built-in spec reads: common, family and algo fields."""
    return (_COMMON_READS + _FAMILY_READS[spec["family"]]
            + _ALGO_READS[spec.get("algo", "rmds")])


def _suite_exit(specs):
    """Exit code and last stdout line of ``rdomsim suite`` on ``specs``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "suite.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(specs, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["suite", config])
    return code, json.loads(out.getvalue().splitlines()[-1])


@settings(max_examples=150, deadline=None)
@given(spec=st.sampled_from(builtin_corpus()),
       key=st.sampled_from(["n", "seed", "k", "f", "m", "d_source", "graph",
                            "famly", "F_r", "r ", ""]) | st.text(max_size=6),
       value=st.sampled_from(["zz", 0, 3, True, None, [0], {}]))
def test_a_builtin_spec_with_one_unread_key_is_refused(spec, key, value):
    assume(key not in _read_fields(spec))
    code, line = _suite_exit([spec | {key: value}])
    assert code == EXIT_ERROR
    assert line["error"] == "bad_spec"
    assert repr(key) in line["detail"]


@settings(max_examples=120, deadline=None)
@given(spec_field=st.sampled_from(builtin_corpus()).flatmap(
           lambda spec: st.tuples(st.just(spec),
                                  st.sampled_from(_read_fields(spec)))),
       value=st.sampled_from([None, True, 1.5, "x", "", [], [0, "a"], {}, -1,
                              10 ** 30]))
def test_a_builtin_spec_with_one_bad_value_exits_cleanly(spec_field, value):
    # Never a traceback: a run that passes, fails a check, or is refused
    # with one JSON error line.
    spec, field = spec_field
    code, line = _suite_exit([spec | {field: value}])
    assert code in (0, 1, 2)
    if code == EXIT_ERROR:
        assert line["error"] in ("bad_spec", "bad_family", "bad_input")


@pytest.mark.parametrize("extra, key", [({"famly": "x"}, "famly"),
                                        ({"k": "zz"}, "k"),
                                        ({"seed": 0}, "seed"),
                                        ({"graph": "g.graph"}, "graph"),
                                        ({"f": 2}, "f")])
def test_a_key_the_family_does_not_read_is_refused_before_the_build(
        monkeypatch, extra, key):
    monkeypatch.setattr(experiments, "_MAX_FILE_VERTICES", 1)
    with pytest.raises(ExperimentError) as exc:
        run_experiment({"family": "cycle", "n": 11, "r": 1} | extra)
    assert exc.value.reason == "bad_spec"
    assert exc.value.detail == f"family 'cycle' does not read {key!r}"


def test_a_file_spec_reads_graph_and_nothing_of_the_generated_families(
        tmp_path):
    path = tmp_path / "c.graph"
    write_graph(gen_cycle(11), path)
    spec = {"family": "file", "graph": str(path), "r": 1}
    assert run_experiment(spec).passed
    with pytest.raises(ExperimentError) as exc:
        run_experiment(spec | {"n": 11})
    assert exc.value.detail == "family 'file' does not read 'n'"


def test_build_instance_refuses_an_unread_key_and_keeps_the_algo_fields():
    # Which algo reads m or d_source is run_experiment's to judge, so a full
    # run spec still builds.
    spec = {"family": "cycle", "n": 11, "r": 1}
    for extra in ({"m": [0, 3, 6, 9]}, {"algo": "cycle_is", "d_source": "x"},
                  {"f_r": 2, "allow_low_girth": True}):
        assert build_instance(spec | extra)[0] == gen_cycle(11)
    with pytest.raises(ExperimentError) as exc:
        build_instance(spec | {"seed": 0})
    assert exc.value.detail == "family 'cycle' does not read 'seed'"


def test_every_builtin_spec_reads_all_its_keys():
    for spec in builtin_corpus():
        assert set(spec) <= set(_read_fields(spec)), spec
