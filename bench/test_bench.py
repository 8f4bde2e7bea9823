"""Self-tests of the benchmark itself.

    python3 -m pytest bench -q

They check the span arithmetic, that the benchmark's inputs are what the
workload descriptions say (against networkx, not rdomsim's own BFS), how the
seed acts, and that the metric names agree with BENCHMARK.json.
"""

import json

import networkx as nx
import pytest

from run import OUT, ROOT, Pass, end_to_end, fresh_import
from spans import PER_LAYER, Span, Tracer, layer_metrics, self_times
from workloads import (Corpus, OpResult, Simulate, scale_specs,
                       tree_ball_sizes)


@pytest.fixture(scope="module")
def rd():
    OUT.mkdir(exist_ok=True)
    return fresh_import()


def _nx(g):
    graph = nx.Graph(g.edges())
    graph.add_nodes_from(g.vertices)
    return graph


def _span(name, start, end, parent, calls=1, busy=None):
    span = Span(name, start, parent, op=0)
    span.end, span.calls = end, calls
    span.busy = end - start if busy is None else busy
    return span


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),                    # 0
        _span("experiments.run_experiment", 1.0, 4.0, 0),    # 1
        _span("graphs.girth", 2.0, 3.0, 1),                  # 2
        _span("simulator.run_simulation", 5.0, 9.0, 0),      # 3
        _span("programs.step", 5.0, 9.0, 3, calls=100, busy=2.5),  # 4
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    assert sum(self_times(spans)) == pytest.approx(spans[0].busy)

    # The first span is set-up and counts once; the rest span two passes.
    metrics = layer_metrics(spans, setup_count=1, passes=2)
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["experiments.run_experiment.self_s"] == pytest.approx(1.0)
    assert metrics["graphs.girth.calls"] == pytest.approx(0.5)
    assert metrics["programs.step.calls"] == pytest.approx(50.0)
    assert metrics["programs.step.self_s"] == pytest.approx(1.25)


def test_tracer_sees_calls_through_every_module_binding():
    tracer = Tracer()
    rd = fresh_import()
    try:
        tracer.install()
        rd.experiments.run_experiment(
            {"family": "cycle", "n": 11, "r": 1, "algo": "rmds"})
        by_name = {}
        for i, span in enumerate(tracer.spans):
            by_name.setdefault(span.name, []).append(i)
        # Girth runs once in run_experiment and once in approx_report.
        assert len(by_name["graphs.girth"]) == 2
        assert {tracer.spans[tracer.spans[i].parent].name
                for i in by_name["graphs.girth"]} == {
            "experiments.run_experiment", "voronoi.approx_report"}
        assert len(by_name["oracles.exact_min_rds"]) == 1
        step = tracer.spans[by_name["programs.step"][0]]
        assert step.calls == 11 * 3  # every vertex, 3r rounds
        assert tracer.spans[step.parent].counts == {
            "rounds": 2, "messages_sent": 11 * 2 * 2, "max_message_bits": 8}
    finally:
        fresh_import()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_scale_comparison_sets_dominate(rd, seed):
    for spec in scale_specs(rd, seed):
        g, _ = rd.build_instance(spec)
        dist = nx.multi_source_dijkstra_path_length(_nx(g), set(spec["m"]))
        assert len(dist) == g.vertex_count
        assert max(dist.values()) <= spec["r"]


def test_tree_ball_sizes_match_networkx(rd):
    g = rd.gen_random_tree(300, 5)
    graph = _nx(g)
    for r in (1, 2, 3, 4):
        assert tree_ball_sizes(g, r) == {
            v: len(nx.single_source_shortest_path_length(graph, v, cutoff=r)) - 1
            for v in g.vertices}


def test_seed_changes_trees_but_not_corpus(rd):
    assert scale_specs(rd, 1) == scale_specs(rd, 1)
    one, two = scale_specs(rd, 1), scale_specs(rd, 2)
    assert [s for s in one if s["family"] == "cycle"] == \
        [s for s in two if s["family"] == "cycle"]
    assert [s["m"] for s in one if s["family"] == "tree"] != \
        [s["m"] for s in two if s["family"] == "tree"]
    assert Corpus(rd, 1, OUT).labels == Corpus(rd, 2, OUT).labels
    labels = [[op.label for op in Simulate(rd, seed, OUT).ops]
              for seed in (1, 2)]
    assert [x for x in labels[0] if "tree" not in x] == \
        [x for x in labels[1] if "tree" not in x]
    assert labels[0] != labels[1]


def test_time_outside_ops_counts_in_throughput():
    ops = [OpResult("a", 0.0, 0.2, ()), OpResult("b", 0.2, 0.3, ())]
    passes = [Pass(0.0, 1.0, ops), Pass(1.0, 1.0, ops)]  # 0.5 s of glue
    metrics = end_to_end(passes, [(0.0, 0.1)])
    assert metrics["throughput_ops_s"] == pytest.approx(2.0)
    assert metrics["latency_p50_s"] == pytest.approx(0.25)

    def double(start):
        return 2.0

    slow = end_to_end(passes, [(0.0, 0.1)], double)
    assert slow["throughput_ops_s"] == pytest.approx(1.0)
    assert slow["setup_s"] == pytest.approx(0.2)
    assert slow["latency_tail_s"] == pytest.approx(0.4)
    raw_tail = end_to_end(passes, [(0.0, 0.1)], double, scale_tail=False)
    assert raw_tail["latency_tail_s"] == pytest.approx(0.2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = [OpResult("op", 0.0, 0.1 * (i + 1), ()) for i in range(20)]
    assert set(end_to_end([Pass(0.0, 21.0, ops)], [(0.0, 0.1)])) == \
        {m["name"] for m in spec["end_to_end"]}
    per_layer = set(layer_metrics([], 0, 1)) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {f"{layer}.{figure}" for layer, figure in PER_LAYER} <= per_layer
