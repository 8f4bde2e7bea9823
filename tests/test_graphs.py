import contextlib
import functools
import gc
import itertools
import math
import os
import random
import threading
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdomsim import (INFINITE, GraphError, build_graph, distances,
                     gen_complete, gen_cycle, gen_path, gen_random_tree,
                     gen_tightness, girth, read_graph, subdivide, write_graph)

from rdomsim.graphs import _MAX_HEADER_BYTES, _peel, r_balls

from _support import (ball, graphs, reference_adjacency, reference_girth,
                      reference_ids, relabelled, spoilt)


def test_build_path_on_three_vertices():
    g = build_graph([(0, 1), (1, 2)])
    assert g.vertices == (0, 1, 2)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.neighbors(1) == (0, 2)


def test_equal_graphs_hash_alike_and_key_a_dict():
    g, same = gen_cycle(5), build_graph([(4, 0), (0, 1), (1, 2), (2, 3), (3, 4)])
    assert g == same and g is not same and hash(g) == hash(same)
    table = {g: "C5", gen_path(5): "P5"}
    assert table[same] == "C5" and len(table) == 2
    assert repr(g) == "Graph(n=5, m=5)"
    assert repr(build_graph([], 3)) == "Graph(n=3, m=0)"


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph([(0, 0)])


def test_build_rejects_duplicate_edge_either_orientation():
    with pytest.raises(GraphError):
        build_graph([(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        build_graph([(0, 1), (0, 1)])


def test_build_rejects_boolean_vertex_ids():
    # True == 1 and hashes alike, so it would stand in for vertex 1.
    with pytest.raises(GraphError) as err:
        build_graph([(True, 2), (1, 3)])
    assert str(err.value) == "vertex True out of range for n=4"


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("edges, n, message", [
    pytest.param([(0, 1), (1, -2)], None, "vertex -2 out of range for n=2",
                 id="negative"),
    pytest.param([(0, 1), (1.5, 2)], None, "vertex 1.5 out of range for n=3",
                 id="float"),
    pytest.param([(300, 301), (300.0, 302)], None,
                 "vertex 300.0 out of range for n=303",
                 id="float-equal-to-an-id"),
    pytest.param([(0, 1), (False, 2)], None,
                 "vertex False out of range for n=3", id="bool"),
    pytest.param([(0, 1), (1, [2])], None, "vertex [2] out of range for n=2",
                 id="unhashable"),
    pytest.param([(0, 1), ("7", 2)], None, "vertex '7' out of range for n=3",
                 id="str"),
    pytest.param([(0, 1), (2, 2)], None, "self-loop at vertex 2",
                 id="self-loop"),
    pytest.param([(0, 1), (1, 2), (2, 1)], None, "duplicate edge (1, 2)",
                 id="duplicate-reversed"),
    pytest.param([(0, 1), (1, 2), (1, 2)], None, "duplicate edge (1, 2)",
                 id="duplicate-same-way"),
    pytest.param([(500, 400), (401, 400), (400, 500)], None,
                 "duplicate edge (400, 500)", id="duplicate-large-ids"),
    pytest.param([(0, 1), (1, 2)], 2, "vertex 2 out of range for n=2",
                 id="at-n"),
    pytest.param([(0, 1)], 0, "vertex 0 out of range for n=0", id="n-0"),
    # Two planted faults: the first in input order is named.
    pytest.param([(0, 1), (3, 3), (1, 0)], None, "self-loop at vertex 3",
                 id="self-loop-then-duplicate"),
    pytest.param([(0, 1), (1, 0), (3, 3)], None, "duplicate edge (0, 1)",
                 id="duplicate-then-self-loop"),
    pytest.param([(5, 6), (7, -1), (2, 2)], None,
                 "vertex -1 out of range for n=8",
                 id="negative-then-self-loop"),
    pytest.param([(2, 2), (7, -1)], None, "self-loop at vertex 2",
                 id="self-loop-then-negative"),
    pytest.param([(4, 4), ([2], 3)], None, "self-loop at vertex 4",
                 id="self-loop-then-unhashable"),
    pytest.param([(0, [1]), (2, 2)], None, "vertex [1] out of range for n=3",
                 id="unhashable-then-self-loop"),
    pytest.param([(0, 1), (2, 5), (1, -3)], 4, "vertex 5 out of range for n=4",
                 id="above-n-then-negative"),
    pytest.param([(0, 1), (1, 0), (0, 9)], 3, "duplicate edge (0, 1)",
                 id="duplicate-then-above-n"),
])
def test_build_names_the_first_planted_fault(edges, n, message, as_generator):
    with pytest.raises(GraphError) as err:
        build_graph((e for e in edges) if as_generator else edges, n)
    assert str(err.value) == message


def _fresh(w):
    """An int equal to ``w`` but a new object (beyond CPython's small-int
    cache), as generators make when they compute an ID twice."""
    return int(str(w))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_matches_reference_builder(data):
    # IDs up to 600, past CPython's small-int cache, each end a fresh
    # object: the graph must still hold one object per ID.
    n = data.draw(st.integers(1, 600), label="n")
    ids = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                             min_size=1, max_size=14), label="ids")
    pairs = list(itertools.combinations(ids, 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                max_size=len(pairs)) if pairs else st.just([]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen),
                               max_size=len(chosen)))
    edges = data.draw(st.permutations(
        [(_fresh(v), _fresh(u)) if flip else (_fresh(u), _fresh(v))
         for (u, v), flip in zip(chosen, flips)]), label="edges")
    expected = reference_adjacency(edges, n)
    if data.draw(st.booleans(), label="as generator"):
        g = build_graph((e for e in edges), n)
    else:
        g = build_graph(edges, n)
    assert g.vertices == tuple(range(n))
    assert [g.neighbors(v) for v in g.vertices] == expected
    assert g.edges() == sorted((min(e), max(e)) for e in edges)
    one = {v: v for v in g.vertices}
    assert all(w is one[w] for v in g.vertices for w in g.neighbors(v))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), default_n=st.booleans(), data=st.data())
def test_build_matches_networkx_round_trips_and_names_a_bad_id(
        tmp_path_factory, n, default_n, data):
    # A drawn edge list builds the graph networkx builds on 0..n-1, where
    # n defaults to one more than the largest ID, and write_graph then
    # read_graph gives it back, isolated vertices and gaps in the used IDs
    # included.  Planting an ID >= n, a negative ID or a bool in one edge
    # makes the build a GraphError naming that ID.
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in data.draw(
        st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                 unique_by=lambda t: t[0]) if pairs else st.just([]))]
    if default_n:
        n = 1 + max(itertools.chain.from_iterable(edges), default=-1)
    g = build_graph(edges, None if default_n else n)
    nxg = nx.Graph(edges)
    nxg.add_nodes_from(range(n))
    assert g.vertices == tuple(sorted(nxg)) == tuple(range(n))
    assert [g.neighbors(v) for v in g.vertices] == [
        tuple(sorted(nxg[v])) for v in sorted(nxg)]
    assert g.edges() == sorted(tuple(sorted(e)) for e in nxg.edges)
    path = tmp_path_factory.mktemp("graph") / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    if not n:
        return
    bad = data.draw(st.integers(n, n + 1000) | st.integers(-1000, -1)
                    | st.booleans(), label="bad")
    planted = data.draw(st.sampled_from([(bad, n - 1), (n - 1, bad)]))
    where = data.draw(st.integers(0, len(edges)), label="where")
    with pytest.raises(GraphError) as info:
        build_graph(edges[:where] + [planted] + edges[where:], n)
    assert str(info.value) == f"vertex {bad!r} out of range for n={n}"


def graph_bytes_per_vertex(make):
    """``(graph, live, peak)``: the bytes per vertex that ``make`` leaves
    allocated and the most it held at once, input edge list included, as
    tracemalloc sees them.  The free lists of small tuples and lists are
    emptied first, by holding fresh ones, so every object the build makes
    is allocated, and seen, whatever the process ran before."""
    held = [[(i,), (i, i), (i, i, i), [i]] for i in range(1 << 14)]  # noqa: F841
    tracemalloc.start()
    try:
        g = make()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, live / g.vertex_count, peak / g.vertex_count


def _read_written_tree(path):
    write_graph(gen_random_tree(4096, 0), path)
    return functools.partial(read_graph, path)


@pytest.mark.parametrize("prepare, live_ceiling, peak_ceiling", [
    (lambda path: functools.partial(gen_cycle, 4096), 112, 121),
    (lambda path: functools.partial(gen_random_tree, 4096, 0), 114, 159),
    (_read_written_tree, 114, 222),
], ids=["cycle", "tree", "read-tree"])
def test_build_memory_per_vertex(tmp_path, prepare, live_ceiling,
                                 peak_ceiling):
    # CPython 3.10 to 3.13 measure live 99-102, 93-103 and 93-103 bytes,
    # peak 107-110, 141-145 and 199-202; each ceiling is about 1.1 times
    # the most.  A dict adjacency beside a vertex tuple (live 127-131),
    # an int object per endpoint, or a reader that holds a tuple per edge
    # through the build (peak 269) each costs more, and so does a tree that
    # holds every neighbor list and every tuple at once.
    g, live, peak = graph_bytes_per_vertex(prepare(tmp_path / "g.txt"))
    assert live <= live_ceiling
    assert peak <= peak_ceiling
    one = {v: v for v in g.vertices}
    assert all(w is one[w] for v in g.vertices for w in g.neighbors(v))


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("make, raises", [
    (functools.partial(build_graph, [(0, 1), (1, 2), (2, 0)]), None),
    (functools.partial(build_graph, [(0, 1), (1, 0)]), GraphError),
    (functools.partial(build_graph, [(0, 1, 2)]), ValueError),
    (functools.partial(gen_cycle, 300), None),
    (functools.partial(gen_cycle, 2), ValueError),
    (functools.partial(gen_path, 300), None),
    (functools.partial(gen_path, 0), ValueError),
    (functools.partial(gen_random_tree, 300, 0), None),
    (functools.partial(gen_random_tree, 0, 0), ValueError),
], ids=["builds", "duplicate", "not-a-pair", "cycle", "cycle-too-short",
        "path", "empty-path", "tree", "empty-tree"])
def test_build_restores_the_collector_state_and_leaves_no_garbage(
        enabled, make, raises):
    # A build pauses the cyclic collector, which is safe only because it
    # makes no reference cycle; however it ends, the collector is left as
    # the caller had it.  Freezing moves the test heap out of the
    # collector's reach, so the collection scans only what the build made.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.freeze()
    try:
        if raises is None:
            make()
        else:
            with pytest.raises(raises):
                make()
        assert gc.isenabled() is enabled
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        (gc.enable if was else gc.disable)()


def test_bfs_distances_on_cycle():
    g = gen_cycle(6)
    assert distances(g, (0,)) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1}


def test_bfs_distances_restricted_to_component():
    g = build_graph([(0, 1), (2, 3)])
    assert distances(g, (0,)) == {0: 0, 1: 1}


def test_bfs_distances_path():
    g = build_graph([(0, 1), (1, 2), (2, 3)])
    assert distances(g, (0,)) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_unknown_source():
    with pytest.raises(GraphError):
        distances(gen_cycle(3), (99,))


def test_neighborhood_size_on_long_cycle():
    g = gen_cycle(11)
    assert all(len(b) - 1 == 4 for b in r_balls(g, 2).values())


def test_neighborhood_size_star_center():
    star = build_graph([(5, leaf) for leaf in range(5)])
    balls = r_balls(star, 1)
    assert len(balls[5]) - 1 == 5
    assert len(balls[0]) - 1 == 1


def test_girth_cycles_and_trees():
    assert girth(gen_cycle(9)) == 9
    for n in range(3, 12):
        assert girth(gen_cycle(n)) == n
    assert girth(gen_random_tree(50, 1)) == INFINITE
    assert math.isinf(girth(build_graph([(0, 1)])))


def test_girth_two_cycles_takes_minimum():
    # Triangle and C_5 sharing nothing.
    g = build_graph([(0, 1), (1, 2), (2, 0),
                     (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    assert girth(g) == 3


@pytest.mark.parametrize("make", [
    lambda: gen_random_tree(30, 7),
    lambda: gen_cycle(17),
    lambda: gen_path(9),
    lambda: gen_tightness(1, 2),
    lambda: build_graph([(0, 3), (3, 5)], 8),
    lambda: gen_complete(5),
], ids=["tree", "cycle", "path", "tightness", "isolated", "complete"])
def test_graph_roundtrip_through_text_format(tmp_path, make):
    g = make()
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_read_graph_counts_the_edges_the_header_promises(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3 2\n0 1\n")
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == (f"graph file {path}: expects 2 edges, "
                               "2 IDs each, found 2 IDs")
    # An odd count of IDs is named as it is, not rounded down to edges.
    path.write_text("3 2\n0 1 2\n")
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == (f"graph file {path}: expects 2 edges, "
                               "2 IDs each, found 3 IDs")


@pytest.mark.parametrize("piece", [1, 2, 7, 1 << 16])
def test_read_graph_joins_a_token_cut_by_a_piece_end(tmp_path, monkeypatch,
                                                     piece):
    # However small the pieces, each token is read whole, and a fault is
    # named at the same position.
    monkeypatch.setattr("rdomsim.graphs._PIECE_BYTES", piece)
    g = gen_random_tree(300, 4)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    assert read_graph(path) == g
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r") + b"12")
    with pytest.raises(GraphError, match="found more than 598 IDs"):
        read_graph(path)
    path.write_text("300 3\n0 1\n100 299 1")
    with pytest.raises(GraphError, match="found 5 IDs"):
        read_graph(path)
    path.write_text("300 2\n0 1\n100 2990\n")
    with pytest.raises(GraphError, match="vertex 2990 out of range"):
        read_graph(path)


@pytest.mark.parametrize("body", [
    "0 1 2\n",
    # Nothing past the first token too many is judged, or read.
    "0 1 2 x\n",
    "0 1 2 " + "x" * (_MAX_HEADER_BYTES + 5),
    "0 1\n" * 10,
], ids=["one-more", "then-a-bad-token", "then-a-long-token", "repeats"])
def test_read_graph_refuses_a_token_past_2m(tmp_path, body):
    path = tmp_path / "long.txt"
    path.write_text("3 1\n" + body)
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == (f"graph file {path}: expects 1 edges, "
                               "2 IDs each, found more than 2 IDs")


def _read_graph_from_open_pipe(tmp_path, data):
    """``read_graph``'s refusal of a pipe that holds ``data`` and is not
    closed until the read ends, or for at most 10 s, plus whether the read
    ended first: only then did it not wait for the rest of the file."""
    path = tmp_path / "pipe"
    os.mkfifo(path)
    done = threading.Event()
    waited_out = []

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            waited_out.append(not done.wait(10))

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        with pytest.raises(GraphError) as info:
            read_graph(path)
    finally:
        done.set()
        writer.join(20)
    assert not writer.is_alive()
    return str(info.value).removeprefix(f"graph file {path}: "), waited_out != [True]


@pytest.mark.parametrize("data, detail", [
    (b"3 1\n0 1 2 ", "expects 1 edges, 2 IDs each, found more than 2 IDs"),
    # A token that is no digit run comes first in file order, and a fault
    # before it comes before that.
    (b"3 1\n0 x 2 ", "token 4 is not a count or vertex ID: 'x'"),
    (b"3 2\n1 1 x ", "self-loop at vertex 1"),
    # Only the first _MAX_HEADER_BYTES + 1 bytes of a token are read.
    (b"3 1\n0 " + b"7" * (4 * _MAX_HEADER_BYTES),
     "token 4 is not a count or vertex ID: '77777777777777777777'\u2026 "
     f"(more than {_MAX_HEADER_BYTES} bytes)"),
], ids=["token-past-2m", "bad-token", "self-loop", "long-token"])
def test_read_graph_refuses_a_fault_as_it_arrives(tmp_path, data, detail):
    # A pipe that stays open never ends the file, so each fault must be
    # named from what has arrived.
    assert _read_graph_from_open_pipe(tmp_path, data) == (detail, True)


@pytest.mark.parametrize("size", [_MAX_HEADER_BYTES, _MAX_HEADER_BYTES + 1])
def test_read_graph_bounds_a_token_at_its_position(tmp_path, size):
    # A token of up to _MAX_HEADER_BYTES shows its length; a longer one is
    # cut there, whatever its length, and refused at its position.
    path = tmp_path / "long.txt"
    path.write_bytes(b"3 2\n0 1\n2 " + b"x" * size + b" 9 9 9\n")
    with pytest.raises(GraphError) as info:
        read_graph(path)
    shown = size if size <= _MAX_HEADER_BYTES else f"more than {_MAX_HEADER_BYTES}"
    assert str(info.value) == (f"graph file {path}: token 6 is not a count "
                               f"or vertex ID: 'xxxxxxxxxxxxxxxxxxxx'\u2026 "
                               f"({shown} bytes)")


def test_read_graph_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 5\n")
    with pytest.raises(GraphError):
        read_graph(path)


@pytest.mark.parametrize("text, detail", [
    ("3 2\n0 1\n1 3\n", "vertex 3 out of range for n=3"),
    # An ID out of range comes before a later signed token.
    ("4 4\n0 1\n1 2\n2 7\n0 -4\n", "vertex 7 out of range for n=4"),
    # An ID out of range comes before a later token that is no integer.
    ("3 2\n0 5\n1 x\n", "vertex 5 out of range for n=3"),
    # So do a self-loop and a repeated edge: one scan in file order names
    # the first fault of any kind.
    ("3 2\n1 1\n0 x\n", "self-loop at vertex 1"),
    ("3 3\n0 1\n1 0\n2 -1\n", "duplicate edge (0, 1)"),
    # A body that ends early is named last, a token too many where it is.
    ("3 2\n1 1\n", "self-loop at vertex 1"),
    ("3 1\n0 3 1\n", "vertex 3 out of range for n=3"),
    ("3 1\n0 1 x\n", "expects 1 edges, 2 IDs each, found more than 2 IDs"),
])
def test_read_graph_names_the_first_edge_out_of_range(tmp_path, text, detail):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == f"graph file {path}: {detail}"


@pytest.mark.parametrize("text, i, tok", [
    ("x 1\n0 1\n", 1, "x"),
    ("2 1.0\n0 1\n", 2, "1.0"),
    ("2 1\n0 x\n", 4, "x"),
    ("2 1\n0 1.0\n", 4, "1.0"),
    # A token that is no integer comes before a later edge out of range.
    ("3 2\n0 x\n1 5\n", 4, "x"),
    # Only runs of digits are counts or IDs: int() reads '1_0' as 10 and
    # '+1' as 1, which write_graph never writes.
    ("1_0 0\n", 1, "1_0"),
    ("+2 1\n0 +1\n", 1, "+2"),
    ("11 1\n0 1_0\n", 4, "1_0"),
    ("2 1\n0 +1\n", 4, "+1"),
    # A signed token is no count or ID, at its position; int() would read
    # '-0' as 0.
    ("3 2\n0 1\n-1 2\n", 5, "-1"),
    ("3 3\n0 1\n2 -1\n0 5\n", 6, "-1"),
    ("3 1\n0 -0\n", 4, "-0"),
    ("3 2\n-0 1\n1 +2\n", 3, "-0"),
    # More digits than int() converts, in the header and in the body.
    pytest.param("9" * 5000 + " 0\n", 1, "9" * 5000, id="5000-digit-n"),
    pytest.param("2 1\n0 " + "9" * 5000 + "\n", 4, "9" * 5000,
                 id="5000-digit-id"),
])
def test_read_graph_names_a_token_that_is_not_an_integer(tmp_path, text, i,
                                                         tok):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GraphError) as info:
        read_graph(path)
    # A token longer than 20 bytes shows its first 20, then its length.
    shown = (f"'{tok}'" if len(tok) <= 20
             else f"'{tok[:20]}'\u2026 ({len(tok)} bytes)")
    assert str(info.value) == \
        f"graph file {path}: token {i} is not a count or vertex ID: {shown}"


def test_read_graph_names_a_byte_that_is_not_ascii_as_a_token(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 1\n0 \xff1\n")
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == (f"graph file {path}: token 4 is not a count "
                               "or vertex ID: '\\xff1'")


def test_read_graph_refuses_a_header_not_alone_on_line_one(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("2 1 0 1\n", "2\n1 0 1\n", ""):
        path.write_text(text)
        with pytest.raises(GraphError) as info:
            read_graph(path)
        assert str(info.value) == \
            f"graph file {path}: line 1 must be the header 'n m' alone"
    # Any of the universal line ends closes line 1.
    path.write_bytes(b"2 1\r0 1\r")
    assert read_graph(path) == build_graph([(0, 1)])


def test_read_graph_reads_at_most_a_bounded_line_one(tmp_path):
    # Line 1 may hold _MAX_HEADER_BYTES bytes before its line end, far more
    # than any header that can pass; one byte more is refused as no header,
    # so a file with no line end, such as /dev/zero, is never read whole.
    path = tmp_path / "g.txt"
    for end in (b"\n", b"\r\n", b"\r", b""):
        path.write_bytes(b"2" + b" " * (_MAX_HEADER_BYTES - 2) + b"0" + end)
        assert read_graph(path) == build_graph([], 2)
        path.write_bytes(b"2" + b" " * (_MAX_HEADER_BYTES - 1) + b"0" + end)
        with pytest.raises(GraphError) as info:
            read_graph(path)
        assert str(info.value) == \
            f"graph file {path}: line 1 must be the header 'n m' alone"
    # A file whose lines all end in '\r' is one long line to readline, so
    # the bound applies to the header alone, not to the first '\n'.
    g = gen_path(1 << 14)
    write_graph(g, path)
    assert path.stat().st_size > 2 * _MAX_HEADER_BYTES
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    assert read_graph(path) == g


def test_read_graph_checks_the_header_before_reading_on(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1048577 0\n\xff\xfe 0 1\n")
    with pytest.raises(GraphError, match="header '1048577 0'"):
        read_graph(path)


@pytest.mark.parametrize("make", [
    functools.partial(gen_random_tree, 1 << 14, 0),
    functools.partial(gen_cycle, 1 << 14),
], ids=["tree", "cycle"])
def test_read_graph_peak_memory_is_a_small_multiple_of_the_graph(tmp_path,
                                                                 make):
    # The file's tokens, its IDs and build_graph's work never all live at
    # once: about 2.0 times what the graph keeps, against 3.0 when the
    # reader held every token and its own edge list through the build.
    path = tmp_path / "g.txt"
    write_graph(make(), path)
    g, live, peak = graph_bytes_per_vertex(lambda: read_graph(path))
    assert g == make()
    assert peak <= 2.6 * live


# A signed count is refused at its position, an oversized n or m by the
# header, before the body is read.
@pytest.mark.parametrize("header, detail", [
    pytest.param(header, detail, id=header) for header, detail in [
        ("-3 0", "token 1 is not a count or vertex ID: '-3'"),
        ("2 -1", "token 2 is not a count or vertex ID: '-1'"),
        ("1048577 0", "header '1048577 0' needs n <= 1048576"),
        ("1000000000 0", "header '1000000000 0' needs n <= 1048576"),
        ("-0 0", "token 1 is not a count or vertex ID: '-0'"),
        ("3 -0", "token 2 is not a count or vertex ID: '-0'"),
        # No simple graph on n vertices has more than n(n-1)/2 edges.
        ("1 1", "header '1 1' needs m <= n(n-1)/2 = 0"),
        ("4 7", "header '4 7' needs m <= n(n-1)/2 = 6"),
        ("1048576 549755289601",
         "header '1048576 549755289601' needs m <= n(n-1)/2 = 549755289600")]])
def test_read_graph_rejects_negative_or_oversized_header(tmp_path, header,
                                                         detail):
    path = tmp_path / "bad.txt"
    path.write_text(header + "\n")
    with pytest.raises(GraphError) as info:
        read_graph(path)
    assert str(info.value) == f"graph file {path}: {detail}"


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 8), extra=st.just(0) | st.sampled_from([-2, -1, 1, 2]),
       data=st.data())
def test_read_graph_fuzz_matches_networkx_or_names_the_file(
        tmp_path_factory, n, extra, data):
    # After a valid header, a body of drawn tokens reads to the graph that
    # networkx builds from the same pairs, or is a GraphError naming the
    # file: never another exception.  A pair may be the self-loop (0, 0),
    # a spoilt token may repeat an edge, and ``extra`` drops or adds tokens.
    ends = [(u, v) for u, v in itertools.product(range(n), repeat=2) if u != v]
    pairs = data.draw(st.lists(st.sampled_from(ends + [(0, 0)]),
                               unique_by=frozenset, max_size=6))
    body = [str(v).encode() for v in itertools.chain.from_iterable(pairs)]
    body = body[:len(body) + extra] if extra < 0 else body + [b"0"] * extra
    tokens = data.draw(spoilt(body, n))
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    path.write_bytes(f"{n} {len(pairs)}\n".encode() + b"\n".join(tokens))
    ids = reference_ids(tokens) if len(tokens) == 2 * len(pairs) else None
    edges = list(zip(ids[::2], ids[1::2])) if ids is not None else []
    valid = (ids is not None and all(u < n and v < n and u != v
                                     for u, v in edges)
             and len(set(map(frozenset, edges))) == len(edges))
    if not valid:
        with pytest.raises(GraphError) as info:
            read_graph(path)
        assert str(info.value).startswith(f"graph file {path}: ")
        return
    nxg = nx.Graph(edges)
    nxg.add_nodes_from(range(n))
    g = read_graph(path)
    assert {v: g.neighbors(v) for v in g.vertices} == {
        v: tuple(sorted(nxg[v])) for v in sorted(nxg)}


@given(graphs())
def test_bfs_distance_symmetry(g):
    for u in g.vertices:
        du = distances(g, (u,))
        for v, d in du.items():
            assert distances(g, (v,))[u] == d


@given(graphs())
def test_neighborhood_oracle_matches_bfs(g):
    for v in g.vertices:
        dist = distances(g, (v,))
        for r in (1, 2, 3):
            expected = sum(1 for u, d in dist.items() if u != v and d <= r)
            found = r_balls(g, r)[v]
            assert len(found) - 1 == expected
            assert frozenset(found) == ball(g, v, r) == frozenset(
                u for u, d in dist.items() if d <= r)


@given(graphs())
def test_edges_roundtrip(g):
    assert build_graph(g.edges(), g.vertex_count) == g


def _chain(start, length, u, v):
    """Edges of a u-v path of ``length`` edges through fresh IDs from ``start``."""
    nodes = [u, *range(start, start + length - 1), v]
    return list(zip(nodes, nodes[1:]))


def _theta(a, b, c):
    """Two hubs 0 and 1 joined by internally disjoint paths of a, b, c edges."""
    edges, nxt = [], 2
    for length in (a, b, c):
        edges += _chain(nxt, length, 0, 1)
        nxt += length - 1
    return build_graph(edges)


def _networkx_girth(g):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    return nx.girth(nxg)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_girth_matches_reference_and_networkx(g):
    assert girth(g) == reference_girth(g) == _networkx_girth(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(max_n=10), relabelled(graphs(max_n=10))),
       st.integers(1, 4))
def test_memoized_girth_and_r_balls_match_references(g, r):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    first = r_balls(g, r)
    for _ in range(2):  # the second round reads the memo
        assert girth(g) == reference_girth(g)
        balls = r_balls(g, r)
        assert balls is first
        assert sorted(balls) == list(g.vertices)
        for v, found in balls.items():
            assert found[0] == v and len(set(found)) == len(found)
            assert set(found) == set(
                nx.single_source_shortest_path_length(nxg, v, cutoff=r))


def test_girth_cycle_with_pendant_trees():
    # C_7 on 0..6 with a path hanging off 0 and a star hanging off 3.
    g = build_graph(gen_cycle(7).edges()
                    + [(0, 7), (7, 8), (8, 9), (3, 10), (10, 11), (10, 12)])
    assert girth(g) == 7 == reference_girth(g)


@pytest.mark.parametrize("lengths", [(1, 2, 2), (2, 2, 2), (1, 5, 9),
                                     (3, 4, 5), (6, 2, 7), (4, 4, 1)])
def test_girth_theta_graphs(lengths):
    g = _theta(*lengths)
    a, b, _ = sorted(lengths)
    assert girth(g) == a + b == reference_girth(g)


@pytest.mark.parametrize("cycle_n, expected", [(5, 5), (9, 8)])
def test_girth_bare_cycle_next_to_branched_component(cycle_n, expected):
    # A theta graph of girth 8 on 0..13 and a bare cycle on fresh IDs: the
    # minimum comes from whichever holds the smaller girth.
    theta = _theta(4, 4, 6)
    offset = 100
    bare = [(u + offset, v + offset) for u, v in gen_cycle(cycle_n).edges()]
    g = build_graph(theta.edges() + bare)
    assert girth(g) == expected == reference_girth(g)


@pytest.mark.parametrize("k", range(6))
def test_girth_subdivided_k4(k):
    g = subdivide(gen_complete(4), k)
    assert girth(g) == 3 * (k + 1) == reference_girth(g)


@pytest.mark.parametrize("r, f", [(1, 2), (2, 2), (1, 3)])
def test_girth_tightness_family(r, f):
    g = gen_tightness(r, f)
    # Subdivided K_{2f,2f}: every 4-cycle becomes 4 paths of 2r+1 edges.
    assert girth(g) == 4 * (2 * r + 1) == reference_girth(g)


@settings(max_examples=50, deadline=None)
@given(st.integers(3, 60), st.integers(1, 60), st.integers(0, 5))
def test_girth_cycle_beside_a_tree(n, tree_n, seed):
    offset = n
    tree = [(u + offset, v + offset)
            for u, v in gen_random_tree(tree_n, seed).edges()]
    g = build_graph(gen_cycle(n).edges() + tree, offset + tree_n)
    assert girth(g) == n
    assert girth(build_graph(tree, offset + tree_n)) == INFINITE


def _nx(g):
    nxg = nx.Graph(g.edges())
    nxg.add_nodes_from(g.vertices)
    return nxg


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=10), relabelled(graphs(max_n=10))))
def test_peel_matches_networkx_2_core_and_orders_children_first(g):
    removed, core, cycles, branched = _peel(g)
    nxg = _nx(g)
    k_core = nx.k_core(nxg, 2)
    # The core keeps every vertex; the peeled ones are isolated in it.
    assert core.vertices == g.vertices
    assert {v for v in core.vertices if core.neighbors(v)} == set(k_core)
    assert core.edges() == sorted(tuple(sorted(e)) for e in k_core.edges)
    assert set(removed) == set(g.vertices) - set(k_core)
    position = {v: i for i, v in enumerate(removed)}
    for v, p in removed.items():
        if p is not None:
            assert p in g.neighbors(v)
            assert p in k_core or position[p] > position[v]
    trees = sum(nx.is_tree(nxg.subgraph(c))
                for c in nx.connected_components(nxg))
    assert list(removed.values()).count(None) == trees
    assert sorted(cycles) == sorted(
        len(c) for c in nx.connected_components(k_core)
        if all(k_core.degree(v) == 2 for v in c))
    assert branched == sorted(v for v in k_core if k_core.degree(v) >= 3)
    assert _peel(g) is _peel(g)


def _with_hanging_trees(g, seed, trees=3):
    """``g`` with ``trees`` seeded random trees, each hung by one edge from
    a random vertex of ``g`` on fresh IDs."""
    rnd = random.Random(seed)
    edges, nxt = g.edges(), max(g.vertices) + 1
    for _ in range(trees):
        tree = gen_random_tree(rnd.randint(1, 12), rnd.randrange(1000))
        edges.append((rnd.choice(g.vertices), nxt))
        edges += [(u + nxt, v + nxt) for u, v in tree.edges()]
        nxt += tree.vertex_count
    return build_graph(edges)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("base", [
    *(subdivide(gen_complete(4), k) for k in range(1, 7)),
    gen_tightness(2, 2),
    gen_tightness(3, 2),
], ids=[*(f"subdivided-k4-{k}" for k in range(1, 7)),
        "tightness-2-2", "tightness-3-2"])
def test_girth_of_branched_high_girth_core_with_hanging_trees(base, seed):
    g = _with_hanging_trees(base, seed)
    expected = _networkx_girth(g)
    assert girth(g) == expected == girth(base)
    # A slightly longer bare cycle beside it caps every BFS's depth first.
    shift = max(g.vertices) + 1
    bare = [(u + shift, v + shift)
            for u, v in gen_cycle(expected + 1 + seed).edges()]
    assert girth(build_graph(g.edges() + bare)) == expected
