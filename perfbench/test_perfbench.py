"""Tests of the benchmark's own parts: the seeded stream10 input and the
tracer.  They are outside the package's test paths; run them with

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import streamgen  # noqa: E402
import tracer  # noqa: E402
from specgraph import cli, mate  # noqa: E402
from specgraph.exactpoly import charpoly_exact  # noqa: E402
from specgraph.graphs import distance_matrix, from_graph6, is_connected, \
    to_graph6  # noqa: E402


def stream_lines(seed, count):
    return [streamgen.to_graph6(streamgen.ORDER, edges)
            for edges in streamgen.random_graphs(seed, count)]


def test_same_seed_same_bytes():
    first = stream_lines(7, 600)
    assert stream_lines(7, 600) == first
    assert stream_lines(8, 600) != first


def test_every_line_is_a_connected_order_10_graph():
    for line in stream_lines(11, 2000):
        g = from_graph6(line)
        assert g.n == streamgen.ORDER
        assert is_connected(g)
        assert to_graph6(g) == line


def test_stream_spans_trees_to_dense_and_needs_bigint():
    lines = stream_lines(5, 4096)
    edges = [from_graph6(line).edge_count() for line in lines]
    assert min(edges) == streamgen.ORDER - 1
    assert max(edges) >= 40
    # the int64 fingerprint bound holds at order 10 only up to distance 5
    far = sum(max(map(max, streamgen.distance_matrix(streamgen.ORDER, g))) > 5
              for g in streamgen.random_graphs(5, 4096))
    assert far > 0


def test_reference_charpoly_agrees_with_the_program():
    for edges in streamgen.random_graphs(2, 200):
        g = from_graph6(streamgen.to_graph6(streamgen.ORDER, edges))
        dist = streamgen.distance_matrix(streamgen.ORDER, edges)
        assert dist == [list(row) for row in distance_matrix(g)]
        exact = charpoly_exact(dist)
        assert streamgen.charpoly(dist) == tuple(reversed(exact.coeffs))
        assert run.parse_charpoly(exact.text(), streamgen.ORDER) == \
            streamgen.charpoly(dist)
    with pytest.raises(ValueError):
        streamgen.distance_matrix(3, [(0, 1)])


@pytest.fixture
def small_chunks(monkeypatch):
    # several chunks, so a two-job run really uses the fork pool
    monkeypatch.setattr(mate, "_CHUNK", 64)


def test_tracer_reaches_pool_workers_and_unwraps(tmp_path, small_chunks):
    stream = tmp_path / "in.g6"
    stream.write_text("".join(line + "\n"
                              for line in stream_lines(4, 300)))
    plain_out, traced_out = tmp_path / "plain.json", tmp_path / "traced.json"
    argv = ["mate-search", "--n", "10", "--input", str(stream),
            "--jobs", "2", "--no-timestamp", "--out"]
    original = mate.distance_matrix
    assert cli.main(argv + [str(plain_out)]) == 0

    t = tracer.Tracer(str(tmp_path / "trace"))
    os.makedirs(t.trace_dir)
    assert t.install() > 0
    assert mate.distance_matrix is not original
    try:
        assert cli.main(argv + [str(traced_out)]) == 0
    finally:
        assert t.uninstall()
    t.flush()
    assert mate.distance_matrix is original
    assert traced_out.read_bytes() == plain_out.read_bytes()

    summary = tracer.summarize(tracer.load_spans(t.trace_dir))
    assert summary["pids"] >= 2
    assert summary["sites"]["graphs.distance_matrix@mate"] == 300
    assert summary["functions"]["mate.ingest_graph6"]["yields"] == 300
    assert summary["functions"]["cli.main"]["calls"] == 1
    reported = set(run.layer_metrics(summary, {})) | {"trace.overhead_s"}
    assert reported == set(run.layer_metric_names())


def test_summarize_self_time_subtracts_children_once():
    spans = [
        ("1.1", None, "a.f", "a", 0.0, 10.0, None),
        ("2.1", "1.1", "b.g", "a", 1.0, 5.0, None),
        ("3.1", "1.1", "b.g", "a", 3.0, 6.0, None),  # overlaps 2.1
    ]
    summary = tracer.summarize(spans)
    assert summary["functions"]["a.f"]["self_s"] == pytest.approx(5.0)
    assert summary["functions"]["b.g"]["s"] == pytest.approx(7.0)
    assert summary["modules"]["b"]["s"] == pytest.approx(7.0)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_metric_names()


def test_mate8_check_counts_each_wrong_answer():
    good = {"total_graphs": run.MATE8_GRAPHS,
            "class_count": run.MATE8_CLASSES,
            "classes": [{}] * run.MATE8_CLASSES,
            "ds": {"status": "pass", "class_size": 1}}
    check = run.WORKLOADS["mate8"].check
    assert check(good, 0).failed == 0
    assert check(dict(good, class_count=10783), 0).failed == 1
    assert check(dict(good, ds={"status": "pass", "class_size": 2}),
                 0).failed == 1
    assert check(good, 1).failed == 1
    assert check(None, 0).failed == 3


def test_verify_wide_check_pins_the_f2_witness():
    results = [{"lemma": lemma, "status": "pass"}
               for lemma in run.VERIFIER_IDS]
    f2 = run.VERIFIER_IDS.index("case:F2")
    results[f2] = {"lemma": "case:F2", "status": "fail",
                   "exceptions": [{"a": 2}]}
    check = run.WORKLOADS["verify-wide"].check
    assert check({"results": results}, 1).failed == 0
    results[f2] = dict(results[f2], exceptions=[{"a": 2}, {"a": 3}])
    assert check({"results": results}, 1).failed == 1
    assert check({"results": results[:-1]}, 1).failed == 2
