"""The benchmark's own arithmetic, on synthetic inputs.

Run with ``python3 -m pytest questbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import math

import pytest

import layers
import stats
from spans import Span, Tracer, attach_remote, covered_length, link, reconcile, self_time


# -- percentiles and the tail ------------------------------------------------


def test_nearest_rank_is_ceil_of_share():
    assert stats.nearest_rank(200, 95.0) == 190
    assert stats.nearest_rank(1000, 99.0) == 990
    assert stats.nearest_rank(10, 50.0) == 5
    assert stats.nearest_rank(3, 0.1) == 1
    assert stats.nearest_rank(7, 100.0) == 7


def test_percentile_returns_a_measured_sample():
    samples = [float(x) for x in range(100, 0, -1)]
    assert stats.percentile(samples, 50.0) == 50.0
    assert stats.percentile(samples, 99.0) == 99.0
    assert stats.median([3.0, 1.0, 2.0, 4.0]) == 2.0


@pytest.mark.parametrize(
    ("n", "expected"),
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, None)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n - stats.nearest_rank(n, expected) >= stats.TAIL_MIN_BEYOND


def test_tail_value_and_too_few_samples():
    samples = list(range(1, 201))
    assert stats.tail(samples) == (95.0, 190)
    with pytest.raises(ValueError):
        stats.tail(list(range(50)))


# -- interval-union self time --------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(3, 3), (4, 2)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_subtracts_union_of_children():
    parent = Span(0, "service.search", 0.0, 10.0)
    parent.children = [
        Span(1, "service.admit", 1.0, 2.0),
        Span(2, "engine.search_context", 2.0, 8.0),
        Span(3, "engine.search_context", 7.0, 9.0),  # overlaps its sibling
    ]
    assert self_time(parent) == pytest.approx(2.0)


def test_link_builds_trees_from_parent_ids():
    spans = [
        Span(5, "child", 1.0, 2.0, parent=4),
        Span(4, "root", 0.0, 3.0),
        Span(9, "orphan", 5.0, 6.0, parent=77),
    ]
    roots = link(spans)
    assert [r.name for r in roots] == ["root", "orphan"]
    assert [c.name for c in roots[0].children] == ["child"]


def test_tracer_nests_by_thread_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "engine.outer")
    tracer.wrap(Layer, "inner", "fulltext.inner")
    assert Layer().outer() == 2
    (root,) = link(tracer.spans())
    assert root.name == "engine.outer"
    assert [c.name for c in root.children] == ["fulltext.inner"]
    tracer.uninstall()
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


# -- cross-pid matching --------------------------------------------------------


def _client(seq, pid, start, end):
    return Span(seq, "client", start, end, extra={"pid": pid, "seq": seq})


def test_attach_remote_matches_by_pid_and_sequence():
    clients = [_client(0, 100, 0.0, 10.0), _client(1, 200, 0.0, 10.0), _client(2, 100, 11.0, 20.0)]
    w100 = [
        Span(1, "http.dispatch", 1.0, 9.0, pid=100, extra={"seq": 0}),
        Span(2, "http.blocking", 2.0, 7.0, pid=100, thread=2),
        Span(3, "http.payload", 7.5, 8.0, pid=100),
        Span(4, "http.dispatch", 12.0, 19.0, pid=100, extra={"seq": 2}),
    ]
    w200 = [Span(1, "http.dispatch", 1.0, 9.0, pid=200, extra={"seq": 5})]  # wrong seq
    matched = attach_remote(clients, {100: w100, 200: w200}, "http.dispatch")
    assert matched == 2
    dispatch = clients[0].children[0]
    assert dispatch.name == "http.dispatch"
    assert sorted(c.name for c in dispatch.children) == ["http.blocking", "http.payload"]
    assert [c.extra["seq"] for c in clients[2].children] == [2]


def test_attach_remote_ignores_spans_outside_the_request():
    clients = [_client(0, 100, 5.0, 6.0)]
    roots = [
        Span(1, "http.dispatch", 1.0, 4.0, pid=100, extra={"seq": 0}),
        Span(2, "http.dispatch", 7.0, 8.0, pid=100, extra={"seq": 0}),
    ]
    assert attach_remote(clients, {100: roots}, "http.dispatch") == 0
    assert clients[0].children == []


# -- per-request reconciliation ------------------------------------------------


def _request():
    client = _client(0, 100, 0.0, 10.0)
    dispatch = Span(1, "http.dispatch", 1.0, 9.0, pid=100, extra={"seq": 0})
    service = Span(2, "service.search", 2.0, 8.0, pid=100)
    engine = Span(3, "engine.search_context", 3.0, 7.5, pid=100)
    stage = Span(4, "pipeline.forward", 3.5, 6.5, pid=100)
    read = Span(5, "storage.read.execute", 4.0, 5.0, pid=100)
    client.children = [dispatch]
    dispatch.children = [service]
    service.children = [engine]
    engine.children = [stage]
    stage.children = [read]
    return client, stage


def test_layer_self_times_sum_to_client_time():
    client, _ = _request()
    by_layer, rest = reconcile(client, layers.layer_of)
    assert rest == pytest.approx(0.0)
    assert sum(by_layer.values()) == pytest.approx(client.duration)
    assert by_layer["http"] == pytest.approx(2.0 + 2.0)  # client + dispatch
    assert by_layer["service"] == pytest.approx(1.5)
    assert by_layer["engine"] == pytest.approx(1.5)
    assert by_layer["pipeline.forward"] == pytest.approx(2.0)
    assert by_layer["storage.read"] == pytest.approx(1.0)


def test_reconcile_reports_time_sticking_out_as_unattributed():
    client, stage = _request()
    stage.children.append(Span(6, "storage.read.execute", 6.0, 11.0, pid=100))
    _, rest = reconcile(client, layers.layer_of)
    assert rest == pytest.approx(-4.5)  # 5 s of child, 0.5 s inside its parent


def test_request_report_means_per_search():
    client, _ = _request()
    report = layers.request_report([client], [], [])
    assert report["storage.read_self_ms"] == pytest.approx(1000.0)
    assert report["storage.read_calls_per_search"] == 1
    assert report["http.self_ms"] == pytest.approx(4000.0)
    assert report["trace.unattributed_ms"] == pytest.approx(0.0, abs=1e-9)
    shares = layers.stage_shares(report)
    assert math.isclose(shares["forward"], 1.0)


def test_oltp_seed_reorders_searches_only_within_blocks():
    import inputs

    db = inputs.instance()
    a = inputs.oltp_ops(db, 200, seed=1)
    b = inputs.oltp_ops(db, 200, seed=2)
    assert inputs.oltp_ops(db, 200, seed=1) == a
    assert [(op.kind, op.probe, op.keys) for op in a] == [
        (op.kind, op.probe, op.keys) for op in b
    ]
    searches_a = [op.query for op in a if op.kind == "search"]
    searches_b = [op.query for op in b if op.kind == "search"]
    assert searches_a != searches_b
    block = inputs.OLTP_SHUFFLE_BLOCK
    for start in range(0, len(searches_a), block):
        assert sorted(searches_a[start : start + block]) == sorted(
            searches_b[start : start + block]
        )
