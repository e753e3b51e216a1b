"""The HTTP workloads: ``cold_http`` and ``hot_http`` against a prefork fleet.

A fleet is a :class:`~repro.service.prefork.PreforkServer` over the
mmap'd mondial artifact. Set-up ends when every worker has answered the
fixed search over its own pinned keep-alive connection; the client then
keeps exactly those connections, one per worker, and drives each in its
own closed loop from one thread (see :mod:`client`).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import layers
import stats
from client import Connection, drive, encode_search, results_of
from spans import CLOCK, Span, Tracer, attach_remote, link, load_dump

from repro.service.http import explanation_payload
from repro.service.prefork import PreforkServer, PreforkSettings, shared_artifact_engine
from repro.service.service import QuestService, ServiceSettings

#: Connection attempts allowed while pinning one connection per worker.
_PIN_ATTEMPTS = 200
#: Window sizes per second of ``--seconds``, sized to each workload's pace
#: on a 2-vCPU host: distinct cold searches, and passes over the hot set.
COLD_PER_SECOND = 24
HOT_REPEATS_PER_SECOND = 75
_CACHE_SOURCE = b'"source": "cache"'
_ENGINE_SOURCE = b'"source": "engine"'


@dataclass
class Fleet:
    server: PreforkServer
    connections: list[Connection]
    setup_s: float
    index_build_s: float
    fork_to_ready_s: float
    first_search_s: list[float]

    def rss_mb(self) -> float:
        """Peak RSS (``VmHWM``) of the largest worker, in MB."""
        return max(stats.peak_rss_mb(c.pid) for c in self.connections)

    def stop(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.stop()


def start_fleet(
    db: Any, workdir: Path, workers: int, tracer: Tracer | None = None
) -> Fleet:
    """Build, fork and pin a fleet; time it as ``setup_s``."""
    workdir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    marks: dict[str, float] = {}
    begin = CLOCK()
    prepare, factory = shared_artifact_engine(db, workdir / "mondial.npz")

    def timed_prepare() -> None:
        start = CLOCK()
        prepare()
        marks["prepared"] = CLOCK()
        marks["index_build"] = marks["prepared"] - start

    def traced_factory() -> Any:
        assert tracer is not None
        with tracer.span("setup.factory"):
            return factory()

    server = PreforkServer(
        traced_factory if tracer is not None else factory,
        ServiceSettings(),
        settings=PreforkSettings(workers=workers, backoff_seed=0),
        prepare=timed_prepare,
    )
    server.start()
    connections: list[Connection] = []
    first: list[float] = []
    fixed = encode_search(inputs.FIXED_QUERY)
    try:
        for _ in range(_PIN_ATTEMPTS):
            if len(connections) == workers:
                break
            connection = Connection(server.port)
            sent = CLOCK()
            status, body = connection.roundtrip(fixed)
            took = CLOCK() - sent
            if status != 200:
                connection.close()
                raise RuntimeError(f"fixed search answered {status}: {body[:200]!r}")
            pid = json.loads(body)["pid"]
            if any(c.pid == pid for c in connections):
                connection.close()
                continue
            connection.pid = pid
            connections.append(connection)
            first.append(took)
        else:
            raise RuntimeError(f"could not pin {workers} workers")
    except BaseException:
        for connection in connections:
            connection.close()
        server.stop()
        raise
    end = CLOCK()
    return Fleet(
        server=server,
        connections=connections,
        setup_s=end - begin,
        index_build_s=marks["index_build"],
        fork_to_ready_s=end - marks["prepared"],
        first_search_s=first,
    )


def reference(workdir: Path, queries: list[str]) -> list[bytes]:
    """``results`` bytes from an in-process ``QuestService`` over the same
    artifact the fleet serves."""
    workdir.mkdir(parents=True, exist_ok=True)
    prepare, factory = shared_artifact_engine(inputs.instance(), workdir / "reference.npz")
    prepare()
    service = QuestService(factory(), ServiceSettings())
    return [
        json.dumps(explanation_payload(service.search(query).explanations)).encode("utf-8")
        for query in queries
    ]


@dataclass
class Pass:
    """What one window produced."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    refreshes: int = 0
    wall_s: float = 0.0
    #: client-observed seconds of each request, in completion order
    search: list[float] = field(default_factory=list)
    clients: list[Span] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def window(
    fleet: Fleet,
    queries: list[str],
    order: list[int],
    expected: list[bytes],
    source: bytes,
    primed_at: float | None = None,
) -> Pass:
    """Drive ``queries[order[i]]`` for every i; check each answer."""
    result = Pass(attempted=len(order))
    requests = [encode_search(queries[q], seq) for seq, q in enumerate(order)]
    ttl = ServiceSettings().result_ttl_s

    def on_response(
        index: int, connection: Connection, status: int, body: bytes,
        sent_at: float, done_at: float,
    ) -> None:
        result.search.append(done_at - sent_at)
        result.clients.append(
            Span(index, "client", sent_at, done_at,
                 extra={"pid": connection.pid, "seq": index})
        )
        if status != 200:
            result.failed += 1
            if len(result.notes) < 5:
                result.notes.append(f"status {status}: {body[:200]!r}")
            return
        if results_of(body) != expected[order[index]]:
            result.wrong += 1
            if len(result.notes) < 5:
                result.notes.append(f"ranking differs for {queries[order[index]]!r}")
        if source not in body:
            if primed_at is not None and done_at - primed_at >= ttl:
                result.refreshes += 1
            else:
                result.wrong += 1
                if len(result.notes) < 5:
                    result.notes.append(f"not served from {source!r}: {body[:120]!r}")

    gc.collect()
    gc.disable()
    try:
        result.wall_s = drive(fleet.connections, requests, on_response)
    finally:
        gc.enable()
    return result


def cache_hits(fleet: Fleet) -> tuple[int, int]:
    hits = misses = 0
    for connection in fleet.connections:
        service = connection.get_json("/metrics")["service"]
        hits += service["cache_hits"]
        misses += service["cache_misses"]
    return hits, misses


# -- workloads ----------------------------------------------------------------


@dataclass
class HttpWorkload:
    workers: int
    #: ``(queries, order)`` from the instance, seed and ``--seconds``
    plan: Callable[[Any, int, int], tuple[list[str], list[int]]]
    source: bytes
    prime: bool


def cold_plan(db: Any, seed: int, seconds: int) -> tuple[list[str], list[int]]:
    total = 4 * max(3, round(seconds * COLD_PER_SECOND / 4))
    queries = inputs.cold_requests(db, total, seed)
    distinct = {frozenset(inputs.keywords(query)) for query in queries}
    if len(distinct) != len(queries):
        raise RuntimeError("cold pool repeats a query")
    return queries, list(range(len(queries)))


def hot_plan(db: Any, seed: int, seconds: int) -> tuple[list[str], list[int]]:
    pool = inputs.hot_pool(db)
    return pool, inputs.hot_requests(pool, max(1, seconds * HOT_REPEATS_PER_SECOND), seed)


def workloads(nproc: int) -> dict[str, HttpWorkload]:
    return {
        "cold_http": HttpWorkload(nproc, cold_plan, _ENGINE_SOURCE, False),
        "hot_http": HttpWorkload(max(1, nproc - 1), hot_plan, _CACHE_SOURCE, True),
    }


def run_pass(
    spec: HttpWorkload,
    workdir: Path,
    queries: list[str],
    order: list[int],
    expected: list[bytes],
    setups: int,
    tracer: Tracer | None = None,
) -> tuple[Pass, dict[str, float]]:
    """``setups`` fleet set-ups (all but the last torn down), then the
    window on the last. Returns the window and its figures."""
    setup_times: list[float] = []
    fleet: Fleet | None = None
    for i in range(setups):
        if fleet is not None:
            fleet.stop()
        fleet = start_fleet(
            inputs.instance(), workdir / f"fleet{i}", spec.workers, tracer
        )
        setup_times.append(fleet.setup_s)
    assert fleet is not None
    figures: dict[str, float] = {"setup_s": stats.median(setup_times)}
    try:
        primed_at = None
        if spec.prime:
            # The first insert starts the TTL clock of the whole hot set.
            primed_at = CLOCK()
            for connection in fleet.connections:
                for query, answer in zip(queries, expected):
                    status, body = connection.roundtrip(encode_search(query))
                    if status != 200 or results_of(body) != answer:
                        raise RuntimeError(f"priming {query!r} failed: {status}")
        before = cache_hits(fleet)
        result = window(fleet, queries, order, expected, spec.source, primed_at)
        after = cache_hits(fleet)
        hits, misses = after[0] - before[0], after[1] - before[1]
        figures["service.cache_hit_ratio"] = hits / max(1, hits + misses)
        figures["rss_mb"] = fleet.rss_mb()
        figures["setup.index_build_s"] = fleet.index_build_s
        figures["setup.fork_to_ready_s"] = fleet.fork_to_ready_s
        figures["setup.first_search_ms"] = stats.median(fleet.first_search_s) * 1000.0
    finally:
        fleet.stop()
    return result, figures


def traced_report(spans_dir: Path, result: Pass) -> dict[str, float]:
    """Per-layer figures of a traced window from the workers' span dumps."""
    roots: dict[int, list[Span]] = {}
    all_roots: list[Span] = []
    attach: list[float] = []
    load: list[float] = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        spans = load_dump(path)
        pid_roots = link(spans)
        if spans:
            roots[spans[0].pid] = pid_roots
        all_roots.extend(pid_roots)
        for root in pid_roots:
            if root.name == "setup.factory":
                inner = [c for c in root.children if c.name == "setup.load_or_build"]
                attach.append(sum(c.duration for c in inner) * 1000.0)
                load.append(root.duration - sum(c.duration for c in inner))
    matched = attach_remote(result.clients, roots, "http.dispatch")
    report = layers.request_report(result.clients, [], all_roots)
    report["trace.matched_ratio"] = matched / max(1, len(result.clients))
    report["setup.artifact_attach_ms"] = stats.median(attach) if attach else 0.0
    report["setup.load_s"] = stats.median(load) if load else 0.0
    return report


def run(
    name: str, seed: int, seconds: int, trace: bool, root: Path, workdir: Path
) -> dict[str, Any]:
    spec = workloads(os.cpu_count() or 1)[name]
    db = inputs.instance()
    queries, order = spec.plan(db, seed, seconds)
    ref_queries = queries if spec.prime else sorted(queries)
    ref = inputs.reference_answers(
        root / ".questbench" / "cache", root, name, ref_queries,
        lambda qs: reference(workdir / "reference", list(qs)),
    )
    by_query = dict(zip(ref_queries, ref))
    expected = [by_query[query] for query in queries]

    setups = 1 if trace else 5
    result, figures = run_pass(spec, workdir / "plain", queries, order, expected, setups)
    out: dict[str, Any] = {"result": result, "figures": figures}
    if not trace:
        return out

    tracer = Tracer()
    spans_dir = workdir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    original = PreforkServer._worker_main

    def worker_main(self: PreforkServer, slot: int) -> int:
        tracer.reset()
        try:
            return original(self, slot)
        finally:
            tracer.dump(spans_dir / f"spans-{os.getpid()}.json")

    layers.install(tracer)
    PreforkServer._worker_main = worker_main  # type: ignore[method-assign]
    try:
        traced, traced_figures = run_pass(
            spec, workdir / "traced", queries, order, expected, 1, tracer
        )
    finally:
        PreforkServer._worker_main = original  # type: ignore[method-assign]
        tracer.uninstall()
    report = traced_report(spans_dir, traced)
    report.update(traced_figures)
    untraced_ops = result.attempted / result.wall_s
    traced_ops = traced.attempted / traced.wall_s
    report["trace.overhead_pct"] = (untraced_ops - traced_ops) / untraced_ops * 100.0
    out["traced"] = traced
    out["report"] = report
    return out
