"""Which public calls are timed, which layer each belongs to, and the
per-layer report built from the request trees.

Layers are the program's modules. Each proxied call is one span whose
name starts with its layer:

============================ ==================================================
span                         call
============================ ==================================================
``http.dispatch``            ``QuestHttpServer._dispatch`` (route; carries the
                             request's ``X-Bench-Seq``)
``http.blocking``            ``QuestHttpServer._search_blocking`` (executor side)
``http.payload``             ``service.http.explanation_payload``
``service.search``           ``QuestService.search`` (result cache, singleflight)
``service.admit``            ``AdmissionController.admit`` until admitted
``engine.search_context``    ``Quest.search_context``
``pipeline.<stage>``         ``{Forward,Backward,Combine,Explain}Stage.run``
``fulltext.<call>``          ``FullTextIndex`` reads; SQLite's FTS5 reads
``fulltext.merge``           ``FullTextIndex.merge`` (background reseal)
``storage.read.<call>``      backend ``execute``, ``result_count``,
                             ``connected_nodes``, ``join_path_candidates``
``storage.write.<call>``     backend ``add_rows``, ``delete_rows``
``journal.append``           ``MutationJournal.append``
``setup.*``                  set-up steps (index build, attach, engine wiring)
============================ ==================================================

The harness adds a ``client`` span per HTTP request (its self time is
HTTP: transport, parse, route, executor hop and encode) and an ``op.*``
span per in-process operation (its self time is the harness's own and
counts as unattributed).
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Sequence

from spans import Span, Tracer, reconcile

FULLTEXT_READS = (
    "attribute_scores",
    "attribute_scores_many",
    "emission_block",
    "matching_row_positions",
    "score",
    "selectivity",
)
STORAGE_READS = ("execute", "result_count", "connected_nodes", "join_path_candidates")
STAGES = ("forward", "backward", "combine", "explain")


def layer_of(name: str) -> str:
    parts = name.split(".")
    if parts[0] in ("pipeline", "storage", "setup"):
        return ".".join(parts[:2])
    if name == "service.admit":
        return "service.admission"
    if name == "client":
        return "http"
    if parts[0] == "op":
        return "bench"
    return parts[0]


def _trace_counts(state: Any, args: Any, kwargs: Any, context: Any) -> dict | None:
    if context is None:
        return None
    trace = context.trace
    return {
        "candidates": {report.stage: report.candidates for report in trace.stages},
        "cache": [
            trace.emission_cache.hits,
            trace.emission_cache.misses,
            trace.steiner_cache.hits,
            trace.steiner_cache.misses,
            trace.steiner_subset_cache.hits,
            trace.steiner_subset_cache.misses,
        ],
    }


def _journal_size(args: Any, kwargs: Any) -> int:
    return os.path.getsize(args[0].path)


def _journal_bytes(before: int, args: Any, kwargs: Any, result: Any) -> dict:
    return {"bytes": os.path.getsize(args[0].path) - before}


def _dispatch_seq(args: Any, kwargs: Any) -> dict:
    return {"seq": int(args[1].headers.get("x-bench-seq", "-1"))}


def install(tracer: Tracer) -> None:
    """Put timing proxies on every layer's public calls."""
    import repro.service.http as http_module
    from repro.core.engine import Quest
    from repro.db.fulltext import FullTextIndex
    from repro.journal import MutationJournal
    from repro.pipeline import stages
    from repro.service.admission import AdmissionController
    from repro.service.http import QuestHttpServer
    from repro.service.service import QuestService
    from repro.storage.base import StorageBackend
    from repro.storage.memory import MemoryBackend
    from repro.storage.sqlite import SQLiteBackend

    tracer.wrap_async(QuestHttpServer, "_dispatch", "http.dispatch", before=_dispatch_seq)
    tracer.wrap(QuestHttpServer, "_search_blocking", "http.blocking")
    tracer.wrap(http_module, "explanation_payload", "http.payload")
    tracer.wrap(QuestService, "search", "service.search")
    tracer.wrap_enter(AdmissionController, "admit", "service.admit")
    tracer.wrap(Quest, "search_context", "engine.search_context", after=_trace_counts)
    for stage in STAGES:
        cls = getattr(stages, f"{stage.capitalize()}Stage")
        tracer.wrap(cls, "run", f"pipeline.{stage}")
    for name in FULLTEXT_READS:
        tracer.wrap(FullTextIndex, name, f"fulltext.{name}")
        if name in SQLiteBackend.__dict__:
            tracer.wrap(SQLiteBackend, name, f"fulltext.sqlite.{name}")
    tracer.wrap(FullTextIndex, "merge", "fulltext.merge")
    tracer.wrap(FullTextIndex, "load_or_build", "setup.load_or_build")
    for cls in (MemoryBackend, SQLiteBackend):
        for name in STORAGE_READS:
            tracer.wrap(cls, name, f"storage.read.{name}")
    for name in ("add_rows", "delete_rows"):
        tracer.wrap(StorageBackend, name, f"storage.write.{name}")
    tracer.wrap(
        MutationJournal, "append", "journal.append",
        before=_journal_size, after=_journal_bytes,
    )


# -- the report ---------------------------------------------------------------

#: Every per-layer metric and its unit, in report order.
PER_LAYER: dict[str, str] = {
    "http.self_ms": "ms",
    "http.payload_ms": "ms",
    "service.self_ms": "ms",
    "service.admission_wait_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "engine.self_ms": "ms",
    **{f"pipeline.{stage}.self_ms": "ms" for stage in STAGES},
    **{f"pipeline.{stage}.candidates": "count" for stage in STAGES},
    "fulltext.calls_per_search": "count",
    "fulltext.self_ms": "ms",
    "cache.emission_hit_ratio": "ratio",
    "cache.steiner_hit_ratio": "ratio",
    "cache.steiner_plan_hit_ratio": "ratio",
    "storage.read_calls_per_search": "count",
    "storage.read_self_ms": "ms",
    "storage.write_self_ms": "ms",
    "journal.append_ms": "ms",
    "journal.bytes_per_write": "bytes",
    "fulltext.merges": "count",
    "fulltext.merge_ms": "ms",
    "fulltext.delta_terms_max": "count",
    "write.p50_ms": "ms",
    "write.fresh_read_p50_ms": "ms",
    "setup.load_s": "s",
    "setup.index_build_s": "s",
    "setup.artifact_attach_ms": "ms",
    "setup.fork_to_ready_s": "s",
    "setup.first_search_ms": "ms",
    "trace.matched_ratio": "ratio",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
    "host.calibration_s": "s",
}


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def request_report(
    searches: Sequence[Span], writes: Sequence[Span], background: Iterable[Span]
) -> dict[str, float]:
    """Per-layer figures from linked request trees.

    Times are means per request: search-side layers per search (fresh
    reads included), write-side layers per write. Within each kind the
    layer self times plus ``trace.unattributed_ms`` add up to the mean
    client-observed time.
    """
    out: dict[str, float] = {}
    layer_ms: dict[str, float] = {}
    unattributed = 0.0
    calls = {"fulltext": 0, "storage.read": 0}
    payload = 0.0
    candidates = {stage: 0 for stage in STAGES}
    cache = [0] * 6
    journal_bytes = 0
    for root in list(searches) + list(writes):
        by_layer, rest = reconcile(root, layer_of)
        unattributed += abs(rest) + by_layer.pop("bench", 0.0)
        for layer, seconds in by_layer.items():
            layer_ms[layer] = layer_ms.get(layer, 0.0) + seconds * 1000.0
        stack: list[tuple[Span, str | None]] = [(root, None)]
        while stack:
            node, parent_layer = stack.pop()
            layer = layer_of(node.name)
            if layer in calls and layer != parent_layer:
                calls[layer] += 1
            if node.name == "http.payload":
                payload += node.duration * 1000.0
            elif node.name == "engine.search_context" and node.extra:
                for stage, count in node.extra["candidates"].items():
                    candidates[stage] += count
                cache = [a + b for a, b in zip(cache, node.extra["cache"])]
            elif node.name == "journal.append" and node.extra:
                journal_bytes += node.extra["bytes"]
            stack.extend((child, layer) for child in node.children)
    n_search = max(1, len(searches))
    n_write = max(1, len(writes))
    write_layers = ("storage.write", "journal")
    out["http.self_ms"] = layer_ms.get("http", 0.0) / n_search
    out["http.payload_ms"] = payload / n_search
    out["service.self_ms"] = layer_ms.get("service", 0.0) / n_search
    out["service.admission_wait_ms"] = layer_ms.get("service.admission", 0.0) / n_search
    out["engine.self_ms"] = layer_ms.get("engine", 0.0) / n_search
    for stage in STAGES:
        out[f"pipeline.{stage}.self_ms"] = layer_ms.get(f"pipeline.{stage}", 0.0) / n_search
        out[f"pipeline.{stage}.candidates"] = candidates[stage] / n_search
    out["fulltext.calls_per_search"] = calls["fulltext"] / n_search
    out["fulltext.self_ms"] = layer_ms.get("fulltext", 0.0) / n_search
    out["cache.emission_hit_ratio"] = _ratio(cache[0], cache[0] + cache[1])
    out["cache.steiner_hit_ratio"] = _ratio(cache[2], cache[2] + cache[3])
    out["cache.steiner_plan_hit_ratio"] = _ratio(cache[4], cache[4] + cache[5])
    out["storage.read_calls_per_search"] = calls["storage.read"] / n_search
    out["storage.read_self_ms"] = layer_ms.get("storage.read", 0.0) / n_search
    out["storage.write_self_ms"] = layer_ms.get("storage.write", 0.0) / n_write
    out["journal.append_ms"] = layer_ms.get("journal", 0.0) / n_write
    out["journal.bytes_per_write"] = journal_bytes / n_write if writes else 0.0
    merges = [span for span in background if span.name == "fulltext.merge"]
    out["fulltext.merges"] = float(len(merges))
    out["fulltext.merge_ms"] = sum(span.duration for span in merges) * 1000.0
    total = len(searches) + len(writes)
    out["trace.unattributed_ms"] = unattributed * 1000.0 / max(1, total)
    unknown = set(layer_ms) - {
        "http", "service", "service.admission", "engine", "fulltext",
        "storage.read", *write_layers, *(f"pipeline.{s}" for s in STAGES),
    }
    if unknown:
        raise ValueError(f"spans of unknown layers in requests: {sorted(unknown)}")
    return out


def stage_shares(report: dict[str, float]) -> dict[str, float]:
    """Each stage's share of the pipeline's self time."""
    times = {stage: report[f"pipeline.{stage}.self_ms"] for stage in STAGES}
    total = sum(times.values())
    return {stage: (t / total if total else 0.0) for stage, t in times.items()}
