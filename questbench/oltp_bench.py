"""The journaled-write workloads: ``oltp_sqlite`` and ``oltp_memory``.

One thread replays a fixed ``oltp`` op list against an in-process
:class:`~repro.service.service.QuestService` whose backend has a
:class:`~repro.journal.MutationJournal` attached (an fsync per append).
Right after each add it searches the add's probe keyword. After the
window, :func:`repro.storage.recovery.recover` rebuilds a fresh backend
from the seed data plus the journal, and every probe must rank the same
on it as on the live engine.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import inputs
import layers
import stats
from spans import CLOCK, Tracer, link

from repro.core.engine import Quest
from repro.datasets import mixed
from repro.journal import MutationJournal
from repro.service.http import explanation_payload
from repro.service.service import QuestService, ServiceSettings
from repro.storage.memory import MemoryBackend
from repro.storage.recovery import recover
from repro.storage.sqlite import SQLiteBackend
from repro.wrapper.full import FullAccessWrapper

BACKENDS = {"oltp_sqlite": "sqlite", "oltp_memory": "memory"}
#: Ops per second of ``--seconds`` (sized to this workload's pace).
OPS_PER_SECOND = 20
_SETUPS = 5
#: Replays of the op list in an untraced run, each on a fresh set-up.
#: The run reports the median replay of each timing metric, so a stretch
#: of slow host that spoils one replay does not move the result.
REPLAYS = 3


@dataclass
class Live:
    backend: Any
    service: QuestService
    journal_path: Path
    phases: dict[str, float]

    def close(self) -> None:
        journal = self.backend.journal
        if journal is not None:
            journal.close()
        self.backend.close()


def _backend(kind: str, db: Any, path: Path) -> Any:
    if kind == "sqlite":
        return SQLiteBackend.from_database(db, path=str(path / "quest.sqlite"))
    return MemoryBackend(db)


def set_up(kind: str, workdir: Path) -> Live:
    """Load, index and journal one backend; time it until the service has
    answered the fixed search."""
    workdir.mkdir(parents=True, exist_ok=True)
    db = inputs.instance()
    begin = CLOCK()
    backend = _backend(kind, db, workdir)
    journal_path = workdir / "journal.log"
    backend.attach_journal(MutationJournal(journal_path))
    service = QuestService(Quest(FullAccessWrapper(backend)), ServiceSettings())
    loaded = CLOCK()
    # The memory backend builds and seals its index lazily; pay it here.
    # SQLite's FTS5 index is built inside the bulk load above.
    index = getattr(backend, "fulltext", None)
    if index is not None:
        index.warm()
    indexed = CLOCK()
    service.search(inputs.FIXED_QUERY)
    end = CLOCK()
    phases = {
        "setup_s": end - begin,
        "setup.load_s": loaded - begin,
        "setup.index_build_s": indexed - loaded,
        "setup.first_search_ms": (end - indexed) * 1000.0,
    }
    return Live(backend, service, journal_path, phases)


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    begin: float = 0.0
    wall_s: float = 0.0
    search: list[float] = field(default_factory=list)
    write: list[float] = field(default_factory=list)
    fresh: list[float] = field(default_factory=list)
    probes: list[str] = field(default_factory=list)
    delta_terms_max: int = 0
    notes: list[str] = field(default_factory=list)
    #: The timing metrics of each replay on its own.
    per_replay: list[dict[str, float]] = field(default_factory=list)

    def summarize(self) -> None:
        searches = [t * 1000.0 for t in self.search]
        pct = stats.tail_percentile(len(searches))
        self.per_replay = [{
            "ops_per_s": self.attempted / self.wall_s,
            "search_p50_ms": stats.median(searches),
            "search_tail_ms": stats.percentile(searches, pct) if pct else max(searches),
            "tail_percentile": pct or 100.0,
            "searches": len(searches),
        }]

    def pool(self, other: Pass) -> None:
        """Add the ops and samples of another replay of the op list."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.wall_s += other.wall_s
        self.search.extend(other.search)
        self.write.extend(other.write)
        self.fresh.extend(other.fresh)
        self.delta_terms_max = max(self.delta_terms_max, other.delta_terms_max)
        self.notes.extend(other.notes[: max(0, 5 - len(self.notes))])
        self.per_replay.extend(other.per_replay)


#: The CPUs this process may run on. On a shared host each vCPU slows
#: down on its own, for seconds at a time, as neighbours load it; a
#: thread left on one CPU measures that CPU's luck. The window moves the
#: benchmark thread to the next CPU before every timed call, so a run
#: spreads evenly over all of them. (On the 2-vCPU development host this
#: halved the spread of a fixed CPU loop across 5 s blocks.) A thread the
#: program starts meanwhile, such as a background merge, inherits the
#: CPU of the moment.
_CPUS = sorted(os.sched_getaffinity(0))


def _hop(turn: int) -> int:
    if len(_CPUS) > 1:
        os.sched_setaffinity(0, {_CPUS[turn % len(_CPUS)]})
    return turn + 1


def _note(result: Pass, text: str) -> None:
    if len(result.notes) < 5:
        result.notes.append(text)


def window(live: Live, ops: list[mixed.MixedOp], tracer: Tracer | None) -> Pass:
    result = Pass(attempted=len(ops))
    index = getattr(live.backend, "fulltext", None) if tracer is not None else None

    def span(name: str) -> Any:
        return tracer.span(name) if tracer is not None else _NULL

    gc.collect()
    turn = 0
    result.begin = begin = CLOCK()
    try:
        for op in ops:
            if op.kind == "search":
                turn = _hop(turn)
                start = CLOCK()
                try:
                    with span("op.search"):
                        live.service.search(op.query)
                except Exception as exc:  # a refused search is a failed op
                    result.failed += 1
                    _note(result, f"search {op.query!r}: {exc}")
                    continue
                result.search.append(CLOCK() - start)
                continue
            turn = _hop(turn)
            start = CLOCK()
            try:
                with span("op.write"):
                    mixed.apply_op(live.backend, op)
            except Exception as exc:
                result.failed += 1
                _note(result, f"{op.kind} on {op.table}: {exc}")
                continue
            result.write.append(CLOCK() - start)
            if index is not None:
                result.delta_terms_max = max(result.delta_terms_max, len(index.delta_terms))
            if op.kind != "add":
                continue
            turn = _hop(turn)
            start = CLOCK()
            try:
                with span("op.fresh"):
                    response = live.service.search(op.probe)
            except Exception as exc:
                result.failed += 1
                _note(result, f"probe {op.probe!r}: {exc}")
                continue
            result.fresh.append(CLOCK() - start)
            result.probes.append(op.probe)
            if not response.explanations:
                result.wrong += 1
                _note(result, f"probe {op.probe!r} not found right after its add")
    finally:
        os.sched_setaffinity(0, _CPUS)
    result.wall_s = CLOCK() - begin
    result.summarize()
    return result


class _Null:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL = _Null()


def _ranking(engine: Quest, query: str) -> bytes:
    return json.dumps(explanation_payload(tuple(engine.search(query)))).encode("utf-8")


def recovery_check(kind: str, live: Live, probes: list[str], workdir: Path) -> list[str]:
    """Recover a fresh backend from seed + journal; compare every probe."""
    workdir.mkdir(parents=True, exist_ok=True)
    fresh = _backend(kind, inputs.instance(), workdir)
    try:
        recover(fresh, live.journal_path)
        recovered = Quest(FullAccessWrapper(fresh))
        engine = live.service.engine
        problems = [
            f"probe {probe!r} ranks differently after recovery"
            for probe in probes
            if _ranking(engine, probe) != _ranking(recovered, probe)
        ]
    finally:
        journal = fresh.journal
        if journal is not None:
            journal.close()
        fresh.close()
    return problems


def run_pass(
    kind: str, ops: list[mixed.MixedOp], workdir: Path, setups: int,
    replays: int, tracer: Tracer | None = None,
) -> tuple[Pass, dict[str, float]]:
    """Set up *setups* times and replay *ops* on each of the last
    *replays* set-ups; return the replays pooled (with each one's timing
    metrics in ``per_replay``) and the run's figures.

    The probes of the last replay are checked against a backend
    recovered from its journal.
    """
    total = max(setups, replays)
    lives: list[dict[str, float]] = []
    result: Pass | None = None
    hits = lookups = 0
    live: Live | None = None
    try:
        for i in range(total):
            if live is not None:
                live.close()
                live = None
                gc.collect()
            live = set_up(kind, workdir / f"setup{i}")
            lives.append(live.phases)
            if i < total - replays:
                continue
            before = live.service.metrics()
            replay = window(live, ops, tracer)
            after = live.service.metrics()
            hit = after.cache_hits - before.cache_hits
            hits += hit
            lookups += hit + after.cache_misses - before.cache_misses
            if result is None:
                result = replay
            else:
                result.pool(replay)
        assert live is not None and result is not None
        figures = {
            "rss_mb": stats.peak_rss_mb(),
            "service.cache_hit_ratio": hits / max(1, lookups),
        }
        for name in lives[-1]:
            figures[name] = stats.median([phases[name] for phases in lives])
        problems = recovery_check(kind, live, replay.probes, workdir / "recovered")
        result.wrong += len(problems)
        result.notes.extend(problems[:5])
    finally:
        if live is not None:
            live.close()
    return result, figures


def traced_report(tracer: Tracer, traced: Pass) -> dict[str, float]:
    roots = link(tracer.spans())
    searches = [r for r in roots if r.name in ("op.search", "op.fresh")]
    writes = [r for r in roots if r.name == "op.write"]
    end = traced.begin + traced.wall_s
    background = [
        r for r in roots
        if not r.name.startswith("op.") and traced.begin <= r.start <= end
    ]
    report = layers.request_report(searches, writes, background)
    timed = len(traced.search) + len(traced.write) + len(traced.fresh)
    report["trace.matched_ratio"] = (len(searches) + len(writes)) / max(1, timed)
    return report


def run(
    name: str, seed: int, seconds: int, trace: bool, root: Path, workdir: Path
) -> dict[str, Any]:
    kind = BACKENDS[name]
    ops = inputs.oltp_ops(inputs.instance(), max(10, seconds * OPS_PER_SECOND), seed)
    # A traced run compares one untraced replay with one traced replay.
    setups, replays = (1, 1) if trace else (_SETUPS, REPLAYS)
    result, figures = run_pass(kind, ops, workdir / "plain", setups, replays)
    out: dict[str, Any] = {"result": result, "figures": figures}
    if not trace:
        return out
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced, traced_figures = run_pass(kind, ops, workdir / "traced", 1, 1, tracer)
        # Set-up and the recovery check ran traced too; only the
        # window's op spans and background merges are reported.
        report = traced_report(tracer, traced)
    finally:
        tracer.uninstall()
    report.update(traced_figures)
    report["fulltext.delta_terms_max"] = float(traced.delta_terms_max)
    untraced_ops = result.attempted / result.wall_s
    traced_ops = traced.attempted / traced.wall_s
    report["trace.overhead_pct"] = (untraced_ops - traced_ops) / untraced_ops * 100.0
    out["traced"] = traced
    out["report"] = report
    return out
