"""Index-answered counts on the memory backend, against the executor.

``MemoryBackend.result_count`` answers keyword predicates from the
full-text index's posting lists instead of scanning and re-tokenising
every row; the row-at-a-time executor stays as the oracle. Every count
below — bounded and unbounded — must equal ``len(execute(db, query))``
on every index layout the backend can hold: a sealed columnar snapshot,
an mmap'd artifact, the dict layout, and a columnar snapshot with an
unmerged write delta over tombstoned rows.
"""

from __future__ import annotations

import random

import pytest

from repro.core import Quest
from repro.datasets import mondial
from repro.db.executor import execute, filter_base, local_predicates
from repro.db.fulltext import FullTextIndex, tokenize_value
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery, TableRef
from repro.storage.memory import MemoryBackend
from repro.wrapper import FullAccessWrapper

LIMITS = (1, 2, 5)


def _instance():
    return mondial.generate(countries=10, seed=23)


def _searches(db) -> list[str]:
    """The mondial gold queries plus a seeded random keyword pool."""
    texts = [q.text for q in mondial.workload(db, queries_per_kind=2, seed=31)]
    words = sorted(
        {
            token
            for row in db.table("city").rows + db.table("country").rows
            for value in row
            if isinstance(value, str)
            for token in tokenize_value(value)
            if len(token) >= 3
        }
    )
    rng = random.Random(7)
    texts += [" ".join(rng.sample(words, rng.choice((1, 2)))) for _ in range(12)]
    return texts


def _counted_queries(backend: MemoryBackend, texts: list[str]) -> list[SelectQuery]:
    """Every query the explain stage counts while answering *texts*."""
    counted: list[SelectQuery] = []
    count = backend.result_count

    def recording(query, limit=None):
        counted.append(query)
        return count(query, limit)

    backend.result_count = recording  # type: ignore[method-assign]
    try:
        engine = Quest(FullAccessWrapper(backend))
        for text in texts:
            engine.search(text)
    finally:
        del backend.result_count
    assert counted
    return counted


def _handmade(db) -> list[SelectQuery]:
    """Predicates the generated workload rarely or never produces."""
    city = db.table("city").rows
    phrase = next(row[1] for row in city if len(tokenize_value(row[1])) > 1)
    first, second = tokenize_value(phrase)[:2]
    population = str(city[0][4])
    orphan = next(row[1] for row in city if row[3] is None)
    joined = dict(
        tables=(TableRef.of("city"), TableRef.of("country")),
        joins=(JoinCondition("city", "country_code", "country", "code"),),
        projection=(("country", "name"),),
    )

    def on_city(*predicates: Predicate) -> SelectQuery:
        return SelectQuery(predicates=predicates, **joined)

    contains = Comparison.CONTAINS
    return [
        # a phrase keyword (several tokens) falls back to the scan
        on_city(Predicate("city", "name", contains, phrase)),
        # two keywords on one occurrence intersect their postings
        on_city(
            Predicate("city", "name", contains, first),
            Predicate("city", "name", contains, second),
        ),
        # a keyword on a numeric column
        on_city(Predicate("city", "population", contains, population)),
        # a keyword with no postings at all
        on_city(Predicate("country", "name", contains, "zzqxjv")),
        # LIKE and comparisons filter the index-answered rows
        on_city(
            Predicate("city", "name", contains, first),
            Predicate("city", "population", Comparison.GT, 0),
        ),
        on_city(Predicate("city", "name", Comparison.LIKE, f"{first}%")),
        on_city(
            Predicate("country", "name", Comparison.LIKE, "%a%"),
            Predicate("city", "name", contains, second),
        ),
        # keyword case is folded exactly as the index folds it
        on_city(Predicate("city", "name", contains, first.upper())),
        # a self-join: two occurrences of one table, each with a keyword
        SelectQuery(
            tables=(TableRef.of("city", "a"), TableRef.of("city", "b")),
            joins=(JoinCondition("a", "country_code", "b", "country_code"),),
            predicates=(
                Predicate("a", "name", contains, first),
                Predicate("b", "name", contains, second),
            ),
            projection=(("a", "id"), ("b", "id")),
        ),
        # NULL join keys never match, also when probing a table's index
        SelectQuery(
            tables=(TableRef.of("city", "a"), TableRef.of("city", "b")),
            joins=(JoinCondition("a", "province_id", "b", "province_id"),),
            predicates=(
                Predicate("a", "name", contains, tokenize_value(orphan)[-1]),
            ),
        ),
        # no predicates at all and a LIMIT
        SelectQuery(tables=(TableRef.of("member"),), limit=7),
    ]


def _scanned(db, query: SelectQuery) -> int:
    """The count with every occurrence scanned and hash-joined from its
    rows — no posting list and no table hash index involved."""
    local = local_predicates(query)
    base_rows = {
        ref.alias: filter_base(db.table(ref.table), local[ref.alias])
        for ref in query.tables
    }
    return len(execute(db, query, base_rows))


def _assert_parity(backend: MemoryBackend, queries: list[SelectQuery]) -> None:
    for query in queries:
        expected = len(execute(backend.database, query))
        assert _scanned(backend.database, query) == expected, str(query)
        assert backend.result_count(query) == expected, str(query)
        for limit in LIMITS:
            assert backend.result_count(query, limit) == min(expected, limit)


def _mutate(backend: MemoryBackend) -> None:
    """Add and tombstone rows so a delta and tombstones are live."""
    backend.add_rows(
        "country",
        [
            ("ZZA", "Zanthia Magna", "Port Zanthia", 1200, 10.5),
            ("ZZB", "Upper Borovia", "Borograd", 900, 7.25),
        ],
    )
    top = max(row[0] for row in backend.table_rows("city"))
    backend.add_rows(
        "city",
        [
            (top + 1, "Port Zanthia", "ZZA", None, 5000),
            (top + 2, "Borograd Upper", "ZZB", None, 4000),
        ],
    )
    victims = [(row[0],) for row in backend.table_rows("city")[:4]]
    assert backend.delete_rows("city", victims) == len(victims)


def _columnar(db) -> MemoryBackend:
    backend = MemoryBackend(db)
    backend.fulltext.warm()
    return backend


def _dict_layout(db) -> MemoryBackend:
    return MemoryBackend(db, FullTextIndex(db, columnar=False))


def _mmapped(db, tmp_path) -> MemoryBackend:
    artifact = tmp_path / "mondial.npz"
    _columnar(db).save_index(artifact)
    backend = MemoryBackend(db)
    backend.load_index(artifact, mmap=True)
    assert backend.fulltext.mmapped
    return backend


def _delta(db) -> MemoryBackend:
    backend = _columnar(db)
    _mutate(backend)
    assert backend.fulltext.delta_terms
    assert backend.database.table("city").deleted_count
    return backend


@pytest.mark.parametrize("layout", ["columnar", "mmap", "dict", "delta"])
def test_counts_match_the_executor(layout, tmp_path):
    db = _instance()
    backend = {
        "columnar": _columnar,
        "mmap": lambda db: _mmapped(db, tmp_path),
        "dict": _dict_layout,
        "delta": _delta,
    }[layout](db)
    queries = _counted_queries(backend, _searches(db)) + _handmade(db)
    _assert_parity(backend, queries)


def test_counts_follow_mutations_after_the_first_count():
    """A count taken before a batch never pins stale postings or rows."""
    db = _instance()
    backend = _columnar(db)
    queries = _handmade(db)
    _assert_parity(backend, queries)
    _mutate(backend)
    probe = SelectQuery(
        tables=(TableRef.of("city"),),
        predicates=(Predicate("city", "name", Comparison.CONTAINS, "zanthia"),),
    )
    assert backend.result_count(probe) == 1
    _assert_parity(backend, queries + [probe])


def test_unknown_column_raises_like_the_executor():
    db = _instance()
    backend = _columnar(db)
    query = SelectQuery(
        tables=(TableRef.of("city"),),
        predicates=(Predicate("city", "nope", Comparison.CONTAINS, "upper"),),
    )
    with pytest.raises(Exception) as scan:
        execute(db, query)
    with pytest.raises(type(scan.value)):
        backend.result_count(query)
