"""Evaluation of logical queries against the in-memory database.

The executor implements a straightforward but index-aware strategy:

1. apply local predicates to each FROM occurrence (scan, or index point
   lookup for equality predicates);
2. join occurrences one at a time, always preferring an occurrence connected
   to the already-joined ones through an equi-join condition, probing hash
   indexes built on the fly;
3. project (optionally de-duplicating) and apply LIMIT.

This supports everything the QUEST query builder emits: conjunctive
select-project-join queries with keyword (CONTAINS), LIKE and comparison
predicates. Disconnected FROM clauses fall back to cross products so the
executor is total over the query model.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Iterator, Mapping

from repro.db.database import Database
from repro.db.fulltext import tokenize_value
from repro.db.query import Comparison, JoinCondition, Predicate, SelectQuery
from repro.db.table import Row, Table
from repro.errors import ExecutionError

__all__ = [
    "execute",
    "filter_base",
    "local_predicates",
    "result_count",
    "ResultSet",
    "contains_match",
    "like_match",
]


class ResultSet:
    """Materialised query output: named columns plus row tuples."""

    def __init__(self, columns: tuple[str, ...], rows: list[tuple[Any, ...]]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by qualified column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


@lru_cache(maxsize=1024)
def _like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into an anchored regex.

    ``%`` matches any run of characters, ``_`` exactly one; a backslash
    escapes the next character, so ``100\\%`` matches the literal string
    ``100%``. The translation is direct — no fnmatch round trip — which
    keeps ``*``/``?``/``[`` in patterns literal, as SQL requires. DOTALL
    lets wildcards span newlines embedded in values.
    """
    out = []
    i = 0
    while i < len(pattern):
        char = pattern[i]
        if char == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
        i += 1
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


def like_match(value: Any, pattern: Any) -> bool:
    """SQL LIKE over a stored value (NULL never matches).

    Shared by the in-memory executor and the SQLite backend (registered
    there as the ``QUEST_LIKE`` user function), so LIKE semantics are
    identical across storage backends by construction.
    """
    if value is None:
        return False
    return bool(_like_to_regex(str(pattern)).match(str(value)))


@lru_cache(maxsize=1024)
def _keyword_tokens(keyword: str) -> list[str]:
    # The keyword is a per-predicate constant evaluated once per row:
    # cache its tokenisation so scans pay the regex once, not N times.
    # Callers must not mutate the returned list.
    return tokenize_value(keyword)


def contains_match(value: Any, keyword: Any) -> bool:
    """CONTAINS: the keyword's tokens occur contiguously in the value.

    Matching is consistent with :func:`~repro.db.fulltext.tokenize_value`
    — the same tokenisation the full-text index applies — so a keyword
    matches a value through the executor exactly when it matches it
    through the index: ``lake`` matches ``Blue Lake`` but no longer
    matches ``Lakeland`` (a substring of a longer token). Multi-token
    keywords match as a phrase (contiguous token run). A keyword with no
    tokens at all (pure punctuation) matches nothing.
    """
    if value is None:
        return False
    needle = _keyword_tokens(str(keyword))
    if not needle:
        return False
    haystack = tokenize_value(value)
    span = len(needle)
    return any(
        haystack[start : start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def _match(value: Any, predicate: Predicate) -> bool:
    """Evaluate one predicate against a single column value."""
    op = predicate.op
    if op is Comparison.CONTAINS:
        return contains_match(value, predicate.value)
    if op is Comparison.LIKE:
        return like_match(value, predicate.value)
    if value is None:
        return False  # SQL three-valued logic: NULL comparisons are not true
    other = predicate.value
    try:
        if op is Comparison.EQ:
            return bool(value == other)
        if op is Comparison.NE:
            return bool(value != other)
        if op is Comparison.LT:
            return bool(value < other)
        if op is Comparison.LE:
            return bool(value <= other)
        if op is Comparison.GT:
            return bool(value > other)
        if op is Comparison.GE:
            return bool(value >= other)
    except TypeError as exc:
        raise ExecutionError(
            f"type mismatch evaluating {predicate}: {value!r}"
        ) from exc
    raise ExecutionError(f"unsupported operator: {op}")  # pragma: no cover


def filter_base(
    table: Table,
    predicates: list[Predicate],
    candidates: list[Row] | None = None,
) -> list[Row]:
    """Rows of *table* satisfying all local *predicates*, in physical order.

    Equality predicates on indexed values short-circuit through a hash
    index; everything else scans. *candidates* replaces the scan's
    starting set with rows already known to satisfy other predicates of
    the same occurrence (a storage backend's index-answered keywords).
    """
    rest = predicates
    if candidates is None:
        seed = next((p for p in predicates if p.op is Comparison.EQ), None)
        if seed is None:
            candidates = table.rows
        else:
            candidates = table.lookup(seed.column, seed.value)
            rest = [p for p in predicates if p is not seed]
    if not rest:
        return list(candidates)
    positions = {p: table.column_position(p.column) for p in rest}
    return [
        row
        for row in candidates
        if all(_match(row[positions[p]], p) for p in rest)
    ]


def local_predicates(query: SelectQuery) -> dict[str, list[Predicate]]:
    """The WHERE predicates of *query*, grouped by FROM occurrence."""
    local: dict[str, list[Predicate]] = {alias: [] for alias in query.aliases}
    for predicate in query.predicates:
        local[predicate.alias].append(predicate)
    return local


def execute(
    db: Database,
    query: SelectQuery,
    base_rows: Mapping[str, list[Row]] | None = None,
) -> ResultSet:
    """Evaluate *query* against *db* and materialise the results.

    *base_rows* supplies, per alias, rows already filtered by that
    occurrence's local predicates (in physical order, as
    :func:`filter_base` returns them); aliases it leaves out are scanned
    here. Joining, projection, DISTINCT and LIMIT are the same either way.
    """
    tables: dict[str, Table] = {
        ref.alias: db.table(ref.table) for ref in query.tables
    }
    given = base_rows or {}
    local = local_predicates(query)
    # Occurrences without local predicates join against their whole
    # table, so a join step can probe the table's own hash index.
    whole = {alias for alias in query.aliases if alias not in given and not local[alias]}
    base_rows = {
        alias: given[alias] if alias in given else filter_base(
            tables[alias], local[alias]
        )
        for alias in query.aliases
    }

    # Greedy join ordering: start from the most selective occurrence, then
    # repeatedly attach the connected occurrence with the fewest base rows.
    remaining = set(query.aliases)
    start = min(remaining, key=lambda alias: len(base_rows[alias]))
    remaining.discard(start)
    bound = [start]
    partials: list[dict[str, Row]] = [{start: row} for row in base_rows[start]]

    pending: list[JoinCondition] = list(query.joins)
    while remaining:
        step = _pick_next(bound, remaining, pending, base_rows)
        if step is None:
            # Disconnected clause: cross product with the smallest remainder.
            alias = min(remaining, key=lambda a: len(base_rows[a]))
            partials = [
                {**partial, alias: row}
                for partial in partials
                for row in base_rows[alias]
            ]
            remaining.discard(alias)
            bound.append(alias)
            continue
        alias, conditions = step
        partials = _hash_join(
            partials, alias, conditions, tables, base_rows[alias], alias in whole
        )
        remaining.discard(alias)
        bound.append(alias)
        pending = [c for c in pending if c not in conditions]

    # Residual join conditions between already-bound occurrences (cycles).
    for condition in pending:
        partials = [p for p in partials if _join_holds(p, condition, tables)]

    return _project(query, tables, partials)


def _pick_next(
    bound: list[str],
    remaining: set[str],
    pending: list[JoinCondition],
    base_rows: dict[str, list[Row]],
) -> tuple[str, list[JoinCondition]] | None:
    """Choose the next occurrence connected to the bound set, if any."""
    bound_set = set(bound)
    candidates: dict[str, list[JoinCondition]] = {}
    for condition in pending:
        left_in = condition.left_alias in bound_set
        right_in = condition.right_alias in bound_set
        if left_in and condition.right_alias in remaining:
            candidates.setdefault(condition.right_alias, []).append(condition)
        elif right_in and condition.left_alias in remaining:
            candidates.setdefault(condition.left_alias, []).append(condition)
    if not candidates:
        return None
    alias = min(candidates, key=lambda a: len(base_rows[a]))
    return alias, candidates[alias]


def _hash_join(
    partials: list[dict[str, Row]],
    alias: str,
    conditions: list[JoinCondition],
    tables: dict[str, Table],
    new_rows: list[Row],
    whole_table: bool = False,
) -> list[dict[str, Row]]:
    """Attach *alias* to each partial tuple through equi-join *conditions*.

    *whole_table* says *new_rows* are all live rows of the table; a
    single-column join then probes the table's maintained hash index
    (:meth:`Table.ensure_index`) instead of hashing every row again.
    Both give the matches of a key in physical row order.
    """
    # Normalise conditions so the new occurrence is always on the right.
    normal = [
        c if c.right_alias == alias else c.reversed() for c in conditions
    ]
    table = tables[alias]
    # Resolve every column first: an unknown join column raises even when
    # no partial tuple is left to join.
    key_positions = tuple(table.column_position(c.right_column) for c in normal)
    probe_positions = [
        (c.left_alias, tables[c.left_alias].column_position(c.left_column))
        for c in normal
    ]
    joined: list[dict[str, Row]] = []
    if not partials:
        return joined
    if whole_table and len(normal) == 1:
        index = table.ensure_index(normal[0].right_column)
        stored = table.storage_rows
        probe_alias, probe_position = probe_positions[0]
        for partial in partials:
            value = partial[probe_alias][probe_position]
            if value is None:
                continue
            for position in index.get(value, ()):
                extended = dict(partial)
                extended[alias] = stored[position]
                joined.append(extended)
        return joined

    build: dict[tuple[Any, ...], list[Row]] = {}
    for row in new_rows:
        key = tuple(row[p] for p in key_positions)
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(row)

    for partial in partials:
        key = tuple(partial[a][p] for a, p in probe_positions)
        for row in build.get(key, ()):
            extended = dict(partial)
            extended[alias] = row
            joined.append(extended)
    return joined


def _join_holds(
    partial: dict[str, Row], condition: JoinCondition, tables: dict[str, Table]
) -> bool:
    """Whether a residual (cycle-closing) join condition is satisfied."""
    left = partial[condition.left_alias][
        tables[condition.left_alias].column_position(condition.left_column)
    ]
    right = partial[condition.right_alias][
        tables[condition.right_alias].column_position(condition.right_column)
    ]
    return left is not None and left == right


def _project(
    query: SelectQuery,
    tables: dict[str, Table],
    partials: list[dict[str, Row]],
) -> ResultSet:
    """Apply projection, DISTINCT and LIMIT to joined partial tuples."""
    if query.projection:
        targets = list(query.projection)
    else:
        targets = [
            (alias, column)
            for alias in query.aliases
            for column in tables[alias].schema.column_names
        ]
    positions = [
        (alias, tables[alias].column_position(column)) for alias, column in targets
    ]
    columns = tuple(f"{alias}.{column}" for alias, column in targets)

    rows: list[tuple[Any, ...]] = []
    seen: set[tuple[Any, ...]] = set()
    for partial in partials:
        row = tuple(partial[alias][position] for alias, position in positions)
        if query.distinct:
            if row in seen:
                continue
            seen.add(row)
        rows.append(row)
        if query.limit is not None and len(rows) >= query.limit:
            break
    return ResultSet(columns, rows)


def result_count(db: Database, query: SelectQuery) -> int:
    """Number of rows *query* returns (respecting DISTINCT and LIMIT)."""
    return len(execute(db, query))
