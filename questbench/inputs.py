"""The generated instance and the seeded inputs every workload sends.

Every run of a workload sends the same multiset of requests: the pools
are drawn once with fixed seeds, and the run's ``--seed`` only orders
them. The instance is mondial at the generator's largest size.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.datasets import mixed, mondial
from repro.db.types import DataType
from repro.semantics.tokenize import tokenize_query

#: Instance: mondial at the generator's maximum (``countries`` is capped
#: by the name list), fixed data seed.
COUNTRIES = 40
DATA_SEED = 23
#: Seeds that fix the pools; the run seed never changes them.
POOL_SEED = 101
OPS_SEED = 7
#: Keyword-count mix of every search pool: 1/2/2/3 keywords.
MIX = (1, 2, 2, 3)
#: Search slots of the oltp op list within which the run seed reorders.
OLTP_SHUFFLE_BLOCK = 8
#: The search every serving process answers to end set-up; no pool holds it.
FIXED_QUERY = "capital ruritania"


def instance() -> Any:
    """A fresh copy of the generated instance (memory backends mutate it)."""
    return mondial.generate(countries=COUNTRIES, seed=DATA_SEED)


def keywords(query: str) -> tuple[str, ...]:
    return tuple(tokenize_query(query))


def vocabulary(db: Any) -> list[str]:
    """Single tokens of the instance's text cells that the public
    tokenizer keeps as they are (no stopwords), in first-seen order."""
    from repro.db.fulltext import tokenize_value

    seen: set[str] = set()
    words: list[str] = []
    for table in db.tables:
        text = [
            i
            for i, column in enumerate(table.schema.columns)
            if column.dtype is DataType.TEXT
        ]
        for row in table.rows:
            for position in text:
                for token in tokenize_value(row[position]):
                    if token not in seen and len(token) >= 3:
                        seen.add(token)
                        if keywords(token) == (token,):
                            words.append(token)
    return words


def counts_for(total: int) -> dict[int, int]:
    """How many queries of each keyword count a pool of *total* holds."""
    if total % len(MIX):
        raise ValueError(f"pool size {total} is not a multiple of {len(MIX)}")
    per = total // len(MIX)
    counts: dict[int, int] = {}
    for n in MIX:
        counts[n] = counts.get(n, 0) + per
    return counts


def distinct_pool(db: Any, total: int, seed: int, gold: bool) -> list[str]:
    """*total* queries with pairwise distinct keyword sets, in the exact
    1/2/2/3 mix, every one answerable (the tokenizer keeps each word).

    With *gold*, the mondial gold templates of 1 to 3 keywords come
    first; the rest are drawn from :func:`vocabulary` the way
    :func:`repro.datasets.mixed.generate_ops` draws its searches.
    """
    want = counts_for(total)
    have = {n: 0 for n in want}
    used: set[frozenset[str]] = {frozenset(keywords(FIXED_QUERY))}
    pool: list[str] = []

    def take(query: str) -> bool:
        kws = keywords(query)
        key = frozenset(kws)
        n = len(kws)
        if n not in want or have[n] >= want[n] or len(key) != n or key in used:
            return False
        used.add(key)
        have[n] += 1
        pool.append(query)
        return True

    if gold:
        for query in mondial.workload(db, queries_per_kind=5, seed=29).queries:
            take(query.text)
    words = vocabulary(db)
    rng = random.Random(seed)
    for n in sorted(want):
        attempts = 0
        while have[n] < want[n]:
            attempts += 1
            if attempts > 100_000:
                raise ValueError(f"vocabulary too small for {want[n]} {n}-keyword queries")
            take(" ".join(rng.sample(words, n)))
    return pool


def cold_requests(db: Any, total: int, seed: int) -> list[str]:
    """The long-tail pool in run order: each query once, shuffled by *seed*."""
    pool = distinct_pool(db, total, POOL_SEED, gold=True)
    random.Random(seed).shuffle(pool)
    return pool


def hot_pool(db: Any) -> list[str]:
    """The 32-query hot set (fixed)."""
    return distinct_pool(db, 32, POOL_SEED + 1, gold=False)


def hot_requests(pool: Sequence[str], repeats: int, seed: int) -> list[int]:
    """Indices into the hot set: each query *repeats* times, shuffled."""
    order = [i for i in range(len(pool)) for _ in range(repeats)]
    random.Random(seed).shuffle(order)
    return order


def oltp_ops(db: Any, count: int, seed: int) -> list[mixed.MixedOp]:
    """A fixed ``oltp`` op list whose searches *seed* reorders locally.

    The writes, their positions and the multiset of searches never
    change. Searches the public tokenizer would shorten (stopwords, as
    in ``"are"``) are redrawn with the same keyword count, so every one
    is answerable and the keyword-count mix is what the generator drew.

    Every write grows the table the searches run on, so a search costs
    more the later it runs. The seed therefore permutes the searches
    only within consecutive blocks of :data:`OLTP_SHUFFLE_BLOCK` search
    slots: each search runs at about the same table size in every run,
    and the seed changes the order, not how much work the run does.
    """
    ops = mixed.generate_ops(db, count, profile="oltp", seed=OPS_SEED)
    words = vocabulary(db)
    rng = random.Random(POOL_SEED)
    slots = [i for i, op in enumerate(ops) if op.kind == "search"]
    queries = []
    for i in slots:
        query = ops[i].query
        n = len(query.split())
        while len(keywords(query)) != n:
            query = " ".join(rng.sample(words, n))
        queries.append(query)
    rng = random.Random(seed)
    for start in range(0, len(queries), OLTP_SHUFFLE_BLOCK):
        block = queries[start : start + OLTP_SHUFFLE_BLOCK]
        rng.shuffle(block)
        queries[start : start + OLTP_SHUFFLE_BLOCK] = block
    for i, query in zip(slots, queries):
        ops[i] = replace(ops[i], query=query)
    return ops


# -- reference answers --------------------------------------------------------


def source_digest(root: Path) -> str:
    """Digest of the program's source tree (keys the reference cache)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_answers(
    cache_dir: Path,
    root: Path,
    label: str,
    queries: Sequence[str],
    compute: Callable[[Sequence[str]], list[bytes]],
) -> list[bytes]:
    """The expected ``results`` bytes of each query, computed once per
    source tree and pool by *compute* and kept under *cache_dir*."""
    digest = hashlib.sha256()
    digest.update(source_digest(root).encode())
    digest.update(json.dumps([label, COUNTRIES, DATA_SEED, list(queries)]).encode())
    path = cache_dir / f"reference-{label}-{digest.hexdigest()[:24]}.json"
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
        return [answer.encode("utf-8") for answer in stored]
    answers = compute(queries)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump([answer.decode("utf-8") for answer in answers], handle)
    tmp.replace(path)
    return answers
