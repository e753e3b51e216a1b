"""Precomputed identities of the combine stage's hypotheses.

``SteinerTree``, ``Configuration`` and ``Interpretation`` compute their
hash once, at construction, so Dempster-Shafer interning hashes
integers. These tests pin the contract that makes that safe: the hash
agrees with equality (across re-scoring and across structurally equal
objects built separately), and — because it derives from salted string
hashes — it is recomputed, never carried, through pickle into an
interpreter with a different ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from repro.core.configuration import Configuration, KeywordMapping
from repro.core.interpretation import Interpretation
from repro.db import ColumnRef
from repro.hmm.states import State, StateKind
from repro.steiner.tree import SteinerTree
from repro.steiner.weights import build_schema_graph

TESTS_DIR = Path(__file__).resolve().parent.parent
REPO_SRC = TESTS_DIR.parent / "src"


def build(weight: float = 1.2, with_intra: bool = True) -> Interpretation:
    """One interpretation of "kubrick movies" over the mini schema, built
    from scratch (fresh graph, fresh edge and reference objects)."""
    from conftest import build_mini_schema

    graph = build_schema_graph(build_mini_schema(), mutual_information=False)
    director = ColumnRef("movie", "director_id")
    person_id, person_name = ColumnRef("person", "id"), ColumnRef("person", "name")
    edges = {graph.edge_between(director, person_id)}
    if with_intra:
        edges.add(graph.edge_between(person_id, person_name))
    tree = SteinerTree(frozenset({person_name, director}), frozenset(edges), weight)
    configuration = Configuration(
        (
            KeywordMapping("kubrick", State(StateKind.DOMAIN, "person", "name")),
            KeywordMapping("movies", State(StateKind.TABLE, "movie")),
        ),
        score=0.25,
    )
    return Interpretation(configuration, tree, score=0.5)


def test_rescoring_keeps_identity():
    interpretation = build()
    rescored = interpretation.with_score(0.9)
    assert rescored == interpretation
    assert hash(rescored) == hash(interpretation)
    assert {interpretation: "x"}[rescored] == "x"
    configuration = interpretation.configuration
    assert configuration.with_score(0.7) == configuration
    assert hash(configuration.with_score(0.7)) == hash(configuration)


def test_equal_structure_hashes_equal():
    left, right = build(), build()
    assert left is not right and left.tree is not right.tree
    assert left == right and hash(left) == hash(right)
    assert left.tree == right.tree and hash(left.tree) == hash(right.tree)
    assert hash(left.configuration) == hash(right.configuration)

    # A differently weighted search finds the same join path: the trees
    # differ as values but share a signature, so the hypotheses unify.
    reweighted = build(weight=3.5)
    assert reweighted.tree != left.tree
    assert hash(reweighted.tree) == hash(left.tree)
    assert reweighted == left and hash(reweighted) == hash(left)

    other = build(with_intra=False)
    assert other != left and other.tree != left.tree
    renamed = Interpretation(
        Configuration(left.configuration.mappings[:1]), left.tree, 0.5
    )
    assert renamed != left


_CHILD = """
import pickle, sys
sys.path[:0] = [{tests!r}, {core!r}]
from test_identity import build
fresh = build()
loaded = pickle.loads(sys.stdin.buffer.read())
pairs = [
    (loaded, fresh),
    (loaded.configuration, fresh.configuration),
    (loaded.tree, fresh.tree),
    (next(iter(loaded.tree.terminals)), next(iter(loaded.tree.terminals))),
]
for got, want in pairs:
    assert got == want, (got, want)
    assert hash(got) == hash(want), type(got).__name__
    assert {{want: 1}}.get(got) == 1, type(got).__name__
assert hash(loaded.tree) == hash(loaded.tree.signature())
edges = {{edge.key: edge for edge in fresh.tree.edges}}
assert all(edges[edge.key] == edge for edge in loaded.tree.edges)
print("ok")
"""


def test_hash_is_recomputed_after_pickling_into_another_hash_seed():
    parent_seed = os.environ.get("PYTHONHASHSEED")
    child_seed = "4242" if parent_seed != "4242" else "4243"
    env = {
        **os.environ,
        "PYTHONHASHSEED": child_seed,
        "PYTHONPATH": os.pathsep.join(
            [str(REPO_SRC), os.environ.get("PYTHONPATH", "")]
        ),
    }
    script = _CHILD.format(tests=str(TESTS_DIR), core=str(Path(__file__).parent))
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(build()),
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().strip() == "ok"
