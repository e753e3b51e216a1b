"""Interpretations: configurations materialised as join paths.

The backward step turns each configuration into interpretations — concrete
Steiner trees over the schema graph joining the configuration's terminals.
The tree weight (mutual-information distances) is converted into a score so
interpretations can enter the Dempster-Shafer combination alongside
configuration scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.configuration import Configuration
from repro.steiner.tree import SteinerTree

__all__ = ["Interpretation", "tree_score"]


def tree_score(weight: float) -> float:
    """Map a tree weight (a distance; lower is better) to a score in (0, 1].

    ``1 / (1 + w)`` keeps the ordering while decaying gently: an
    ``exp(-w)`` style score lets a trivial single-table tree (weight 0)
    outvote any legitimate multi-join path by an order of magnitude, which
    would make the backward evidence drown the forward evidence in the
    final Dempster-Shafer combination for every join query.
    """
    return 1.0 / (1.0 + max(0.0, weight))


@dataclass(frozen=True, slots=True)
class Interpretation:
    """One join path materialising one configuration.

    Identity is (configuration, tree signature): the same structural
    hypothesis may be produced with different scores by differently weighted
    searches, and must still unify under Dempster's rule. The hash combines
    the two parts' precomputed hashes once at construction, so the DST
    interning and pignistic ranking hash integers; like theirs, it is
    recomputed on unpickling.
    """

    configuration: Configuration
    tree: SteinerTree
    score: float = 0.0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.configuration._hash, self.tree._hash))
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.configuration == other.configuration
            and (
                self.tree is other.tree
                or self.tree.signature() == other.tree.signature()
            )
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Interpretation, (self.configuration, self.tree, self.score))

    @property
    def tables(self) -> frozenset[str]:
        """All tables on the join path (configuration tables + Steiner points)."""
        return self.tree.tables | self.configuration.tables

    def with_score(self, score: float) -> "Interpretation":
        """The same hypothesis re-scored."""
        return Interpretation(self.configuration, self.tree, score)

    def __str__(self) -> str:
        return (
            f"Interpretation(tables={sorted(self.tables)}, "
            f"tree_weight={self.tree.weight:.3f}, score={self.score:.4f})"
        )
