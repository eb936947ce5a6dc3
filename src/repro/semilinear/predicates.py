"""Semilinear predicates (Boolean-valued semilinear functions).

Predicate computation is the population-protocol setting the paper builds on
(Angluin et al.): the stably computable predicates are exactly the semilinear
ones.  Predicates are included as a substrate because the indicator functions
``1_{x(i) > j}`` used in the general construction of Lemma 6.2 are (very
simple) semilinear predicates, and because the examples and tests exercise the
CRN model on the classical predicate workloads (majority, threshold, parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.semilinear.sets import ModSet, SemilinearSet, ThresholdSet


@dataclass(frozen=True)
class SemilinearPredicate:
    """A predicate ``N^d -> {0, 1}`` defined by membership in a semilinear set."""

    accepting_set: SemilinearSet
    name: str = ""

    @property
    def dimension(self) -> int:
        """The input dimension of the predicate."""
        return self.accepting_set.dimension

    def __call__(self, x: Sequence[int]) -> int:
        return 1 if self.accepting_set.contains(x) else 0

    def negation(self) -> "SemilinearPredicate":
        """The complementary predicate."""
        return SemilinearPredicate(self.accepting_set.complement(), name=f"not-{self.name}")

    def conjunction(self, other: "SemilinearPredicate") -> "SemilinearPredicate":
        """The conjunction (AND) of two predicates."""
        return SemilinearPredicate(
            self.accepting_set.intersection(other.accepting_set),
            name=f"({self.name} and {other.name})",
        )

    def disjunction(self, other: "SemilinearPredicate") -> "SemilinearPredicate":
        """The disjunction (OR) of two predicates."""
        return SemilinearPredicate(
            self.accepting_set.union(other.accepting_set),
            name=f"({self.name} or {other.name})",
        )


def threshold_predicate(coefficients: Sequence[int], bound: int, name: str = "") -> SemilinearPredicate:
    """The predicate ``a·x >= b``."""
    coefficients = tuple(int(c) for c in coefficients)
    return SemilinearPredicate(
        ThresholdSet(coefficients, bound),
        name=name or f"threshold({coefficients}, {bound})",
    )


def majority_predicate(dimension: int = 2) -> SemilinearPredicate:
    """The majority predicate ``x1 >= x2`` (for dimension 2).

    For higher dimensions this compares the first coordinate against the sum of
    the rest.
    """
    if dimension < 2:
        raise ValueError("majority requires at least two inputs")
    coefficients = tuple([1] + [-1] * (dimension - 1))
    return SemilinearPredicate(ThresholdSet(coefficients, 0), name="majority")


def parity_predicate(dimension: int = 1, modulus: int = 2, residue: int = 0) -> SemilinearPredicate:
    """The parity predicate ``sum(x) ≡ residue (mod modulus)``."""
    coefficients = tuple([1] * dimension)
    return SemilinearPredicate(
        ModSet(coefficients, residue, modulus),
        name=f"parity(mod {modulus} == {residue})",
    )


def coordinate_exceeds(dimension: int, index: int, threshold: int) -> SemilinearPredicate:
    """The indicator predicate ``1_{x(index) > threshold}`` used in Lemma 6.2."""
    if not 0 <= index < dimension:
        raise ValueError(f"index {index} out of range for dimension {dimension}")
    coefficients = tuple(1 if i == index else 0 for i in range(dimension))
    return SemilinearPredicate(
        ThresholdSet(coefficients, threshold + 1),
        name=f"x{index + 1}>{threshold}",
    )
