"""Semilinear functions: finite unions of affine partial functions.

Definition 2.6 of the paper: ``f : N^d -> N`` is semilinear if it is the finite
union of affine partial functions whose domains are disjoint semilinear subsets
of ``N^d``.  Gradients and offsets are rational (the paper's Lemma 7.3), but
the value at every integer point must be a nonnegative integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.semilinear.sets import SemilinearSet, UniversalSet


RationalVector = Tuple[Fraction, ...]


def _as_fraction_vector(values: Sequence) -> RationalVector:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class AffinePiece:
    """An affine partial function ``x -> gradient·x + offset`` on a semilinear domain."""

    domain: SemilinearSet
    gradient: RationalVector
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "gradient", _as_fraction_vector(self.gradient))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if len(self.gradient) != self.domain.dimension:
            raise ValueError(
                f"gradient dimension {len(self.gradient)} does not match domain "
                f"dimension {self.domain.dimension}"
            )

    @property
    def dimension(self) -> int:
        """The input dimension of the piece."""
        return len(self.gradient)

    def applies_to(self, x: Sequence[int]) -> bool:
        """True if ``x`` lies in this piece's domain."""
        return self.domain.contains(x)

    def value(self, x: Sequence[int]) -> Fraction:
        """The (rational) value of the affine expression at ``x``."""
        return sum(
            (g * xi for g, xi in zip(self.gradient, x)), start=Fraction(0)
        ) + self.offset

    def __call__(self, x: Sequence[int]) -> Fraction:
        return self.value(x)

    def __str__(self) -> str:
        terms = " + ".join(
            f"{g}*x{i+1}" for i, g in enumerate(self.gradient) if g != 0
        ) or "0"
        return f"({terms} + {self.offset}) on {self.domain}"


class SemilinearFunction:
    """A total function ``N^d -> N`` given as affine pieces on disjoint domains.

    The pieces are evaluated in order; the first piece whose domain contains
    the point wins (so strictly speaking the representation is a decision
    list, which is interchangeable with the disjoint-domain form of
    Definition 2.6 and more convenient to write down).
    """

    def __init__(self, pieces: Sequence[AffinePiece], name: str = "") -> None:
        if not pieces:
            raise ValueError("a semilinear function needs at least one piece")
        dims = {p.dimension for p in pieces}
        if len(dims) != 1:
            raise ValueError(f"all pieces must share a dimension, got {dims}")
        self.pieces: Tuple[AffinePiece, ...] = tuple(pieces)
        self.dimension: int = pieces[0].dimension
        self.name = name

    # -- evaluation ------------------------------------------------------------

    def piece_at(self, x: Sequence[int]) -> AffinePiece:
        """The first piece whose domain contains ``x`` (raises if none does)."""
        for piece in self.pieces:
            if piece.applies_to(x):
                return piece
        raise ValueError(f"no piece of {self.name or 'the function'} covers the point {tuple(x)}")

    def __call__(self, x: Sequence[int]) -> int:
        value = self.piece_at(x).value(x)
        if value.denominator != 1:
            raise ValueError(
                f"semilinear function produced a non-integer value {value} at {tuple(x)}"
            )
        result = int(value)
        if result < 0:
            raise ValueError(
                f"semilinear function produced a negative value {result} at {tuple(x)}"
            )
        return result

    def as_callable(self) -> Callable[[Sequence[int]], int]:
        """The function as a plain callable on integer tuples."""
        return self.__call__

    # -- structure ---------------------------------------------------------------

    def threshold_atoms(self) -> List:
        """Every threshold atom appearing in any piece's domain."""
        atoms = []
        for piece in self.pieces:
            atoms.extend(piece.domain.threshold_atoms())
        return atoms

    def mod_atoms(self) -> List:
        """Every mod atom appearing in any piece's domain."""
        atoms = []
        for piece in self.pieces:
            atoms.extend(piece.domain.mod_atoms())
        return atoms

    def global_period(self) -> int:
        """The lcm of all mod-set moduli over all pieces (1 if there are none)."""
        import math

        period = 1
        for piece in self.pieces:
            period = period * piece.domain.global_period() // math.gcd(
                period, piece.domain.global_period()
            )
        return period

    # -- bounded checks ------------------------------------------------------------

    def is_total_upto(self, bound: int) -> bool:
        """True if some piece covers every point with coordinates < ``bound``."""
        for x in itertools.product(range(bound), repeat=self.dimension):
            if not any(piece.applies_to(x) for piece in self.pieces):
                return False
        return True

    def is_nondecreasing_upto(self, bound: int) -> bool:
        """Check the nondecreasing property on all unit steps within the bound."""
        for x in itertools.product(range(bound), repeat=self.dimension):
            fx = self(x)
            for i in range(self.dimension):
                step = tuple(v + (1 if j == i else 0) for j, v in enumerate(x))
                if max(step) < bound and self(step) < fx:
                    return False
        return True

    def agrees_with_upto(self, other: Callable[[Sequence[int]], int], bound: int) -> bool:
        """True if this function equals ``other`` on every point below the bound."""
        for x in itertools.product(range(bound), repeat=self.dimension):
            if self(x) != int(other(x)):
                return False
        return True

    # -- constructors ----------------------------------------------------------------

    @staticmethod
    def affine(gradient: Sequence, offset=0, name: str = "") -> "SemilinearFunction":
        """A globally affine function ``x -> gradient·x + offset``."""
        gradient = _as_fraction_vector(gradient)
        return SemilinearFunction(
            [AffinePiece(UniversalSet(len(gradient)), gradient, Fraction(offset))],
            name=name or "affine",
        )

    def __str__(self) -> str:
        label = self.name or "semilinear function"
        lines = [f"{label} : N^{self.dimension} -> N"]
        for piece in self.pieces:
            lines.append(f"  {piece}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"SemilinearFunction(name={self.name!r}, d={self.dimension}, pieces={len(self.pieces)})"
