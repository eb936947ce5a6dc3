"""Threshold hyperplanes shifted off the integer lattice.

Section 7.2 of the paper: each threshold set ``{x : t·x >= h}`` (with integer
``t, h``) has boundary hyperplane ``t·x = h``.  The paper rewrites thresholds
as ``2t·x > 2h - 1`` so the boundary ``t·x = h - 1/2`` contains no integer
point, which makes the induced partition of ``N^d`` well defined (every integer
point is strictly on one side).  :class:`Hyperplane` stores the original
integer data and performs the half-integer shift when computing sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple


@dataclass(frozen=True)
class Hyperplane:
    """The boundary of the threshold set ``{x : normal·x >= threshold}``.

    The *positive side* (sign ``+1``) is ``normal·x >= threshold``; the
    *negative side* (sign ``-1``) is ``normal·x <= threshold - 1`` — every
    integer point is on exactly one side because the shifted boundary
    ``normal·x = threshold - 1/2`` contains no integer points.
    """

    normal: Tuple[int, ...]
    threshold: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", tuple(int(v) for v in self.normal))
        if all(v == 0 for v in self.normal):
            raise ValueError("a hyperplane needs a nonzero normal vector")

    @property
    def dimension(self) -> int:
        """The ambient dimension."""
        return len(self.normal)

    def dot(self, x: Sequence) -> Fraction:
        """The (rational) value ``normal·x``."""
        if len(x) != self.dimension:
            raise ValueError(f"dimension mismatch: expected {self.dimension}, got {len(x)}")
        return sum((Fraction(n) * Fraction(v) for n, v in zip(self.normal, x)), start=Fraction(0))

    def side(self, x: Sequence[int]) -> int:
        """The side (+1 or -1) of the shifted hyperplane that the integer point ``x`` is on."""
        return 1 if self.dot(x) >= self.threshold else -1

    def shifted_value(self, x: Sequence) -> Fraction:
        """``normal·x - (threshold - 1/2)``: positive on the + side, negative on the - side."""
        return self.dot(x) - (Fraction(self.threshold) - Fraction(1, 2))

    def is_parallel_to(self, direction: Sequence) -> bool:
        """True if the direction vector is parallel to the hyperplane (normal·direction == 0)."""
        return sum(
            (Fraction(n) * Fraction(v) for n, v in zip(self.normal, direction)), start=Fraction(0)
        ) == 0

    def distance_to(self, x: Sequence) -> Fraction:
        """Scaled distance from ``x`` to the shifted boundary: ``|normal·x - (h - 1/2)|``.

        The true Euclidean distance divides this by ``‖normal‖``; the scaled
        version keeps the arithmetic rational and is sufficient for the
        separation arguments (Lemma 7.14) which only need lower bounds.
        """
        value = self.shifted_value(x)
        return value if value >= 0 else -value

    def __str__(self) -> str:
        terms = " + ".join(
            f"{c}*x{i+1}" for i, c in enumerate(self.normal) if c != 0
        ) or "0"
        return f"{{x : {terms} = {self.threshold} - 1/2}}"
