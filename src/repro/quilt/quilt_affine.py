"""The :class:`QuiltAffine` class implementing Definition 5.1 of the paper.

A quilt-affine function with period ``p`` is

    g(x) = ∇g · x + B(x mod p)

where ``∇g ∈ Q^d_{≥0}`` and ``B : Z^d/pZ^d -> Q``.  Both terms may be
rational, but the sum is required to be an integer at every integer point, and
``g`` is required to be nondecreasing.  The paper's Lemma 6.1 constructs an
output-oblivious CRN computing any quilt-affine function with nonnegative
outputs; the finite differences used by that construction are exposed here as
:meth:`QuiltAffine.finite_difference`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


Residue = Tuple[int, ...]
RationalVector = Tuple[Fraction, ...]


def residue_of(x: Sequence[int], period: int) -> Residue:
    """The congruence class of ``x`` in ``Z^d / p Z^d`` as a tuple of residues."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    return tuple(int(v) % period for v in x)


def all_residues(dimension: int, period: int) -> Iterator[Residue]:
    """Iterate over all ``p^d`` congruence classes of ``Z^d / p Z^d``."""
    return itertools.product(range(period), repeat=dimension)


class QuiltAffine:
    """A quilt-affine function ``g(x) = ∇g·x + B(x mod p)``.

    Parameters
    ----------
    gradient:
        The rational gradient ``∇g`` (must be componentwise nonnegative).
    period:
        The common period ``p`` along every input component.
    offsets:
        Mapping from residue tuples (length ``d``, entries in ``[0, p)``) to
        rational offsets ``B``.  Missing residues default to 0.
    name:
        Optional human-readable name.
    validate:
        If True (default), check integrality and the nondecreasing property.
    """

    def __init__(
        self,
        gradient: Sequence,
        period: int = 1,
        offsets: Optional[Mapping[Sequence[int], object]] = None,
        name: str = "",
        validate: bool = True,
    ) -> None:
        self.gradient: RationalVector = tuple(Fraction(g) for g in gradient)
        self.dimension: int = len(self.gradient)
        if self.dimension == 0:
            raise ValueError("a quilt-affine function needs at least one input dimension")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period: int = int(period)
        self.name = name

        table: Dict[Residue, Fraction] = {}
        for residue, value in dict(offsets or {}).items():
            residue = residue_of(residue, self.period)
            table[residue] = Fraction(value)
        self._offsets = table

        if any(g < 0 for g in self.gradient):
            raise ValueError(f"quilt-affine gradients must be nonnegative, got {self.gradient}")
        if validate:
            self._check_integrality()
            if not self.is_nondecreasing():
                raise ValueError(
                    f"the given gradient/offsets do not define a nondecreasing function ({self.name or 'unnamed'})"
                )

    # -- core evaluation -------------------------------------------------------

    def offset(self, x: Sequence[int]) -> Fraction:
        """The periodic offset ``B(x mod p)``."""
        return self._offsets.get(residue_of(x, self.period), Fraction(0))

    def value(self, x: Sequence[int]) -> Fraction:
        """The (exact rational) value ``∇g·x + B(x mod p)``."""
        if len(x) != self.dimension:
            raise ValueError(f"expected a point of dimension {self.dimension}, got {len(x)}")
        linear = sum((g * Fraction(v) for g, v in zip(self.gradient, x)), start=Fraction(0))
        return linear + self.offset(x)

    def __call__(self, x: Sequence[int]) -> int:
        value = self.value(x)
        if value.denominator != 1:
            raise ValueError(
                f"quilt-affine function {self.name or ''} produced non-integer value {value} at {tuple(x)}"
            )
        return int(value)

    # -- validation --------------------------------------------------------------

    def _check_integrality(self) -> None:
        for i, g in enumerate(self.gradient):
            if (g * self.period).denominator != 1:
                raise ValueError(
                    f"gradient component {i} = {g} times period {self.period} must be an integer"
                )
        for residue in all_residues(self.dimension, self.period):
            value = self.value(residue)
            if value.denominator != 1:
                raise ValueError(
                    f"quilt-affine value at residue representative {residue} is not an integer: {value}"
                )

    def is_nondecreasing(self) -> bool:
        """True if every periodic finite difference is nonnegative.

        Since the finite differences are periodic (they depend only on the
        congruence class), it suffices to check one representative per class
        and unit direction.
        """
        for residue in all_residues(self.dimension, self.period):
            for i in range(self.dimension):
                if self.finite_difference(i, residue) < 0:
                    return False
        return True

    def has_nonnegative_range_upto(self, bound: int) -> bool:
        """Bounded check that the function is nonnegative on ``[0, bound)^d``.

        Because the gradient is nonnegative, nonnegativity on the residue cube
        ``[0, p)^d`` implies nonnegativity everywhere; the bound only matters
        when it is smaller than the period.
        """
        limit = min(bound, self.period)
        return all(
            self.value(x) >= 0 for x in itertools.product(range(limit), repeat=self.dimension)
        )

    # -- finite differences (used by the Lemma 6.1 construction) -------------------

    def finite_difference(self, direction: int, residue: Sequence[int]) -> Fraction:
        """The periodic finite difference ``δ^i_a = g(x + e_i) - g(x)`` for ``x ≡ a``.

        Equals ``∇g·e_i + B(a + e_i) - B(a)``; for a valid (integer-valued,
        nondecreasing) quilt-affine function this is a nonnegative integer.
        """
        if not 0 <= direction < self.dimension:
            raise ValueError(f"direction {direction} out of range for dimension {self.dimension}")
        residue = residue_of(residue, self.period)
        shifted = tuple(
            (v + (1 if i == direction else 0)) % self.period for i, v in enumerate(residue)
        )
        return (
            self.gradient[direction]
            + self._offsets.get(shifted, Fraction(0))
            - self._offsets.get(residue, Fraction(0))
        )

    def finite_difference_table(self) -> Dict[Tuple[int, Residue], int]:
        """All finite differences, keyed by (direction, residue class)."""
        table: Dict[Tuple[int, Residue], int] = {}
        for residue in all_residues(self.dimension, self.period):
            for i in range(self.dimension):
                delta = self.finite_difference(i, residue)
                if delta.denominator != 1:
                    raise ValueError(
                        f"finite difference at {residue} in direction {i} is not an integer: {delta}"
                    )
                table[(i, residue)] = int(delta)
        return table

    # -- algebra ---------------------------------------------------------------------

    def with_period(self, new_period: int) -> "QuiltAffine":
        """Re-express this function with a (multiple) period ``new_period``."""
        if new_period % self.period != 0:
            raise ValueError(
                f"new period {new_period} must be a multiple of the current period {self.period}"
            )
        offsets = {
            residue: self.offset(residue)
            for residue in all_residues(self.dimension, new_period)
        }
        return QuiltAffine(self.gradient, new_period, offsets, name=self.name, validate=False)

    def translate(self, shift: Sequence[int]) -> "QuiltAffine":
        """The translated function ``x -> g(x + shift)`` (still quilt-affine)."""
        shift = tuple(int(v) for v in shift)
        if len(shift) != self.dimension:
            raise ValueError("shift dimension mismatch")
        linear_shift = sum(
            (g * Fraction(v) for g, v in zip(self.gradient, shift)), start=Fraction(0)
        )
        offsets = {
            residue: linear_shift
            + self.offset(tuple(r + s for r, s in zip(residue, shift)))
            for residue in all_residues(self.dimension, self.period)
        }
        return QuiltAffine(
            self.gradient,
            self.period,
            offsets,
            name=f"{self.name}+shift{shift}" if self.name else "",
            validate=False,
        )

    def add_constant(self, constant) -> "QuiltAffine":
        """The function ``x -> g(x) + constant``."""
        constant = Fraction(constant)
        offsets = {
            residue: self.offset(residue) + constant
            for residue in all_residues(self.dimension, self.period)
        }
        return QuiltAffine(self.gradient, self.period, offsets, name=self.name, validate=False)

    def restrict_input(self, index: int, value: int) -> "QuiltAffine":
        """Fix input ``index`` to ``value``, producing a quilt-affine function of d-1 inputs."""
        if self.dimension == 1:
            raise ValueError("cannot restrict the only input of a 1-dimensional function")
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} out of range")
        value = int(value)
        new_gradient = tuple(g for i, g in enumerate(self.gradient) if i != index)
        fixed_contribution = self.gradient[index] * value
        offsets: Dict[Residue, Fraction] = {}
        for residue in all_residues(self.dimension - 1, self.period):
            full = list(residue)
            full.insert(index, value)
            offsets[residue] = fixed_contribution + self.offset(full)
        return QuiltAffine(
            new_gradient,
            self.period,
            offsets,
            name=f"{self.name}[x{index + 1}={value}]" if self.name else "",
            validate=False,
        )

    # -- comparisons / display ------------------------------------------------------

    def agrees_with(self, other: Callable[[Sequence[int]], int], points: Iterable[Sequence[int]]) -> bool:
        """True if this function equals ``other`` at every given point."""
        return all(self(x) == int(other(x)) for x in points)

    def dominates(self, other: Callable[[Sequence[int]], int], points: Iterable[Sequence[int]]) -> bool:
        """True if ``g(x) >= other(x)`` at every given point."""
        return all(self.value(x) >= int(other(x)) for x in points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuiltAffine):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        import math

        common = self.period * other.period // math.gcd(self.period, other.period)
        mine = self.with_period(common)
        theirs = other.with_period(common)
        if mine.gradient != theirs.gradient:
            return False
        return all(
            mine.offset(residue) == theirs.offset(residue)
            for residue in all_residues(self.dimension, common)
        )

    def __hash__(self) -> int:
        return hash((self.gradient, self.period, frozenset(self._offsets.items())))

    def __str__(self) -> str:
        gradient = ", ".join(str(g) for g in self.gradient)
        label = self.name or "g"
        return f"{label}(x) = ({gradient})·x + B(x mod {self.period})"

    def __repr__(self) -> str:
        return f"QuiltAffine(gradient={self.gradient}, period={self.period}, name={self.name!r})"

    # -- constructors ------------------------------------------------------------------

    @staticmethod
    def affine(gradient: Sequence, offset=0, name: str = "") -> "QuiltAffine":
        """An affine function viewed as quilt-affine with period 1."""
        gradient = tuple(Fraction(g) for g in gradient)
        return QuiltAffine(gradient, 1, {tuple([0] * len(gradient)): Fraction(offset)}, name=name)

    @staticmethod
    def floor_linear(numerators: Sequence[int], denominator: int, name: str = "") -> "QuiltAffine":
        """The function ``x -> floor((n·x) / denominator)`` as a quilt-affine function.

        For example ``floor_linear([3], 2)`` is the paper's Fig. 3a example
        ``⌊3x/2⌋ = (3/2)x + B(x mod 2)`` with ``B(0)=0, B(1)=-1/2``.
        """
        numerators = tuple(int(v) for v in numerators)
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        if any(v < 0 for v in numerators):
            raise ValueError("numerators must be nonnegative for a nondecreasing function")
        dimension = len(numerators)
        gradient = tuple(Fraction(v, denominator) for v in numerators)
        offsets: Dict[Residue, Fraction] = {}
        for residue in all_residues(dimension, denominator):
            dot = sum(n * r for n, r in zip(numerators, residue))
            offsets[residue] = Fraction(dot // denominator) - Fraction(dot, denominator)
        return QuiltAffine(gradient, denominator, offsets, name=name or "floor_linear")

    @staticmethod
    def from_callable(
        func: Callable[[Sequence[int]], int],
        dimension: int,
        period: int,
        base_point: Sequence[int] = None,
        name: str = "",
    ) -> "QuiltAffine":
        """Recover the quilt-affine representation of a callable known to be quilt-affine.

        Samples the function at ``base_point`` (default the origin) and at
        offsets within one period plus one extra period step per dimension to
        recover the gradient, then fills in the periodic offsets.  Raises
        ``ValueError`` if the samples are inconsistent with a quilt-affine form.
        """
        if base_point is None:
            base_point = tuple([0] * dimension)
        base_point = tuple(int(v) for v in base_point)

        gradient: List[Fraction] = []
        for i in range(dimension):
            step = tuple(
                v + (period if j == i else 0) for j, v in enumerate(base_point)
            )
            gradient.append(Fraction(int(func(step)) - int(func(base_point)), period))
        gradient_tuple = tuple(gradient)

        offsets: Dict[Residue, Fraction] = {}
        for residue in all_residues(dimension, period):
            point = tuple(b + r for b, r in zip(base_point, residue))
            linear = sum(
                (g * Fraction(v) for g, v in zip(gradient_tuple, point)), start=Fraction(0)
            )
            offsets[residue_of(point, period)] = Fraction(int(func(point))) - linear

        candidate = QuiltAffine(gradient_tuple, period, offsets, name=name, validate=False)
        # Consistency check on a small verification grid around the base point.
        for delta in itertools.product(range(2 * period), repeat=dimension):
            point = tuple(b + v for b, v in zip(base_point, delta))
            if candidate(point) != int(func(point)):
                raise ValueError(
                    f"the sampled function is not quilt-affine with period {period} "
                    f"around {base_point} (mismatch at {point})"
                )
        return candidate
