"""Eventually-min representations: ``f(x) = min_k g_k(x)`` for ``x >= n``.

This is condition (ii) of the paper's main Theorem 5.2.  An
:class:`EventuallyMin` bundles the finitely many quilt-affine pieces together
with the threshold vector ``n`` beyond which the representation is exact, and
provides the verification helpers used by the characterization checker and the
general construction (Lemma 6.2).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.quilt.quilt_affine import QuiltAffine


class EventuallyMin:
    """``min`` of finitely many quilt-affine functions, valid for ``x >= threshold``.

    Parameters
    ----------
    pieces:
        The quilt-affine functions ``g_1, ..., g_m``.
    threshold:
        The vector ``n``; the representation claims ``f(x) = min_k g_k(x)``
        whenever ``x >= n`` componentwise.
    name:
        Optional label.
    """

    def __init__(
        self,
        pieces: Sequence[QuiltAffine],
        threshold: Sequence[int],
        name: str = "",
    ) -> None:
        if not pieces:
            raise ValueError("an eventually-min representation needs at least one piece")
        dims = {g.dimension for g in pieces}
        if len(dims) != 1:
            raise ValueError(f"all quilt-affine pieces must share a dimension, got {dims}")
        self.pieces: Tuple[QuiltAffine, ...] = tuple(pieces)
        self.dimension: int = pieces[0].dimension
        self.threshold: Tuple[int, ...] = tuple(int(v) for v in threshold)
        if len(self.threshold) != self.dimension:
            raise ValueError(
                f"threshold dimension {len(self.threshold)} does not match piece dimension {self.dimension}"
            )
        if any(v < 0 for v in self.threshold):
            raise ValueError("threshold components must be nonnegative")
        self.name = name

    # -- evaluation --------------------------------------------------------------

    def in_eventual_region(self, x: Sequence[int]) -> bool:
        """True if ``x >= threshold`` componentwise."""
        return all(int(v) >= t for v, t in zip(x, self.threshold))

    def value(self, x: Sequence[int]) -> Fraction:
        """The exact rational value ``min_k g_k(x)`` (defined for every x)."""
        return min(g.value(x) for g in self.pieces)

    def __call__(self, x: Sequence[int]) -> int:
        value = self.value(x)
        if value.denominator != 1:
            raise ValueError(f"eventually-min value at {tuple(x)} is not an integer: {value}")
        return int(value)

    def minimizing_piece(self, x: Sequence[int]) -> QuiltAffine:
        """A piece achieving the minimum at ``x``."""
        return min(self.pieces, key=lambda g: g.value(x))

    def common_period(self) -> int:
        """The least common multiple of all piece periods."""
        import math

        period = 1
        for g in self.pieces:
            period = period * g.period // math.gcd(period, g.period)
        return period

    # -- verification ---------------------------------------------------------------

    def eventual_points(self, width: int) -> Iterable[Tuple[int, ...]]:
        """Integer points ``x`` with ``threshold <= x < threshold + width`` componentwise."""
        ranges = [range(t, t + width) for t in self.threshold]
        return itertools.product(*ranges)

    def agrees_with(self, func: Callable[[Sequence[int]], int], width: Optional[int] = None) -> bool:
        """Check ``min_k g_k(x) == func(x)`` on the eventual region, up to ``width`` past the threshold.

        ``width`` defaults to twice the common period plus one so that at least
        two full periods in every direction are covered.
        """
        if width is None:
            width = 2 * self.common_period() + 1
        return all(self(x) == int(func(x)) for x in self.eventual_points(width))

    def dominates(self, func: Callable[[Sequence[int]], int], width: Optional[int] = None) -> bool:
        """Check every piece dominates ``func`` on the eventual region (Lemma 7.9 behaviour)."""
        if width is None:
            width = 2 * self.common_period() + 1
        points = list(self.eventual_points(width))
        return all(g.dominates(func, points) for g in self.pieces)

    def nonnegative_after_translation(self) -> bool:
        """Check that every piece translated by the threshold has nonnegative values.

        This mirrors the observation in the proof of Lemma 6.2 that
        ``g_k(x + n) >= f(x + n) >= 0``, which is what makes the translated
        pieces directly constructible by Lemma 6.1.
        """
        for g in self.pieces:
            translated = g.translate(self.threshold)
            if not translated.has_nonnegative_range_upto(translated.period):
                return False
        return True

    # -- display ----------------------------------------------------------------------

    def __str__(self) -> str:
        label = self.name or "f"
        lines = [f"{label}(x) = min of {len(self.pieces)} quilt-affine pieces for x >= {self.threshold}"]
        for g in self.pieces:
            lines.append(f"  {g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EventuallyMin(pieces={len(self.pieces)}, threshold={self.threshold}, "
            f"name={self.name!r})"
        )
