"""Function specifications: the input to the characterization and constructions.

A :class:`FunctionSpec` wraps a function ``f : N^d -> N`` as a callable plus
whatever structural information is available:

* a semilinear representation (Definition 2.6) — needed by the Section 7
  domain decomposition;
* an eventually-min representation (Theorem 5.2 condition (ii)) — needed by
  the general construction of Lemma 6.2;
* explicit restriction specs for the recursive condition (iii); when absent
  they are derived automatically (by restricting the callable, and by 1D
  fitting or recursive decomposition for their structure);
* a hand-written CRN, when the paper gives one (Fig. 1, Fig. 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crn.network import CRN
from repro.quilt.eventually_min import EventuallyMin
from repro.semilinear.functions import SemilinearFunction


IntPoint = Tuple[int, ...]


@dataclass
class FunctionSpec:
    """A function ``N^d -> N`` plus known structure.

    Attributes
    ----------
    name:
        Human-readable name (used in reports and benchmark output).
    dimension:
        The number of inputs ``d``.
    func:
        The function itself as a callable on integer tuples.
    semilinear:
        Optional explicit semilinear (piecewise-affine) representation.
    eventually_min:
        Optional eventually-min-of-quilt-affine representation (condition (ii)
        of Theorem 5.2).
    known_crn:
        Optional hand-written CRN from the paper that stably computes ``f``.
    restriction_specs:
        Optional explicit specs for the fixed-input restrictions, keyed by
        ``(input index, fixed value)``.
    expected_obliviously_computable:
        Ground-truth label used by tests and benchmarks (None when unknown).
    """

    name: str
    dimension: int
    func: Callable[[Sequence[int]], int]
    semilinear: Optional[SemilinearFunction] = None
    eventually_min: Optional[EventuallyMin] = None
    known_crn: Optional[CRN] = None
    restriction_specs: Dict[Tuple[int, int], "FunctionSpec"] = field(default_factory=dict)
    expected_obliviously_computable: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")

    # -- evaluation -------------------------------------------------------------

    def __call__(self, x: Sequence[int]) -> int:
        x = tuple(int(v) for v in x)
        if len(x) != self.dimension:
            raise ValueError(
                f"{self.name} takes {self.dimension} inputs, got {len(x)}"
            )
        value = int(self.func(x))
        if value < 0:
            raise ValueError(f"{self.name} produced a negative value {value} at {x}")
        return value

    def grid(self, bound: int) -> Iterable[IntPoint]:
        """All integer points with coordinates in ``[0, bound)``."""
        return itertools.product(range(bound), repeat=self.dimension)

    # -- structural checks ----------------------------------------------------------

    def is_nondecreasing_upto(self, bound: int) -> bool:
        """Check the nondecreasing property on all unit steps within the bound."""
        for x in self.grid(bound):
            fx = self(x)
            for i in range(self.dimension):
                step = tuple(v + (1 if j == i else 0) for j, v in enumerate(x))
                if max(step, default=0) < bound and self(step) < fx:
                    return False
        return True

    def is_superadditive_upto(self, bound: int) -> bool:
        """Check superadditivity ``f(x) + f(y) <= f(x + y)`` on the bounded grid."""
        points = list(self.grid(bound))
        for x in points:
            for y in points:
                total = tuple(a + b for a, b in zip(x, y))
                if self(x) + self(y) > self(total):
                    return False
        return True

    def agrees_with_semilinear_upto(self, bound: int) -> bool:
        """Check the callable against the semilinear representation, if present."""
        if self.semilinear is None:
            return True
        return all(self.semilinear(x) == self(x) for x in self.grid(bound))

    def agrees_with_eventually_min(self, width: Optional[int] = None) -> bool:
        """Check the callable against the eventually-min representation, if present."""
        if self.eventually_min is None:
            return True
        return self.eventually_min.agrees_with(self.func, width=width)

    # -- restrictions (condition (iii) of Theorem 5.2) ---------------------------------

    def restricted_callable(self, index: int, value: int) -> Callable[[Sequence[int]], int]:
        """The callable for ``f`` with input ``index`` fixed to ``value``.

        The returned callable takes ``d - 1`` inputs (the remaining coordinates
        in order).
        """
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} out of range for dimension {self.dimension}")
        value = int(value)

        def restricted(y: Sequence[int]) -> int:
            y = tuple(int(v) for v in y)
            if len(y) != self.dimension - 1:
                raise ValueError(
                    f"restriction of {self.name} takes {self.dimension - 1} inputs, got {len(y)}"
                )
            full = list(y[:index]) + [value] + list(y[index:])
            return self(full)

        return restricted

    def restriction(self, index: int, value: int) -> "FunctionSpec":
        """The spec of the fixed-input restriction ``f_[x(i) -> j]``.

        Uses an explicitly provided restriction spec when available, otherwise
        wraps the restricted callable with no extra structure (structure can be
        derived later by fitting / decomposition).
        """
        key = (index, int(value))
        if key in self.restriction_specs:
            return self.restriction_specs[key]
        return FunctionSpec(
            name=f"{self.name}[x{index + 1}={value}]",
            dimension=self.dimension - 1,
            func=self.restricted_callable(index, value),
            expected_obliviously_computable=self.expected_obliviously_computable,
        )

    # -- convenience constructors ---------------------------------------------------------

    @staticmethod
    def from_callable(
        name: str,
        dimension: int,
        func: Callable[[Sequence[int]], int],
        **kwargs,
    ) -> "FunctionSpec":
        """Build a spec from just a callable (structure added via keyword arguments)."""
        return FunctionSpec(name=name, dimension=dimension, func=func, **kwargs)

    def with_eventually_min(self, eventually_min: EventuallyMin) -> "FunctionSpec":
        """A copy of this spec with an eventually-min representation attached."""
        return FunctionSpec(
            name=self.name,
            dimension=self.dimension,
            func=self.func,
            semilinear=self.semilinear,
            eventually_min=eventually_min,
            known_crn=self.known_crn,
            restriction_specs=dict(self.restriction_specs),
            expected_obliviously_computable=self.expected_obliviously_computable,
        )

    def __repr__(self) -> str:
        structure = []
        if self.semilinear is not None:
            structure.append("semilinear")
        if self.eventually_min is not None:
            structure.append("eventually-min")
        if self.known_crn is not None:
            structure.append("known-CRN")
        return f"FunctionSpec({self.name!r}, d={self.dimension}, structure={structure})"
