"""Polyhedral recession cones and their dimension / containment structure.

A region ``R = {x in R^d_{>=0} : S(Tx - h) >= 0}`` has recession cone
``recc(R) = {y in R^d_{>=0} : S T y >= 0}`` (Definition 7.4 and the remark
after it).  The classification of regions into *determined* (full-dimensional
recession cone) and *under-determined* (lower-dimensional) drives the whole
Section 7 argument; computing cone dimension and cone containment is what this
module does.

Dimension is computed via the standard implicit-equality characterization:
``dim C = d - rank{rows a of the constraint system : a·x = 0 for every x in C}``,
and a row is an implicit equality exactly when the LP ``max a·x`` over the cone
intersected with the unit box has optimum 0.  LPs are solved with
``scipy.optimize.linprog`` (the dimensions involved are tiny).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.geometry.linalg import rational_nullspace, rational_rank


def _solve_lp(c, a_ub, b_ub, bounds):
    """Thin wrapper over scipy linprog (minimization) returning the result object."""
    from scipy.optimize import linprog

    return linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")


class Cone:
    """The polyhedral cone ``{x in R^d_{>=0} : A x >= 0}``.

    ``A`` is a matrix given as a sequence of integer (or rational) rows; the
    nonnegativity constraints ``x >= 0`` are always implied and do not need to
    appear in ``A``.
    """

    def __init__(self, rows: Sequence[Sequence], dimension: int) -> None:
        self.dimension = int(dimension)
        self.rows: List[Tuple[Fraction, ...]] = [
            tuple(Fraction(value) for value in row) for row in rows
        ]
        for row in self.rows:
            if len(row) != self.dimension:
                raise ValueError(
                    f"constraint row {row} has length {len(row)}, expected {self.dimension}"
                )

    # -- membership --------------------------------------------------------------

    def contains(self, vector: Sequence) -> bool:
        """True if ``vector`` is in the cone (exact rational check)."""
        v = tuple(Fraction(value) for value in vector)
        if len(v) != self.dimension:
            raise ValueError("dimension mismatch")
        if any(value < 0 for value in v):
            return False
        return all(
            sum((a * x for a, x in zip(row, v)), start=Fraction(0)) >= 0 for row in self.rows
        )

    # -- constraint system as floats (for LPs) --------------------------------------

    def _all_constraint_rows(self) -> List[List[float]]:
        """All constraints ``a·x >= 0`` including the nonnegativity rows, as floats."""
        rows = [[float(value) for value in row] for row in self.rows]
        for i in range(self.dimension):
            unit = [0.0] * self.dimension
            unit[i] = 1.0
            rows.append(unit)
        return rows

    def _all_constraint_rows_exact(self) -> List[Tuple[Fraction, ...]]:
        rows = list(self.rows)
        for i in range(self.dimension):
            rows.append(
                tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dimension))
            )
        return rows

    # -- structure -----------------------------------------------------------------

    def implicit_equalities(self, tolerance: float = 1e-9) -> List[Tuple[Fraction, ...]]:
        """The constraint rows that hold with equality on the entire cone.

        A row ``a`` is an implicit equality iff ``max a·x`` over the cone
        intersected with the box ``0 <= x <= 1`` is zero.
        """
        constraints = self._all_constraint_rows()
        exact_rows = self._all_constraint_rows_exact()
        # Feasible set for LPs: A x >= 0  <=>  -A x <= 0, plus 0 <= x <= 1.
        a_ub = [[-value for value in row] for row in constraints]
        b_ub = [0.0] * len(constraints)
        bounds = [(0.0, 1.0)] * self.dimension

        implicit: List[Tuple[Fraction, ...]] = []
        for row_floats, row_exact in zip(constraints, exact_rows):
            # maximize row·x  ==  minimize -row·x
            objective = [-value for value in row_floats]
            result = _solve_lp(objective, a_ub, b_ub, bounds)
            maximum = -result.fun if result.status == 0 else 0.0
            if maximum <= tolerance:
                implicit.append(row_exact)
        return implicit

    def dim(self) -> int:
        """The dimension of the cone (of its linear span)."""
        implicit = self.implicit_equalities()
        if not implicit:
            return self.dimension
        return self.dimension - rational_rank(implicit)

    def is_full_dimensional(self) -> bool:
        """True if ``dim == d`` — the defining property of a determined region."""
        return self.dim() == self.dimension

    def span_basis(self) -> List[Tuple[Fraction, ...]]:
        """A basis of ``span(cone)`` (the determined subspace W of Section 7.4)."""
        implicit = self.implicit_equalities()
        return rational_nullspace(implicit, self.dimension)

    def interior_vector(self, scale: int = 1000) -> Optional[Tuple[int, ...]]:
        """An integer vector strictly inside the cone (all constraints strict), if one exists.

        Solves ``max t`` subject to ``A x >= t``, ``x >= t``, ``x <= 1``; if the
        optimum is positive, the optimizer is scaled and rounded to integers,
        then verified exactly.  Returns ``None`` when the cone has empty
        interior (i.e. it is not full-dimensional).
        """
        constraints = self._all_constraint_rows()
        n = self.dimension
        # Variables: x (n of them) and t.  Maximize t.
        # Constraints: -A x + t <= 0  for each row; x <= 1 handled via bounds.
        a_ub = []
        b_ub = []
        for row in constraints:
            a_ub.append([-value for value in row] + [1.0])
            b_ub.append(0.0)
        bounds = [(0.0, 1.0)] * n + [(None, 1.0)]
        objective = [0.0] * n + [-1.0]
        result = _solve_lp(objective, a_ub, b_ub, bounds)
        if result.status != 0 or -result.fun <= 1e-9:
            return None
        x = result.x[:n]
        candidate = tuple(int(round(value * scale)) + 1 for value in x)
        if self.contains(candidate) and self._strictly_inside(candidate):
            return candidate
        # Retry with a larger scale before giving up.
        candidate = tuple(int(round(value * scale * scale)) + 1 for value in x)
        if self.contains(candidate) and self._strictly_inside(candidate):
            return candidate
        return None

    def _strictly_inside(self, vector: Sequence[int]) -> bool:
        v = tuple(Fraction(value) for value in vector)
        if any(value <= 0 for value in v):
            return False
        return all(
            sum((a * x for a, x in zip(row, v)), start=Fraction(0)) > 0 for row in self.rows
        )

    def positive_vector(self) -> Optional[Tuple[int, ...]]:
        """An integer vector in the cone with every coordinate strictly positive, if any.

        This witnesses the *eventual* property of a region (Definition 7.10):
        the region is unbounded in all inputs iff its recession cone contains a
        strictly positive vector.
        """
        constraints = self._all_constraint_rows()
        n = self.dimension
        a_ub = []
        b_ub = []
        for row in constraints:
            a_ub.append([-value for value in row] + [0.0])
            b_ub.append(0.0)
        # x_i >= t for every i.
        for i in range(n):
            row = [0.0] * n
            row[i] = -1.0
            a_ub.append(row + [1.0])
            b_ub.append(0.0)
        bounds = [(0.0, 1.0)] * n + [(None, 1.0)]
        objective = [0.0] * n + [-1.0]
        result = _solve_lp(objective, a_ub, b_ub, bounds)
        if result.status != 0 or -result.fun <= 1e-9:
            return None
        scale = int(2.0 / max(-result.fun, 1e-6)) + 2
        candidate = tuple(max(1, int(round(value * scale))) for value in result.x[:n])
        if self.contains(candidate):
            return candidate
        bigger = tuple(value * 10 for value in candidate)
        return bigger if self.contains(bigger) else None

    def contains_cone(self, other: "Cone", tolerance: float = 1e-9) -> bool:
        """True if ``other ⊆ self`` (used for the neighbor relation, Definition 7.11).

        Checked constraint by constraint: ``other ⊆ self`` iff for every
        constraint ``a·x >= 0`` of ``self``, the minimum of ``a·x`` over
        ``other`` intersected with the unit box is 0 (it cannot be negative).
        """
        if other.dimension != self.dimension:
            raise ValueError("cones live in different dimensions")
        other_constraints = other._all_constraint_rows()
        a_ub = [[-value for value in row] for row in other_constraints]
        b_ub = [0.0] * len(other_constraints)
        bounds = [(0.0, 1.0)] * self.dimension
        for row in self.rows:
            objective = [float(value) for value in row]
            result = _solve_lp(objective, a_ub, b_ub, bounds)
            if result.status != 0:
                return False
            if result.fun < -tolerance:
                return False
        return True

    # -- display -------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cone(dimension={self.dimension}, constraints={len(self.rows)})"
