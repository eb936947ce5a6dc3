"""`RunStats` — the uniform per-run counter block shared by every engine.

Before this module existed each stepper hand-rolled its own counters
(``propensity_ops`` on the Gillespie stepper, ``selections`` on the kernel
result, nothing at all for propensity work under tau-leaping).
``RunStats`` is the one shape they all fill in now:

* ``events`` — reaction firings applied to the configuration (equals the
  kernel ``steps`` count: one leap that fires 10^4 reactions is 10^4 events
  under exact semantics but one *selection*);
* ``selections`` — scheduler iterations (draws/leaps).  For exact
  engines ``selections == events``; tau-leaping collapses many events into
  one selection, which is exactly the 293× win the benchmarks track;
* ``propensity_ops`` — individual propensity (or applicability) evaluations,
  the currency the dependency-graph incremental updates save;
* ``rng_draws`` — calls into the underlying ``random.Random`` stream.
  Counted by incrementing plain integers at the draw sites — the stream
  itself is **never** wrapped or touched, so seeded runs stay bit-identical;
* ``wall_s`` — wall-clock seconds for the run (monotonic clock).

The struct is mutable on purpose: steppers increment it in their hot loops,
so attribute stores must be cheap plain-int updates, not dataclass
replacement.  ``to_dict`` gives the JSON shape used by traces and reports.
"""

from __future__ import annotations

from typing import Dict, Union


class RunStats:
    """Mutable counter block for one simulation run (see module docstring)."""

    __slots__ = ("events", "selections", "propensity_ops", "rng_draws", "wall_s")

    def __init__(
        self,
        events: int = 0,
        selections: int = 0,
        propensity_ops: int = 0,
        rng_draws: int = 0,
        wall_s: float = 0.0,
    ) -> None:
        self.events = events
        self.selections = selections
        self.propensity_ops = propensity_ops
        self.rng_draws = rng_draws
        self.wall_s = wall_s

    def merge(self, other: "RunStats") -> "RunStats":
        """Fold ``other`` into this block (multi-trial aggregation)."""
        self.events += other.events
        self.selections += other.selections
        self.propensity_ops += other.propensity_ops
        self.rng_draws += other.rng_draws
        self.wall_s += other.wall_s
        return self

    def to_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "events": int(self.events),
            "selections": int(self.selections),
            "propensity_ops": int(self.propensity_ops),
            "rng_draws": int(self.rng_draws),
            "wall_s": float(self.wall_s),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunStats):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"RunStats(events={self.events}, selections={self.selections}, "
            f"propensity_ops={self.propensity_ops}, rng_draws={self.rng_draws}, "
            f"wall_s={self.wall_s:.6f})"
        )
