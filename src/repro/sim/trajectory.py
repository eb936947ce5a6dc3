"""Trajectory recording for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crn.configuration import Configuration
from repro.crn.species import Species


@dataclass(frozen=True)
class TrajectoryPoint:
    """A single sampled point of a simulation trajectory."""

    time: float
    """Simulated time (Gillespie) or step index (fair scheduler)."""

    step: int
    """Number of reactions fired so far."""

    counts: Dict[Species, int]
    """Counts of the tracked species at this point."""


class Trajectory:
    """A time series of species counts recorded during a simulation run.

    Only the species passed as ``tracked`` are recorded (tracking everything is
    possible by passing the full species tuple, at a memory cost).
    """

    def __init__(self, tracked: Sequence[Species]) -> None:
        self._tracked: Tuple[Species, ...] = tuple(tracked)
        self._points: List[TrajectoryPoint] = []

    def record(self, time: float, step: int, config: Configuration) -> None:
        """Append a sample of the tracked species at the given time/step."""
        self._points.append(
            TrajectoryPoint(time=time, step=step, counts={sp: config[sp] for sp in self._tracked})
        )

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> TrajectoryPoint:
        return self._points[index]

    def times(self) -> List[float]:
        """All sample times."""
        return [p.time for p in self._points]

    def counts_of(self, sp: Species) -> List[int]:
        """The time series of counts of one tracked species."""
        if sp not in self._tracked:
            raise KeyError(f"species {sp.name} is not tracked by this trajectory")
        return [p.counts[sp] for p in self._points]

    def final(self) -> Optional[TrajectoryPoint]:
        """The last recorded point, or ``None`` if empty."""
        return self._points[-1] if self._points else None

    def max_count_of(self, sp: Species) -> int:
        """The maximum recorded count of ``sp`` (0 if never recorded)."""
        if sp not in self._tracked:
            raise KeyError(f"species {sp.name} is not tracked by this trajectory")
        return max((p.counts[sp] for p in self._points), default=0)

    def as_dict(self) -> Dict[str, List[int]]:
        """The trajectory as ``{species name: list of counts}`` plus ``"time"``."""
        out: Dict[str, List] = {"time": self.times()}
        for sp in self._tracked:
            out[sp.name] = self.counts_of(sp)
        return out
