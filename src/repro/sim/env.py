"""The :class:`Environment` facade tying the kernel pieces together.

An ``Environment`` owns one simulation kernel, one
:class:`~repro.sim.rng.RngRegistry`, and provides the factory methods
processes use: :meth:`timeout`, :meth:`event`, :meth:`process`,
:meth:`any_of`, :meth:`all_of`.

Single-lane environments (the default) run on the classic
:class:`~repro.sim.core.Simulator`; lane-partitioned deployments pass
``lanes > 1`` and run on :class:`~repro.sim.core.LanedSimulator`.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.core import LanedSimulator, Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


class Environment:
    """One simulated world: a clock, an event queue, and seeded randomness."""

    def __init__(self, seed: int = 0, lanes: int = 1) -> None:
        self.sim: Simulator = Simulator() if lanes <= 1 else LanedSimulator(lanes)
        self.rng = RngRegistry(seed)
        self.seed = seed

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.sim.now

    @property
    def lane_count(self) -> int:
        """Number of event lanes (1 outside lane-partitioned deployments)."""
        return self.sim.n_lanes

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                lane: int | None = None) -> Timeout:
        """An event that fires ``delay`` ms from now with ``value``.

        ``lane`` pins the firing to a specific event lane (used by the
        replicated fault injector); the default fires in the ambient lane.
        """
        if lane is None:
            # Positional, branch-free construction: this is the hottest
            # factory in the simulation (think times, deadlines, backoffs).
            return Timeout(self, delay, value)
        return Timeout(self, delay, value, lane)

    def timeout_until(self, when: float, value: Any = None) -> Timeout:
        """An event that fires at absolute sim time ``when`` (now if past).

        The open-loop arrival scheduler thinks in absolute arrival times;
        this keeps the clamping in one place.
        """
        return self.timeout(max(0.0, when - self.sim.now), value)

    def process(self, generator: Generator, name: str | None = None,
                lane: int | None = None) -> Process:
        """Spawn a process driving *generator*; returns the process event.

        ``lane`` places the process in a specific event lane (workload
        threads pinned to an entity group run in that group's lane); by
        default it inherits the lane of the event being processed.
        """
        return Process(self, generator, name=name, lane=lane)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Fires when any of *events* fires."""
        return AnyOf(self, events)

    def all_of(self, events: list[Event]) -> AllOf:
        """Fires when all of *events* have fired."""
        return AllOf(self, events)
