"""The event queue at the heart of the simulation.

:class:`Simulator` owns the virtual clock and one priority queue of
scheduled events.  Everything else — timeouts, message deliveries, process
resumptions — is expressed as an :class:`~repro.sim.events.Event` pushed
onto this queue.

Every event belongs to an **event lane**.  The paper treats each entity
group as its own Paxos log, so a deployment can pin every group's replicas
to a lane (see :class:`repro.sim.shard.ShardMap`); a deployment that does
not is simply the one-lane case (``n_lanes == 1``, the default).  Queue
entries are ordered by the canonical merge key ``(time, scheduling lane,
lane-local seq)``: events scheduled for the same instant run in scheduling
order within a lane, which makes runs deterministic regardless of hash
seeds or dict ordering.

This module is the hottest code in the repository — every message hop, think
time, and process resumption passes through :meth:`Simulator.schedule` and
the :meth:`Simulator.run` loop — so it trades a little readability for
allocation- and call-free inner loops: heap entries stay plain tuples
(tuple comparison happens in C, unlike ``Event.__lt__`` would), and ``run``
drains the queue without going through :meth:`step`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Iterable

from repro.errors import SimulationError, SimulationFinished

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.events import Event


class Simulator:
    """A deterministic discrete-event scheduler over one or more lanes.

    The simulator is intentionally dumb: it pops the next event and asks it
    to run its callbacks.  All protocol semantics live in the events and
    processes scheduled onto it.

    Heap entries are ``(time, seq, lane, event)``.  The seq is drawn from
    the counter of the lane whose event performed the scheduling action,
    so the key of every event is a pure function of that lane's
    deterministic local history — never of how lanes happen to
    interleave.  A lane that never schedules into another lane therefore
    executes the same event sequence whichever other lanes share its heap,
    which is what lets the lane-closed fan-out
    (:mod:`repro.harness.shardrun`) run disjoint lane sets in separate
    processes and still match a single-process run field for field.

    :meth:`restrict_lanes` turns an instance into such a fan-out worker: it
    drops the pending events of lanes the worker does not own, and any
    later attempt to schedule into one of them raises
    :class:`~repro.errors.SimulationError` — the run was not lane-closed.
    """

    __slots__ = ("_now", "_queue", "_processed_events", "_seqs", "_lane",
                 "n_lanes", "_owned")

    def __init__(self, n_lanes: int = 1) -> None:
        if n_lanes < 1:
            raise ValueError(f"need at least one lane, got {n_lanes}")
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._processed_events = 0
        self.n_lanes = n_lanes
        #: Lane L's seq counter starts at ``L << 40``, so one int orders
        #: (scheduling lane, lane-local seq) — a lane never schedules 2**40
        #: events.
        self._seqs = [lane << 40 for lane in range(n_lanes)]
        #: Lane of the event being processed; ``None`` outside the run loop
        #: (setup code then schedules into the *target* lane's sequence).
        self._lane: int | None = None
        #: Lanes events may be scheduled into: every lane, unless
        #: :meth:`restrict_lanes` narrowed them.
        self._owned = frozenset(range(n_lanes))

    # ------------------------------------------------------------------
    # Clock and lanes
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics)."""
        return self._processed_events

    @property
    def current_lane(self) -> int:
        """Lane of the event being processed (lane 0 while paused)."""
        return 0 if self._lane is None else self._lane

    @property
    def executing_lane(self) -> int | None:
        """Lane of the event being processed, ``None`` while paused.

        Unlike :attr:`current_lane` this does not collapse the paused state
        to lane 0 — the fault injector uses it to tell a (legal) paused-time
        cross-lane declaration from an (illegal) mid-run one.
        """
        return self._lane

    def restrict_lanes(self, owned: Iterable[int]) -> None:
        """Execute only the *owned* lanes (a fan-out worker).

        Pending events of every other lane are dropped, and scheduling into
        one of them from now on raises :class:`SimulationError`.
        """
        owned = frozenset(owned)
        unknown = owned - set(range(self.n_lanes))
        if unknown:
            raise ValueError(f"cannot own unknown lanes {sorted(unknown)}")
        self._owned = owned
        self._queue[:] = [entry for entry in self._queue if entry[2] in owned]
        heapify(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Schedule *event* ``delay`` ms from now, in the current lane.

        A negative delay is a programming error; the kernel refuses it rather
        than silently reordering the past.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        lane = self._lane
        if lane is None:
            lane = 0
        self._seqs[lane] = seq = self._seqs[lane] + 1
        heappush(self._queue, (self._now + delay, seq, lane, event))

    def schedule_in_lane(self, event: Event, delay: float, lane: int) -> None:
        """Schedule *event* to execute in *lane* (cross-lane deliveries).

        The canonical key is stamped by the scheduling lane — or, at setup
        time between runs, by the target lane, so pre-run spawns into lane
        L are stamped by L alone.  The event runs with
        ``current_lane == lane``.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        if lane not in self._owned:
            if not 0 <= lane < self.n_lanes:
                raise ValueError(f"no lane {lane} (have {self.n_lanes})")
            raise SimulationError(
                f"lane {self.current_lane} scheduled an event into lane "
                f"{lane}, which this worker does not own: the run is not "
                f"lane-closed"
            )
        klane = lane if self._lane is None else self._lane
        self._seqs[klane] = seq = self._seqs[klane] + 1
        heappush(self._queue, (self._now + delay, seq, lane, event))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event.

        Raises :class:`SimulationFinished` if the queue is empty.
        """
        if not self._queue:
            raise SimulationFinished("event queue is empty")
        when, _seq, lane, event = heappop(self._queue)
        self._now = when
        self._lane = lane
        self._processed_events += 1
        try:
            event._process()
        finally:
            self._lane = None

    def run(self, until: float | None = None) -> None:
        """Run until the queue drains or the clock passes *until*.

        When *until* is given, the clock is advanced to exactly *until* even
        if the queue drains earlier, so back-to-back ``run`` calls observe a
        monotone clock.
        """
        if until is not None and until < self._now:
            raise ValueError(f"cannot run backwards: until={until} < now={self._now}")
        queue = self._queue
        processed = 0
        try:
            if until is None:
                while queue:
                    when, _seq, lane, event = heappop(queue)
                    self._now = when
                    self._lane = lane
                    processed += 1
                    event._process()
            else:
                while queue and queue[0][0] <= until:
                    when, _seq, lane, event = heappop(queue)
                    self._now = when
                    self._lane = lane
                    processed += 1
                    event._process()
        finally:
            self._lane = None
            self._processed_events += processed
        if until is not None:
            self._now = until
