"""Nodes: endpoints with typed handlers and quorum gathering.

A :class:`Node` is anything that sends or receives messages — a Transaction
Client or a Transaction Service.  Incoming requests dispatch to handlers
registered per message type; handlers may be plain functions (instantaneous)
or generators (simulation processes, e.g. a service that must touch its
key-value store before answering).

Outgoing requests use :class:`Gather`, which implements the vote-collection
discipline of Algorithm 2: broadcast to all datacenters, then wait until

* every destination answered, or
* a caller-supplied quorum predicate holds **and** a short *grace* window has
  passed (the paper notes that "in practice, when a Transaction Client sends
  a prepare message, it will receive responses from more than a simple
  majority" — the grace window is how the simulation reproduces that), or
* the loss-detection timeout (2 s in the paper) expires.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.net.message import Message
from repro.sim.events import Event, Notification

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.env import Environment

Handler = Callable[[Message], Any]


class _Deadline(Notification):
    """Fires a :class:`Gather`'s loss-detection timeout.

    A dedicated event (rather than a ``Timeout`` plus a closure) because one
    is scheduled per outgoing request — this is the second-hottest allocation
    site after message delivery.
    """

    __slots__ = ("_gather",)

    def __init__(self, env: "Environment", gather: "Gather", delay: float) -> None:
        super().__init__(env)
        self._gather = gather
        env.sim.schedule(self, delay)

    def _process(self) -> None:
        self._gather._finish()


class Gather(Event):
    """Collects responses to a broadcast until a completion rule fires.

    The event's value is the list of response :class:`Message` envelopes
    received so far (possibly fewer than a quorum — callers must check).
    """

    __slots__ = ("responses", "_expected", "_enough", "_grace_ms",
                 "_grace_armed", "_done", "_answered")

    def __init__(
        self,
        env: "Environment",
        expected: int,
        enough: Callable[[list[Message]], bool] | None,
        timeout_ms: float,
        grace_ms: float,
    ) -> None:
        super().__init__(env)
        self.responses: list[Message] = []
        self._expected = expected
        self._enough = enough
        self._grace_ms = grace_ms
        self._grace_armed = False
        self._done = False
        self._answered: set[str] = set()
        _Deadline(env, self, timeout_ms)

    def add(self, response: Message) -> None:
        """Record one response; may complete the gather.

        At most one response per source counts: the network may duplicate
        messages (UDP), and a duplicated LAST VOTE must not count as two
        votes toward a quorum.
        """
        if self._done:
            return
        if response.src in self._answered:
            return
        self._answered.add(response.src)
        self.responses.append(response)
        if len(self.responses) >= self._expected:
            self._finish()
            return
        if self._enough is not None and not self._grace_armed and self._enough(self.responses):
            if self._grace_ms <= 0:
                self._finish()
                return
            self._grace_armed = True
            _Deadline(self.env, self, self._grace_ms)

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        self.succeed(list(self.responses))


class Node:
    """A named endpoint attached to a datacenter.

    ``lane`` is the node's event-lane affinity on a lane-partitioned
    deployment (an entity group's shard, or the shared lane 0); every event
    a node's handlers schedule stays in its lane, and only network messages
    cross lanes.  All per-node counters (request ids, learner identities)
    are therefore lane-local, which the laned kernel's determinism argument
    relies on.
    """

    def __init__(self, env: "Environment", network: "Network", name: str,
                 datacenter: str, lane: int = 0) -> None:
        self.env = env
        self.network = network
        self.name = name
        self.datacenter = datacenter
        self.lane = lane
        self.down = False
        self._handlers: dict[str, Handler] = {}
        self._pending: dict[int, Gather] = {}
        self._request_ids = count(1)
        self._learner_ids = count(1)
        #: Live handler processes, tracked only when :meth:`track_processes`
        #: armed it (crash-fault targets); ``None`` keeps delivery tracking-
        #: free.  An insertion-ordered dict, not a set: kill order must be
        #: deterministic, and set iteration over objects is id-hash order.
        self._procs: "dict[Any, None] | None" = None
        network.register(self)

    def track_processes(self) -> None:
        """Track spawned handler processes so a crash can kill them."""
        if self._procs is None:
            self._procs = {}

    def kill_tracked(self, reason: str) -> int:
        """Kill every live tracked handler process, in spawn order."""
        if not self._procs:
            return 0
        victims = list(self._procs)
        self._procs.clear()
        for process in victims:
            process.kill(reason)
        return len(victims)

    def adopt(self, process) -> None:
        """Track an externally spawned process (e.g. restart recovery work)
        so :meth:`kill_tracked` reaches it; no-op unless tracking is armed."""
        if self._procs is None:
            return
        self._procs[process] = None
        process.add_callback(
            lambda event, p=process: (
                self._procs.pop(p, None) if self._procs is not None else None
            )
        )

    def next_learner_id(self) -> int:
        """Monotone per-node id for catch-up proposer identities.

        Node-local rather than process-global so two lanes constructing
        learners concurrently draw independent sequences (a global counter's
        values would depend on cross-lane interleaving).
        """
        return next(self._learner_ids)

    # ------------------------------------------------------------------
    # Handler registration
    # ------------------------------------------------------------------

    def on(self, msg_type: str, handler: Handler) -> None:
        """Register *handler* for messages of *msg_type*.

        The handler receives the :class:`Message` envelope.  If it returns a
        generator, the generator runs as a process and its return value is
        the reply; otherwise the return value itself is the reply.  Replies
        are only sent for messages carrying a ``request_id``.
        """
        if msg_type in self._handlers:
            raise ValueError(f"{self.name}: handler for {msg_type!r} already registered")
        self._handlers[msg_type] = handler

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, dst: str, msg_type: str, payload: Any = None) -> None:
        """Fire-and-forget message (the APPLY phase uses this)."""
        self.network.send(Message(src=self.name, dst=dst, type=msg_type, payload=payload))

    def request_many(
        self,
        dsts: list[str],
        msg_type: str,
        payload: Any = None,
        enough: Callable[[list[Message]], bool] | None = None,
        timeout_ms: float = 2000.0,
        grace_ms: float = 0.0,
        payload_for: Callable[[str], Any] | None = None,
    ) -> Gather:
        """Broadcast a request and return a :class:`Gather` for the replies.

        ``payload_for`` lets the caller customize the payload per destination
        (unused by the core protocols but handy in tests).
        """
        gather = Gather(self.env, expected=len(dsts), enough=enough,
                        timeout_ms=timeout_ms, grace_ms=grace_ms)
        request_id = next(self._request_ids)
        self._pending[request_id] = gather
        gather.add_callback(lambda _e: self._pending.pop(request_id, None))
        for dst in dsts:
            body = payload if payload_for is None else payload_for(dst)
            self.network.send(Message(
                src=self.name, dst=dst, type=msg_type, payload=body,
                request_id=request_id,
            ))
        return gather

    def request(self, dst: str, msg_type: str, payload: Any = None,
                timeout_ms: float = 2000.0) -> Gather:
        """Single-destination request; the gather completes on first reply."""
        return self.request_many([dst], msg_type, payload, enough=None,
                                 timeout_ms=timeout_ms)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Entry point called by the network.  Not for direct use."""
        if msg.is_response:
            gather = self._pending.get(msg.request_id)
            if gather is not None:
                gather.add(msg)
            return
        handler = self._handlers.get(msg.type)
        if handler is None:
            return  # unknown messages are dropped, as UDP would
        result = handler(msg)
        if isinstance(result, Generator):
            process = self.env.process(result, name=f"{self.name}:{msg.type}")
            self.adopt(process)
            if msg.request_id is not None:
                process.add_callback(lambda event: self._on_handler_done(msg, event))
        elif msg.request_id is not None:
            self._reply(msg, result)

    def _on_handler_done(self, request: Message, event: Event) -> None:
        if not event.ok:
            # A crashed handler must not masquerade as a reply; surface the
            # error through the simulation loop instead.
            raise event.value
        self._reply(request, event.value)

    def _reply(self, request: Message, payload: Any) -> None:
        if self.down:
            return
        self.network.send(request.reply(payload))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} @ {self.datacenter}{' DOWN' if self.down else ''}>"
