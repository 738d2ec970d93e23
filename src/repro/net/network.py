"""Unreliable unicast between nodes (UDP semantics).

Messages are delivered after a model-drawn one-way delay, or silently lost:
with Bernoulli probability ``loss_probability``, when either endpoint's
datacenter is down, or when the link between the two datacenters is severed.
There are no ordering or duplication guarantees — reordering arises naturally
from jittered delays.

The fault injector (:mod:`repro.failures`) manipulates the outage state; the
network itself only consults it.

**Lane affinity.**  On a lane-partitioned deployment every node carries a
lane (its entity-group shard, or the shared lane), and the network is the
*only* cross-lane channel: a delivery whose destination sits in another lane
is scheduled through the kernel's cross-lane path.  Everything lane-scoped —
the jitter/loss RNG stream, the outage and partition views, the
loss-probability overrides — is kept per lane, so a lane's behaviour is a
function of its own history only; that independence is what lets the
lane-closed fan-out run lanes in separate processes and still match the
single-process run bit for bit.  Single-lane deployments collapse to the
pre-lane behaviour exactly (same stream names, same state objects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import UnknownDatacenter
from repro.net.latency import LatencyModel
from repro.net.message import Message
from repro.net.topology import Topology
from repro.sim.events import Notification

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.env import Environment


class _Delivery(Notification):
    """A scheduled message arrival.

    The hot path used to build a :class:`~repro.sim.events.Timeout` plus a
    closure per message; this event carries the message directly and skips
    the callback machinery entirely — nothing ever waits on a delivery.
    """

    __slots__ = ("_network", "_msg", "_dst")

    def __init__(self, env: "Environment", network: "Network",
                 msg: Message, dst: "Node") -> None:
        super().__init__(env)
        self._network = network
        self._msg = msg
        self._dst = dst

    def _process(self) -> None:
        self._network._deliver(self._msg, self._dst)


@dataclass
class NetworkStats:
    """Counters the tests and benchmarks read after a run."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_outage: int = 0
    dropped_partition: int = 0
    duplicated: int = 0
    by_type: dict[str, int] = field(default_factory=dict)

    def record_send(self, msg_type: str) -> None:
        self.sent += 1
        self.by_type[msg_type] = self.by_type.get(msg_type, 0) + 1

    def absorb(self, other: "NetworkStats") -> None:
        """Fold a worker process's counters into this one."""
        self.sent += other.sent
        self.delivered += other.delivered
        self.dropped_loss += other.dropped_loss
        self.dropped_outage += other.dropped_outage
        self.dropped_partition += other.dropped_partition
        self.duplicated += other.duplicated
        for msg_type, count in other.by_type.items():
            self.by_type[msg_type] = self.by_type.get(msg_type, 0) + count

    @property
    def dropped(self) -> int:
        return self.dropped_loss + self.dropped_outage + self.dropped_partition


class Network:
    """The message fabric connecting every node in the deployment."""

    def __init__(
        self,
        env: "Environment",
        topology: Topology,
        latency: LatencyModel,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(f"loss probability must be in [0, 1), got {loss_probability}")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(
                f"duplicate probability must be in [0, 1), got {duplicate_probability}"
            )
        self.env = env
        self.topology = topology
        self.latency = latency
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        self.stats = NetworkStats()
        self._nodes: dict[str, Node] = {}
        n_lanes = env.lane_count
        #: Per-lane fault views.  Lane 0's sets are also reachable through
        #: the legacy names so single-lane tests and tools see no change.
        self._down_views: list[set[str]] = [set() for _ in range(n_lanes)]
        self._severed_views: list[set[frozenset[str]]] = [
            set() for _ in range(n_lanes)
        ]
        self._down_datacenters = self._down_views[0]
        self._severed_links = self._severed_views[0]
        #: Per-lane loss overrides (the replicated injector's loss episodes
        #: set these; absent lanes fall back to the scalar attribute above).
        #: Duplication has no per-lane episode, so it stays a plain scalar.
        self._lane_loss: dict[int, float] = {}
        #: Per-lane jitter/loss RNG streams.  Lane 0 keeps the historic
        #: ``"net"`` name so single-lane runs reproduce existing streams.
        self._rngs = [
            env.rng.stream("net" if lane == 0 else f"net.l{lane}")
            for lane in range(n_lanes)
        ]
        self._rng = self._rngs[0]
        #: Single-lane deployments take a branch-free send path with none
        #: of the per-lane indexing (send is the network's hottest method).
        self._single_lane = n_lanes == 1

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Attach a node; its name must be unique in this network."""
        if node.name in self._nodes:
            raise ValueError(f"node name {node.name!r} already registered")
        self.topology.get(node.datacenter)  # validates the datacenter exists
        if not 0 <= node.lane < self.env.lane_count:
            raise ValueError(
                f"node {node.name!r} assigned to lane {node.lane}, but the "
                f"environment has {self.env.lane_count} lane(s)"
            )
        self._nodes[node.name] = node

    def node(self, name: str) -> "Node":
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownDatacenter(f"no node named {name!r}") from None

    # ------------------------------------------------------------------
    # Failure control (driven by repro.failures)
    # ------------------------------------------------------------------

    def _views_for(self, lane: int | None) -> range:
        return range(self.env.lane_count) if lane is None else range(lane, lane + 1)

    def take_down(self, datacenter: str, lane: int | None = None) -> None:
        """Stop all delivery to and from *datacenter*.

        ``lane`` scopes the state change to one lane's view (the replicated
        injector applies the same outage once per lane, each from that
        lane's own timeline); the default mutates every view at once, which
        is only safe outside a sharded run.
        """
        self.topology.get(datacenter)
        for view in self._views_for(lane):
            self._down_views[view].add(datacenter)

    def bring_up(self, datacenter: str, lane: int | None = None) -> None:
        """Restore delivery for *datacenter*."""
        for view in self._views_for(lane):
            self._down_views[view].discard(datacenter)

    def is_down(self, datacenter: str, lane: int = 0) -> bool:
        return datacenter in self._down_views[lane]

    def sever(self, dc_a: str, dc_b: str, lane: int | None = None) -> None:
        """Cut the link between two datacenters (both directions)."""
        self.topology.get(dc_a)
        self.topology.get(dc_b)
        for view in self._views_for(lane):
            self._severed_views[view].add(frozenset({dc_a, dc_b}))

    def heal(self, dc_a: str, dc_b: str, lane: int | None = None) -> None:
        """Restore the link between two datacenters."""
        for view in self._views_for(lane):
            self._severed_views[view].discard(frozenset({dc_a, dc_b}))

    def set_loss(self, probability: float, lane: int | None = None) -> None:
        """Set the Bernoulli loss rate (optionally for one lane's traffic)."""
        if lane is None:
            self.loss_probability = probability
            self._lane_loss.clear()
        else:
            self._lane_loss[lane] = probability

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Submit *msg* for (unreliable) delivery."""
        self.stats.record_send(msg.type)
        dst = self._nodes.get(msg.dst)
        if dst is None:
            raise UnknownDatacenter(f"message to unknown node {msg.dst!r}")
        src = self._nodes.get(msg.src)
        src_dc = src.datacenter if src is not None else msg.src
        dst_dc = dst.datacenter
        if self._single_lane:
            # The pre-lane hot path, byte for byte: one outage set, one
            # severed set, one RNG stream, scalar loss/duplication.
            if self._down_datacenters and (
                src_dc in self._down_datacenters
                or dst_dc in self._down_datacenters
            ):
                self.stats.dropped_outage += 1
                return
            if self._severed_links and \
                    frozenset({src_dc, dst_dc}) in self._severed_links:
                self.stats.dropped_partition += 1
                return
            rng = self._rng
            if self.loss_probability and rng.random() < self.loss_probability:
                self.stats.dropped_loss += 1
                return
            copies = 1
            if self.duplicate_probability and \
                    rng.random() < self.duplicate_probability:
                # UDP may duplicate; the copy re-draws its path delay.
                copies = 2
                self.stats.duplicated += 1
            env = self.env
            one_way_delay = self.latency.one_way_delay
            sim_schedule = env.sim.schedule
            for _copy in range(copies):
                delay = one_way_delay(src_dc, dst_dc, rng)
                sim_schedule(_Delivery(env, self, msg, dst), delay)
            return
        lane = src.lane if src is not None else self.env.sim.current_lane
        down = self._down_views[lane]
        if down and (src_dc in down or dst_dc in down):
            self.stats.dropped_outage += 1
            return
        severed = self._severed_views[lane]
        if severed and frozenset({src_dc, dst_dc}) in severed:
            self.stats.dropped_partition += 1
            return
        rng = self._rngs[lane]
        loss = self._lane_loss.get(lane, self.loss_probability) \
            if self._lane_loss else self.loss_probability
        if loss and rng.random() < loss:
            self.stats.dropped_loss += 1
            return
        duplicate = self.duplicate_probability
        copies = 1
        if duplicate and rng.random() < duplicate:
            # UDP may duplicate; the copy takes its own (re-drawn) path delay.
            copies = 2
            self.stats.duplicated += 1
        env = self.env
        one_way_delay = self.latency.one_way_delay
        dst_lane = dst.lane
        if dst_lane == lane:
            sim_schedule = env.sim.schedule
            for _copy in range(copies):
                delay = one_way_delay(src_dc, dst_dc, rng)
                sim_schedule(_Delivery(env, self, msg, dst), delay)
            return
        for _copy in range(copies):
            delay = one_way_delay(src_dc, dst_dc, rng)
            env.sim.schedule_in_lane(
                _Delivery(env, self, msg, dst), delay, dst_lane,
            )

    def _deliver(self, msg: Message, dst: "Node") -> None:
        # Re-check outage state at delivery time: a datacenter that went down
        # while the message was in flight does not receive it.
        if dst.datacenter in self._down_views[dst.lane] or dst.down:
            self.stats.dropped_outage += 1
            return
        self.stats.delivered += 1
        dst.deliver(msg)
