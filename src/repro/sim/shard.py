"""Shard (lane) assignment for lane-partitioned deployments.

The paper's core structural claim — entity groups are independent units of
concurrency control — is what the lane-closed fan-out exploits: every
entity group's replicas (its per-datacenter service endpoints and store
partition) are pinned to one **event lane**, while actors that span groups
(unpinned clients, 2PC coordinators and their decision instances, ad-hoc
groups outside the placement) live on the shared lane 0.  The
:class:`ShardMap` owns that assignment plus the lane-aware node-name scheme.

With ``shards <= 1`` everything collapses to one lane and the historic node
names (``svc:V1``, ``store:V1``), so single-lane deployments are untouched.
"""

from __future__ import annotations

from typing import Sequence

#: The lane shared by clients, coordinators, decision groups, and any group
#: outside the deployment placement.
SHARED_LANE = 0


def service_node_name(datacenter: str, lane: int = SHARED_LANE) -> str:
    """Canonical node name of the Transaction Service for one lane."""
    if lane == SHARED_LANE:
        return f"svc:{datacenter}"
    return f"svc:{datacenter}:{lane}"


def store_name(datacenter: str, lane: int = SHARED_LANE) -> str:
    """Canonical name of one lane's key-value store partition."""
    if lane == SHARED_LANE:
        return f"store:{datacenter}"
    return f"store:{datacenter}:{lane}"


class ShardMap:
    """Maps entity groups to event lanes.

    ``shards`` group lanes (1..shards) carve the placement's groups into
    contiguous blocks; lane 0 is shared.  Groups the map does not know
    (2PC decision instances, ad-hoc preloads) route to the shared lane.
    """

    def __init__(self, groups: Sequence[str], shards: int = 1) -> None:
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        groups = list(groups)
        if shards > 1 and not groups:
            raise ValueError("a multi-shard map needs the placement's groups")
        self.shards = max(1, min(shards, len(groups) or 1))
        self.single_lane = self.shards <= 1
        self.n_lanes = 1 if self.single_lane else self.shards + 1
        self._lanes: dict[str, int] = {}
        if not self.single_lane:
            for index, group in enumerate(groups):
                self._lanes[group] = 1 + (index * self.shards) // len(groups)

    @classmethod
    def single(cls) -> "ShardMap":
        """The degenerate one-lane map (every pre-shard deployment)."""
        return cls((), 1)

    def lane_of(self, group: str) -> int:
        """The event lane of *group* (shared lane for unknown groups)."""
        return self._lanes.get(group, SHARED_LANE)

    def groups_in(self, lane: int) -> tuple[str, ...]:
        """Every placement group assigned to *lane*, in placement order."""
        return tuple(g for g, l in self._lanes.items() if l == lane)

    @property
    def group_lanes(self) -> tuple[int, ...]:
        """The non-shared lanes (empty on a single-lane map)."""
        return tuple(range(1, self.n_lanes))

    # ------------------------------------------------------------------
    # Node naming / routing
    # ------------------------------------------------------------------

    def service_name(self, datacenter: str, group: str) -> str:
        """The service node that owns *group*'s log in *datacenter*."""
        return service_node_name(datacenter, self.lane_of(group))

    def ordered_service_names(
        self, datacenters: Sequence[str], local: str, group: str
    ) -> list[str]:
        """All of *group*'s service replicas, the local datacenter first.

        The canonical failover/proposal order every client-like actor uses
        (see :func:`repro.core.service.ordered_service_names`, which this
        generalizes per group).
        """
        lane = self.lane_of(group)
        ordered = [local] + [dc for dc in datacenters if dc != local]
        return [service_node_name(dc, lane) for dc in ordered]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap(shards={self.shards}, n_lanes={self.n_lanes})"
