"""Unit tests for the lane-partitioned kernel and the shard map.

The integration-level contract (field-identical metrics across engines) is
covered by tests/harness/test_shard_digest.py; these tests pin the kernel
mechanics: canonical ordering, and the lane restriction a fan-out worker
runs under.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.env import Environment
from repro.sim.events import Notification
from repro.sim.shard import ShardMap, service_node_name, store_name


def laned_env(lanes: int) -> Environment:
    return Environment(seed=1, lanes=lanes)


class Poke(Notification):
    """A bare event that records its lane and time when processed."""

    __slots__ = ("log",)

    def __init__(self, env: Environment, log: list) -> None:
        super().__init__(env)
        self.log = log

    def _process(self) -> None:
        self.log.append((self.env.sim.current_lane, self.env.now))


class TestShardMap:
    def test_single_lane_collapse(self):
        shard_map = ShardMap(("group-0", "group-1"), 1)
        assert shard_map.single_lane
        assert shard_map.n_lanes == 1
        assert shard_map.lane_of("group-0") == 0
        assert shard_map.lane_of("anything") == 0

    def test_contiguous_blocks(self):
        groups = tuple(f"group-{i}" for i in range(8))
        shard_map = ShardMap(groups, 4)
        assert shard_map.n_lanes == 5
        lanes = [shard_map.lane_of(g) for g in groups]
        assert lanes == [1, 1, 2, 2, 3, 3, 4, 4]
        # Unknown groups (2PC decision instances, ad-hoc preloads) share lane 0.
        assert shard_map.lane_of("_txn/whatever") == 0

    def test_shards_capped_by_groups(self):
        shard_map = ShardMap(("group-0", "group-1"), 8)
        assert shard_map.shards == 2

    def test_node_names(self):
        assert service_node_name("V1", 0) == "svc:V1"
        assert service_node_name("V1", 3) == "svc:V1:3"
        assert store_name("V1", 0) == "store:V1"
        assert store_name("V1", 3) == "store:V1:3"

    def test_ordered_service_names_routes_by_lane(self):
        groups = tuple(f"group-{i}" for i in range(4))
        shard_map = ShardMap(groups, 2)
        names = shard_map.ordered_service_names(
            ["V1", "V2", "V3"], "V2", "group-3"
        )
        assert names == ["svc:V2:2", "svc:V1:2", "svc:V3:2"]


class TestLanedSimulator:
    def test_canonical_order_is_time_lane_seq(self):
        env = laned_env(3)
        order = []
        env.timeout(5.0, lane=2).add_callback(lambda e: order.append("l2"))
        env.timeout(5.0, lane=1).add_callback(lambda e: order.append("l1"))
        env.timeout(3.0, lane=2).add_callback(lambda e: order.append("early"))
        env.run()
        assert order == ["early", "l1", "l2"]

    def test_per_lane_seq_breaks_same_lane_ties(self):
        env = laned_env(2)
        order = []
        env.timeout(1.0, lane=1).add_callback(lambda e: order.append("first"))
        env.timeout(1.0, lane=1).add_callback(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_single_lane_matches_plain_kernel(self):
        def chain(env, log, tag):
            for _ in range(3):
                yield env.timeout(1.0)
                log.append((tag, env.now))

        logs = []
        for build in (lambda: Environment(seed=1),
                      lambda: laned_env(1)):
            env = build()
            log: list = []
            env.process(chain(env, log, "a"))
            env.process(chain(env, log, "b"))
            env.run()
            logs.append(log)
        assert logs[0] == logs[1]

    def test_run_until_advances_clock_per_lane(self):
        env = laned_env(2)
        fired = []
        env.timeout(4.0, lane=1).add_callback(lambda e: fired.append(env.now))
        env.run(until=2.0)
        assert fired == [] and env.now == 2.0
        env.run(until=10.0)
        assert fired == [4.0] and env.now == 10.0


class TestLaneRestriction:
    """``restrict_lanes``: the kernel a lane-closed fan-out worker runs."""

    @staticmethod
    def chains(env: Environment, log: list, lanes) -> None:
        def chain(env, lane):
            for _ in range(4):
                yield env.timeout(1.0 + lane / 10)
                log.append((lane, env.now))

        for lane in lanes:
            env.process(chain(env, lane), lane=lane)

    def test_unowned_lanes_never_run(self):
        env = laned_env(3)
        log: list = []
        self.chains(env, log, (0, 1, 2))
        env.sim.restrict_lanes({1})
        env.run()
        assert {lane for lane, _now in log} == {1}

    def test_owned_lanes_match_the_unrestricted_run(self):
        full: list = []
        env = laned_env(4)
        self.chains(env, full, (0, 1, 2, 3))
        env.run()
        for owned in ({0, 2}, {1, 3}):
            part: list = []
            env = laned_env(4)
            self.chains(env, part, (0, 1, 2, 3))
            env.sim.restrict_lanes(owned)
            env.run()
            assert part == [entry for entry in full if entry[0] in owned]

    def test_scheduling_into_an_unowned_lane_raises(self):
        env = laned_env(3)
        log: list = []

        def offender(env):
            yield env.timeout(1.0)
            env.sim.schedule_in_lane(Poke(env, log), 0.5, 2)

        env.process(offender(env), lane=1)
        env.sim.restrict_lanes({0, 1})
        with pytest.raises(SimulationError, match="not lane-closed"):
            env.run()
        assert log == []

    def test_owned_cross_lane_scheduling_is_allowed(self):
        env = laned_env(3)
        log: list = []

        def sender(env):
            yield env.timeout(1.0)
            env.sim.schedule_in_lane(Poke(env, log), 0.5, 0)

        env.process(sender(env), lane=1)
        env.sim.restrict_lanes({0, 1})
        env.run()
        assert log == [(0, 1.5)]

    def test_unknown_lane_rejected(self):
        env = laned_env(2)
        with pytest.raises(ValueError, match="unknown lanes"):
            env.sim.restrict_lanes({0, 5})
        with pytest.raises(ValueError, match="no lane 5"):
            env.sim.schedule_in_lane(Poke(env, []), 0.0, 5)
