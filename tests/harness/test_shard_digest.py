"""Digest equality: the ``sharded-mp`` engine against the ``global`` engine.

The engine contract is *bit-identical execution*: for a fixed deployment
layout (``shards``), ``sharded-mp`` must produce field-identical metrics to
``global``.  A lane-closed spec (pinned threads, no 2PC or queue traffic)
gets there by fanning its lanes out over worker processes; every other spec
runs in-process and must spawn nothing.  This module sweeps that contract
over seeds × protocols × 2PC/queue mixes × fault injection × shard counts
(1, 4, n_groups).

Workloads are sized for CI; the full-scale equivalent runs in the
benchmarks (bench_groups_scaling --sharded64 asserts the same digests at 64
groups).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PartitionWindow,
    PlacementConfig,
    WorkloadConfig,
)
from repro.errors import SimulationError
from repro.harness.experiment import ExperimentSpec, prepare_run, run_once
from repro.harness.parallel import metrics_digest
from repro.harness.shardrun import run_once_sharded_mp

N_GROUPS = 6
SHARD_COUNTS = (1, 4, N_GROUPS)

#: Outage, partition, loss window and a replica crash-restart, all inside
#: the first few seconds of the short CI runs.
FAULTS = FaultScheduleConfig(
    outages=(OutageWindow("V2", 400.0, 500.0),),
    partitions=(PartitionWindow("V1", "V3", 1500.0, 700.0),),
    loss_windows=(LossWindow(0.05, 2500.0, 600.0),),
    crashes=(CrashWindow("V3", 1000.0, 800.0),),
)

SCENARIOS = {
    "basic": ("paxos", dict()),
    "2pc": ("paxos-cp", dict(cross_group_fraction=0.25)),
    "queues": ("paxos-cp", dict(queue_fraction=0.25)),
}


def base_spec(engine: str, shards: int, protocol: str = "paxos-cp",
              faults: FaultScheduleConfig = FaultScheduleConfig(),
              shard_workers: int | None = 2, **workload) -> ExperimentSpec:
    defaults = dict(
        n_transactions=36, n_rows=N_GROUPS, n_threads=4,
        target_rate_per_thread=4.0,
    )
    defaults.update(workload)
    return ExperimentSpec(
        name="digest-cell",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(N_GROUPS),
            shards=shards,
            engine=engine,  # type: ignore[arg-type]
            shard_workers=shard_workers,
            faults=faults,
        ),
        workload=WorkloadConfig(**defaults),
        protocol=protocol,  # type: ignore[arg-type]
    )


def digest(spec: ExperimentSpec, seed: int) -> str:
    return metrics_digest([run_once(spec, seed=seed)])


@pytest.fixture
def spawns(monkeypatch) -> list[str]:
    """Records every multiprocessing context the run under test asks for."""
    requested: list[str] = []
    real = multiprocessing.get_context

    def spy(method=None):
        requested.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return requested


def assert_engines_agree(spawns: list[str], seed: int, **spec_args) -> None:
    """``sharded-mp`` matches ``global``, fanning out iff lane-closed."""
    reference = digest(base_spec("global", **spec_args), seed)
    assert spawns == []
    fanned = base_spec("sharded-mp", **spec_args)
    assert digest(fanned, seed) == reference
    assert len(spawns) == (1 if fanned.lane_closed else 0)


class TestEngineDigestEquality:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("seed", (0, 11))
    @pytest.mark.parametrize("scenario", tuple(SCENARIOS))
    def test_global_vs_sharded(self, spawns, shards, seed, scenario):
        """Pinned threads fan out unless 2PC or queue traffic joins lanes."""
        protocol, extra = SCENARIOS[scenario]
        assert_engines_agree(
            spawns, seed, shards=shards, protocol=protocol,
            group_distribution="pinned", **extra,
        )

    @pytest.mark.parametrize("shards", (1, 4))
    def test_fault_injection_digest(self, spawns, shards):
        assert_engines_agree(
            spawns, 5, shards=shards, protocol="paxos", faults=FAULTS,
            group_distribution="pinned",
        )

    def test_fault_injection_with_queue_traffic(self, spawns):
        assert_engines_agree(
            spawns, 9, shards=N_GROUPS, faults=FAULTS, queue_fraction=0.3,
            group_distribution="pinned",
        )


class TestRunOnceEngines:
    """run_once-level equality across lane-closed and in-process paths."""

    @pytest.mark.parametrize("dist", ("uniform", "pinned"))
    def test_sharded_matches_global(self, spawns, dist):
        assert_engines_agree(spawns, 2, shards=4, group_distribution=dist)

    def test_pinned_run_decomposes(self, spawns):
        """One worker per lane: the shared lane plus every group lane."""
        spec = base_spec("sharded-mp", N_GROUPS, group_distribution="pinned",
                         shard_workers=N_GROUPS + 1)
        assert spec.lane_closed
        with pytest.warns(RuntimeWarning, match="oversubscribes"):
            result = run_once(spec, seed=2)
        assert spawns == ["spawn"]
        reference = base_spec("global", N_GROUPS, group_distribution="pinned")
        assert metrics_digest([result]) == digest(reference, 2)

    def test_sharded_mp_matches_inprocess(self, spawns):
        assert_engines_agree(spawns, 4, shards=4, group_distribution="pinned",
                             n_transactions=24)

    def test_roaming_clients_run_in_process(self, spawns):
        """Roaming clients message every lane: no fan-out, same digest."""
        assert_engines_agree(spawns, 6, shards=4, n_transactions=12,
                             shard_workers=3)

    def test_sharded_mp_multi_worker_2pc_matches(self, spawns):
        assert_engines_agree(spawns, 8, shards=4, n_transactions=12,
                             cross_group_fraction=0.3, n_threads=3,
                             shard_workers=5)


class TestLaneClosure:
    """The run-time half of the contract: a worker never leaves its lanes."""

    def test_worker_refuses_traffic_into_unowned_lanes(self):
        # Roaming clients live on the shared lane 0 and message the group
        # lanes; a worker owning only lane 0 must refuse the first send.
        spec = base_spec("sharded-mp", 4, n_transactions=8)
        assert not spec.lane_closed
        cluster, _drivers = prepare_run(spec, seed=1)
        cluster.env.sim.restrict_lanes({0})
        with pytest.raises(SimulationError, match="not lane-closed"):
            cluster.run()

    def test_fan_out_rejects_specs_that_are_not_lane_closed(self, spawns):
        spec = base_spec("sharded-mp", 4, cross_group_fraction=0.3,
                         group_distribution="pinned")
        with pytest.raises(ValueError, match="not lane-closed"):
            run_once_sharded_mp(spec, seed=0)
        assert spawns == []

    def test_lane_closed_run_with_one_worker(self, spawns):
        spec = base_spec("sharded-mp", 4, group_distribution="pinned",
                         shard_workers=1)
        reference = replace(spec, cluster=replace(spec.cluster,
                                                  engine="global"))
        assert digest(spec, 3) == digest(reference, 3)
        assert spawns == ["spawn"]
