"""Satellite behaviours around the sharded simulation subsystem.

Oversubscription clamping, the pinned workload distribution, and the
lane-closed spec predicate the fan-out engine decides by.
"""

from __future__ import annotations

import warnings

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.parallel import resolve_jobs, shard_procs_per_run
from repro.harness.experiment import ExperimentSpec
from repro.workload.driver import WorkloadDriver


class TestResolveJobsClamp:
    def test_plain_jobs_unchanged(self):
        assert resolve_jobs(3) == 3

    def test_oversubscription_clamps_with_warning(self):
        import os

        cpus = os.cpu_count() or 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jobs = resolve_jobs(cpus * 4, procs_per_job=2)
        assert jobs == max(1, cpus // 2)
        assert any("oversubscribes" in str(w.message) for w in caught)

    def test_auto_jobs_budgets_for_shard_workers(self):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_jobs(None, procs_per_job=cpus) == 1

    def test_sharded_mp_specs_survive_a_jobs_pool(self, monkeypatch):
        """Regression: a daemonic Pool cannot host sharded-mp runs (their
        shard workers are child processes); run_cells must pick the
        futures executor for them.  The CPU count is patched up so the
        oversubscription clamp leaves jobs > 1 and the nested-spawn path
        genuinely executes."""
        import os

        from repro.harness.parallel import metrics_digest, run_cells

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        spec = ExperimentSpec(
            name="pool-cell",
            cluster=ClusterConfig(
                placement=PlacementConfig.ranged(2), shards=2,
                engine="sharded-mp", shard_workers=2,
            ),
            workload=WorkloadConfig(
                n_transactions=6, n_rows=2, n_threads=2,
                target_rate_per_thread=8.0, group_distribution="pinned",
            ),
            protocol="paxos",
        )
        assert shard_procs_per_run(spec) == 2
        parallel = run_cells([spec], trials=2, jobs=2)
        serial = run_cells([spec], trials=2, jobs=1)
        assert metrics_digest(parallel) == metrics_digest(serial)

    def test_shard_procs_per_run(self):
        spec = ExperimentSpec(
            name="x",
            cluster=ClusterConfig(
                placement=PlacementConfig.ranged(4), shards=4,
                engine="sharded-mp", shard_workers=2,
            ),
            workload=WorkloadConfig(group_distribution="pinned"),
        )
        assert shard_procs_per_run(spec) == 2
        inline = ExperimentSpec(name="y", cluster=ClusterConfig(),
                                workload=WorkloadConfig())
        assert shard_procs_per_run(inline) == 1
        # Roaming clients are not lane-closed: sharded-mp runs them
        # in-process, so nothing is spawned.
        roaming = ExperimentSpec(name="z", cluster=spec.cluster,
                                 workload=WorkloadConfig())
        assert shard_procs_per_run(roaming) == 1


class TestPinnedDriver:
    def make(self, shards=3, threads=6):
        cluster = Cluster(ClusterConfig(
            placement=PlacementConfig.ranged(6), shards=shards,
        ))
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(
                n_transactions=threads * 2, n_rows=6, n_threads=threads,
                target_rate_per_thread=10.0, group_distribution="pinned",
            ),
            "paxos",
            datacenter=cluster.topology.names[0],
        )
        return cluster, driver

    def test_threads_round_robin_over_groups(self):
        _cluster, driver = self.make()
        assert driver.pinned
        assert driver.thread_group(0) == "group-0"
        assert driver.thread_group(5) == "group-5"

    def test_thread_lanes_follow_shard_map(self):
        cluster, driver = self.make()
        lanes = driver.thread_lanes()
        for index, lane in lanes.items():
            assert lane == cluster.shard_map.lane_of(driver.thread_group(index))

    def test_pinned_spec_is_lane_closed(self):
        def spec(**workload):
            return ExperimentSpec(
                name="closed",
                cluster=ClusterConfig(
                    placement=PlacementConfig.ranged(6), shards=3,
                ),
                workload=WorkloadConfig(n_rows=6, **workload),
            )

        assert spec(group_distribution="pinned").lane_closed
        assert not spec().lane_closed  # roaming threads
        assert not spec(group_distribution="pinned",
                        cross_group_fraction=0.1).lane_closed
        assert not spec(group_distribution="pinned",
                        queue_fraction=0.1).lane_closed
        single = ExperimentSpec(
            name="one-lane",
            cluster=ClusterConfig(placement=PlacementConfig.ranged(6)),
            workload=WorkloadConfig(n_rows=6, group_distribution="pinned"),
        )
        assert not single.lane_closed  # one lane: nothing to fan out

    def test_outcomes_merge_in_thread_order(self):
        cluster, driver = self.make(threads=3)
        driver.install_data()
        driver.start()
        cluster.run()
        outcomes = driver.result.outcomes
        assert len(outcomes) == driver.workload.n_transactions
        per_thread = driver.thread_outcomes()
        flattened = [o for i in sorted(per_thread) for o in per_thread[i]]
        assert outcomes == flattened

    def test_every_transaction_stays_in_its_group(self):
        cluster, driver = self.make(threads=3)
        driver.install_data()
        driver.start()
        cluster.run()
        for index, results in driver.thread_outcomes().items():
            expected = driver.thread_group(index)
            for outcome in results:
                assert outcome.transaction.group == expected
