"""The invariant check after a lane-closed fan-out.

The workers of a lane-closed run only execute lanes; every check then runs
in the parent, on the one in-process path every engine uses.  These tests
pin that from the outside: a clean run checked after the fan-out produces
the digest of the in-process run, and a doctored run raises an
:class:`~repro.wal.invariants.InvariantViolation` that names the planted
transaction.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConfig, PlacementConfig, WorkloadConfig
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.parallel import metrics_digest
from repro.wal.invariants import InvariantViolation
from repro.workload.driver import WorkloadDriver
from tests.helpers import committed, txn

N_GROUPS = 4


def checker_spec(engine: str, workers: int | None = 2,
                 mixed: bool = False) -> ExperimentSpec:
    """A small pinned cell; ``mixed`` adds 2PC and queue traffic, which
    gives every checker phase work but makes the cell not lane-closed."""
    fractions = dict(cross_group_fraction=0.2, queue_fraction=0.2) \
        if mixed else {}
    return ExperimentSpec(
        name="checker-cell",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(N_GROUPS),
            shards=N_GROUPS,
            engine=engine,  # type: ignore[arg-type]
            shard_workers=workers,
        ),
        workload=WorkloadConfig(
            n_transactions=16, n_rows=N_GROUPS, n_threads=N_GROUPS,
            target_rate_per_thread=6.0, group_distribution="pinned",
            **fractions,
        ),
        protocol="paxos-cp",
    )


def build_world(seed: int):
    """A bare-cluster mixed run, drained and ready to check."""
    cluster = Cluster(ClusterConfig(
        placement=PlacementConfig.ranged(N_GROUPS), seed=seed,
    ))
    driver = WorkloadDriver(
        cluster,
        WorkloadConfig(
            n_transactions=16, n_rows=N_GROUPS, n_threads=2,
            target_rate_per_thread=6.0,
            cross_group_fraction=0.2, queue_fraction=0.2,
        ),
        "paxos-cp",
        datacenter=cluster.topology.names[0],
    )
    driver.install_data()
    driver.start()
    cluster.start_queue_pumps()
    cluster.run()
    return cluster, driver


class TestParallelCheckerDigests:
    """End-to-end through the real fan-out workers."""

    def test_parallel_check_matches_serial_check(self):
        parallel = run_once(checker_spec("sharded-mp"), seed=3)
        reference = run_once(checker_spec("global"), seed=3)
        assert metrics_digest([parallel]) == metrics_digest([reference])
        # The mixed cell is not lane-closed: sharded-mp runs it in-process.
        mixed = run_once(checker_spec("sharded-mp", mixed=True), seed=3)
        serial = run_once(checker_spec("global", mixed=True), seed=3)
        assert metrics_digest([mixed]) == metrics_digest([serial])

    def test_parallel_check_multi_worker(self):
        """Lanes split over several workers, their logs merged home."""
        spec = checker_spec("sharded-mp", workers=3)
        result = run_once(spec, seed=5)
        reference = run_once(checker_spec("global"), seed=5)
        assert metrics_digest([result]) == metrics_digest([reference])


class TestDoctoredRun:
    def test_ghost_transaction_raises_naming_it(self):
        """A transaction reported committed but absent from every log is an
        (L1) violation in its group, and the report names it."""
        cluster, driver = build_world(seed=4)
        ghost = committed(txn("ghost", writes={"a": "v"}, group="group-1"), 1)
        with pytest.raises(InvariantViolation) as raised:
            cluster.check_invariants_all(driver.result.outcomes + [ghost])
        assert any("ghost" in v for v in raised.value.violations)
