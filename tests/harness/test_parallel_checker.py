"""Parallel-vs-serial invariant checker equivalence.

The worker-side parallel checker must be *indistinguishable* from the
serial per-group loop it replaces: same verdicts, same violation strings,
same raise order, same resolved 2PC decision map.  Both paths evaluate
:meth:`repro.cluster.Cluster.group_violations` — these tests pin the
equivalence from the outside anyway: a clean lane-closed run must produce
identical digests checked in the fan-out workers and checked serially
(through the real multiprocessing workers), and a doctored run must raise
field-identical violations through either executor.
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


def violations_checker(cluster: Cluster, seen: dict):
    """A ``group_checker`` with the mp coordinator's exact semantics:
    evaluate every group's verdict, then raise the first failing group in
    sorted order — recording everything for the equivalence assertions."""

    def checker(by_group, logs, decisions, strict_timeouts):
        for group, group_outcomes in by_group.items():
            seen[group] = cluster.group_violations(
                group, group_outcomes, strict_timeouts, decisions
            )
        for group in sorted(seen):
            if seen[group]:
                raise InvariantViolation(seen[group])

    return checker


class TestParallelCheckerDigests:
    """End-to-end through the real shard workers' check protocol."""

    def test_parallel_check_matches_serial_check(self):
        parallel = run_once(checker_spec("sharded-mp"), seed=3)
        reference = run_once(checker_spec("global"), seed=3)
        assert metrics_digest([parallel]) == metrics_digest([reference])
        # The mixed cell is not lane-closed: sharded-mp checks it serially.
        mixed = run_once(checker_spec("sharded-mp", mixed=True), seed=3)
        serial = run_once(checker_spec("global", mixed=True), seed=3)
        assert metrics_digest([mixed]) == metrics_digest([serial])

    def test_parallel_check_multi_worker(self):
        """Groups split over several workers: routing by lane ownership."""
        spec = checker_spec("sharded-mp", workers=3)
        result = run_once(spec, seed=5)
        reference = run_once(checker_spec("global"), seed=5)
        assert metrics_digest([result]) == metrics_digest([reference])


class TestCheckerVerdictEquivalence:
    """Serial loop vs an external executor, field for field."""

    def test_clean_run_identical_decisions_and_verdicts(self):
        cluster_a, driver_a = build_world(seed=2)
        cluster_b, driver_b = build_world(seed=2)
        decisions_a = cluster_a.check_invariants_all(driver_a.result.outcomes)
        seen: dict[str, list[str]] = {}
        decisions_b = cluster_b.check_invariants_all(
            driver_b.result.outcomes,
            group_checker=violations_checker(cluster_b, seen),
        )
        assert decisions_a == decisions_b
        # The external executor saw every group and found them all clean —
        # exactly what the serial loop concluded by not raising.
        assert set(seen) == set(cluster_b.groups)
        assert all(violations == [] for violations in seen.values())

    def test_doctored_run_identical_violation_strings(self):
        """A planted violation must surface with byte-identical anomaly
        strings through both executors (and name the planted tid)."""
        cluster_a, driver_a = build_world(seed=4)
        cluster_b, driver_b = build_world(seed=4)
        # Committed but absent from the log: an L1 violation in group-1.
        ghost = committed(txn("ghost", writes={"a": "v"}, group="group-1"), 1)
        with pytest.raises(InvariantViolation) as serial:
            cluster_a.check_invariants_all(
                driver_a.result.outcomes + [ghost])
        seen: dict[str, list[str]] = {}
        with pytest.raises(InvariantViolation) as parallel:
            cluster_b.check_invariants_all(
                driver_b.result.outcomes + [ghost],
                group_checker=violations_checker(cluster_b, seen),
            )
        assert serial.value.violations == parallel.value.violations
        assert any("ghost" in v for v in serial.value.violations)

    def test_strict_timeouts_flow_through(self):
        """The strictness flag reaches the external executor unchanged."""
        cluster, driver = build_world(seed=6)
        captured: list[bool] = []

        def checker(by_group, logs, decisions, strict_timeouts):
            captured.append(strict_timeouts)

        cluster.check_invariants_all(
            driver.result.outcomes, strict_timeouts=True,
            group_checker=checker,
        )
        assert captured == [True]
