"""Metrics digests pinned over time.

The engine-equality suites (test_shard_digest.py) compare two ways of
running one spec against each other, so a change that moves both sides at
once passes them.  These pins compare each cell against a recorded hex
value instead: a kernel, network or harness refactor that claims "same
behaviour" must leave every value here unchanged.

A change that *means* to move simulated behaviour updates the affected
pins and says why in CHANGES.md.  The cells are single-lane and small
(about a second in total).
"""

from __future__ import annotations

import pytest

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    LossWindow,
    OutageWindow,
    PlacementConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec, run_once
from repro.harness.parallel import metrics_digest

CELLS = {
    # The contended Figure-7 shape: one group, promotion and combination.
    "paxos-cp-contended": ExperimentSpec(
        name="pin-cp-contended",
        workload=WorkloadConfig(
            n_transactions=80, n_threads=4, target_rate_per_thread=4.0,
        ),
        protocol="paxos-cp",
    ),
    # Basic Paxos over four groups with 2PC and queue sends.
    "basic-2pc-queues": ExperimentSpec(
        name="pin-basic-2pc-queues",
        cluster=ClusterConfig(placement=PlacementConfig.ranged(4)),
        workload=WorkloadConfig(
            n_transactions=80, n_rows=4, n_threads=4,
            target_rate_per_thread=4.0,
            cross_group_fraction=0.25, queue_fraction=0.25,
        ),
        protocol="paxos",
    ),
    "leased-leader": ExperimentSpec(
        name="pin-leased-leader",
        workload=WorkloadConfig(
            n_transactions=80, n_threads=4, target_rate_per_thread=4.0,
        ),
        protocol="leased-leader",
    ),
    # Loss window, duplicated messages, an outage and a replica crash.
    "faults": ExperimentSpec(
        name="pin-faults",
        cluster=ClusterConfig(
            duplicate_probability=0.05,
            faults=FaultScheduleConfig(
                outages=(OutageWindow("V2", 400.0, 500.0),),
                loss_windows=(LossWindow(0.2, 3000.0, 1500.0),),
                crashes=(CrashWindow("V3", 1000.0, 800.0),),
            ),
        ),
        workload=WorkloadConfig(
            n_transactions=80, n_threads=4, target_rate_per_thread=4.0,
        ),
        protocol="paxos-cp",
    ),
}

#: Recorded at the commit that introduced this file, before the kernel
#: collapse it guards.
PINS = {
    "paxos-cp-contended": (
        "9eefce28f6d90cdd4aab87b5d9d9749d"
        "3afcc37be3eb750d316738b6eb64859b"
    ),
    "basic-2pc-queues": (
        "4b17eb79a0b2a1728cba01d33c317056"
        "ddd83d17c8e491125583c6bd19098607"
    ),
    "leased-leader": (
        "3c23995016ef9854da52ae6126d897f0"
        "6bc784b96f76854f8962ccbba59c8467"
    ),
    "faults": (
        "e57d95439256543411368af83c03c339"
        "eb84737087474fd1debf50f7350a0b5a"
    ),
}


@pytest.mark.parametrize("cell", tuple(CELLS))
def test_digest_is_pinned(cell):
    assert metrics_digest([run_once(CELLS[cell], seed=0)]) == PINS[cell]
