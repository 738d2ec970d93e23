"""The benchmark's four workloads, built from the public harness entry points.

Each workload is one experiment cell at a fixed size.  ``build(name, tiny)``
returns its :class:`~repro.harness.experiment.ExperimentSpec`; ``tiny``
shrinks the cell for the benchmark's own tests without changing its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    ClusterConfig,
    CrashWindow,
    FaultScheduleConfig,
    OutageWindow,
    PlacementConfig,
    ProtocolConfig,
    WorkloadConfig,
)
from repro.harness.experiment import ExperimentSpec
from repro.harness.figures import figure7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Full-size and test-size cell budgets: transactions for closed-loop
    #: cells, simulated milliseconds of arrivals for the open-loop cell.
    size: int
    tiny_size: int


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fig7-contended",
            "the paper's Fig. 7 top cell: Paxos-CP promotion, combination and "
            "long version chains under contention, with invariants checked",
            size=1800, tiny_size=80,
        ),
        Workload(
            "mix-2pc-queue",
            "the only cell running 2PC, queue sends, cross-group and global 1SR "
            "checks and the exactly-once drain, on basic Paxos",
            size=1800, tiny_size=80,
        ),
        Workload(
            "lanes64",
            "64 pinned groups in 8 closed lanes: the most groups and messages "
            "per transaction, light on checking",
            size=2000, tiny_size=256,
        ),
        Workload(
            "openloop-brownout",
            "open-loop arrivals past the knee through an outage and a crash-"
            "restart: admission control, faults and recovery, no checking",
            size=30_000, tiny_size=4_000,
        ),
    )
}

# --- lanes64: the bench_groups_scaling 64-group lane-closed cell ----------
# It runs on the in-process ``global`` kernel, not on the ``sharded-mp``
# fan-out, whose results are field-identical.  Every fan-out execution
# spawns fresh worker interpreters, which no warm-up reaches, and a cold
# execution ran up to a third slower than a warm one: on a shared 2-vCPU
# host the fan-out cell's quartile spread over ten runs reached 0.27-0.31
# of the median, over the largest bound the benchmark may set, with two
# workers and with one.  bench_groups_scaling measures the fan-out's
# speed-up.
LANES_GROUPS = 64
LANES_SHARDS = 8
LANES_RATE_PER_THREAD = 8.0

# --- openloop-brownout: the bench_open_loop cell under faults -------------
OPEN_GROUPS = 8
OPEN_ROWS = 64
OPEN_POOL = 64
OPEN_USERS = 1_000_000
OPEN_MAX_PENDING = 4
#: Far past the fault-free knee (about 45 commits/s here), so admission
#: control sheds on every seed and the client queues stay full.  Nearer the
#: knee (48-80/s) each seed's p50 or p99 lands on one side or the other of
#: the queueing cliff, and no median of a few seeds is steady; at 120/s the
#: p50 still varies by 13% between seeds, at 200/s by about 7% (16 seeds).
#: The run lasts 30 s, longer than the 20 s fault frame, because the p50 of
#: a 20 s run still swings with the seed.
OPEN_OFFERED = 200.0
#: The bench_availability client policy: three retries, capped exponential
#: backoff and a per-transaction deadline.
RETRY = dict(retry_attempts=3, retry_backoff_cap_ms=320.0, deadline_ms=8_000.0)


#: The faults fall in the first 20 s of the run: a V3 outage at 5 s for 3 s,
#: then a V2 crash-restart at 12 s for 2 s.  The windows never overlap, so
#: a majority of the three datacenters always survives.
FAULT_FRAME_MS = 20_000.0


def _faults(duration_ms: float) -> FaultScheduleConfig:
    """The fault schedule, scaled down with runs shorter than the frame."""
    frame = min(duration_ms, FAULT_FRAME_MS)
    return FaultScheduleConfig(
        outages=(OutageWindow("V3", 0.25 * frame, 0.15 * frame),),
        crashes=(CrashWindow("V2", 0.60 * frame, 0.10 * frame),),
    )


def fig7_contended(n: int) -> ExperimentSpec:
    grid = figure7(WorkloadConfig(n_transactions=n))
    return next(
        cell for cell in grid.cells
        if cell.protocol == "paxos-cp"
        and cell.workload.target_rate_per_thread == 4.0
    )


def mix_2pc_queue(n: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="mix-2pc-queue",
        cluster=ClusterConfig(placement=PlacementConfig.ranged(4, key_universe=4)),
        workload=WorkloadConfig(
            n_transactions=n,
            n_rows=4,
            n_threads=4,
            target_rate_per_thread=1.0,
            cross_group_fraction=0.10,
            queue_fraction=0.10,
        ),
        protocol="paxos",
    )


def lanes64(n: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"{LANES_GROUPS} groups lane-closed",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(LANES_GROUPS),
            shards=LANES_SHARDS,
            engine="global",
        ),
        workload=WorkloadConfig(
            n_transactions=n,
            n_rows=LANES_GROUPS,
            n_threads=LANES_GROUPS,
            target_rate_per_thread=LANES_RATE_PER_THREAD,
            group_distribution="pinned",
        ),
        protocol="paxos-cp",
    )


def openloop_brownout(duration_ms: int) -> ExperimentSpec:
    faults = _faults(float(duration_ms))
    return ExperimentSpec(
        name=f"openloop-brownout{faults.cell_suffix()}",
        cluster=ClusterConfig(
            placement=PlacementConfig.ranged(OPEN_GROUPS, key_universe=OPEN_ROWS),
            protocol=ProtocolConfig(**RETRY),
            faults=faults,
        ),
        workload=WorkloadConfig(
            open_loop=True,
            arrival="poisson",
            n_users=OPEN_USERS,
            offered_load=OPEN_OFFERED,
            pool_size=OPEN_POOL,
            max_pending=OPEN_MAX_PENDING,
            open_duration_ms=float(duration_ms),
            n_rows=OPEN_ROWS,
        ),
        protocol="paxos-cp",
        check_invariants=False,
        retain_outcomes=False,
    )


_BUILDERS = {
    "fig7-contended": fig7_contended,
    "mix-2pc-queue": mix_2pc_queue,
    "lanes64": lanes64,
    "openloop-brownout": openloop_brownout,
}


def build(name: str, tiny: bool = False) -> ExperimentSpec:
    workload = WORKLOADS[name]
    return _BUILDERS[name](workload.tiny_size if tiny else workload.size)
