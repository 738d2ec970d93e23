"""Executing one experiment cell.

A *cell* is (cluster config × workload config × protocol).  ``run_once``
builds a fresh cluster, preloads the entity group, starts the workload
instance(s), drains the simulation, finalizes the log, optionally runs the
full §3 invariant suite, and returns metrics.  ``run_cell`` repeats with
distinct seeds and averages, which is what the paper does ("We have
performed each experiment several times with similar results, and we
present the average here").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import fmean
from typing import TYPE_CHECKING

from repro.cluster import Cluster
from repro.config import ClusterConfig, ProtocolName, WorkloadConfig
from repro.errors import OPEN_LOOP_SHARDS_ERROR, InvalidExperimentSpec
from repro.harness.metrics import (
    OutcomeAggregate,
    RunMetrics,
    aggregate_metrics,
    availability_report,
)
from repro.model import TransactionOutcome
from repro.workload.driver import WorkloadDriver

if TYPE_CHECKING:  # pragma: no cover
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid.

    ``client_datacenter`` places the (single-instance) YCSB clients; when
    ``None`` the first Virginia zone is used if the cluster has one, else
    the first datacenter — the paper's load generator ran in Virginia.

    Construction validates cross-field combinations (``__post_init__``), so
    a misconfigured cell raises :class:`~repro.errors.InvalidExperimentSpec`
    the moment the grid is *built* — long before any cluster exists —
    instead of minutes into a sweep.  ``dataclasses.replace`` re-runs the
    validation, so derived specs (``scaled`` and friends) cannot dodge it.
    """

    name: str
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    protocol: ProtocolName = "paxos"
    per_datacenter_instances: bool = False
    check_invariants: bool = True
    client_datacenter: str | None = None
    #: A queue send counts as *stalled* when committed but unapplied past
    #: this lag (the report surfaces stalls as their own condition).
    queue_stall_threshold_ms: float = 1000.0
    #: ``False`` switches the drivers to aggregate-only mode: no
    #: per-transaction outcome lists, metrics built from streaming
    #: histograms (O(buckets) memory).  Incompatible with
    #: ``check_invariants`` — the invariant suite reads the outcomes.
    retain_outcomes: bool = True

    def __post_init__(self) -> None:
        if not self.retain_outcomes and self.check_invariants:
            raise InvalidExperimentSpec(
                "retain_outcomes=False discards the per-transaction outcomes "
                "the invariant suite reads; set check_invariants=False for "
                "aggregate-only runs"
            )
        if self.workload.open_loop and self.cluster.shards > 1:
            raise InvalidExperimentSpec(OPEN_LOOP_SHARDS_ERROR)
        if self.cluster.isolation != "1sr":
            if self.protocol == "leased-leader":
                raise InvalidExperimentSpec(
                    "isolation 'si'/'ssi' needs the paxos or paxos-cp "
                    "protocol (the leased leader validates commits "
                    "server-side, where the snapshot window is invisible)"
                )
            if (
                self.workload.cross_group_fraction > 0
                or self.workload.queue_fraction > 0
            ):
                raise InvalidExperimentSpec(
                    "isolation 'si'/'ssi' currently covers single-group "
                    "commits only; cross_group_fraction and queue_fraction "
                    "must be 0 (the 2PC and queue layers still validate "
                    "against 1SR)"
                )

    @property
    def lane_closed(self) -> bool:
        """True when no event of one group lane can reach another lane.

        A closed-loop workload whose threads are each pinned to one entity
        group, with no 2PC (``cross_group_fraction``) and no queue
        (``queue_fraction``) traffic, on a deployment with several lanes:
        every message then stays in its sender's lane, so the lanes can run
        in separate processes (``engine="sharded-mp"``) without exchanging
        anything mid-run.
        """
        workload = self.workload
        return (
            self.cluster.shards > 1
            and not workload.open_loop
            and workload.group_distribution == "pinned"
            and workload.cross_group_fraction == 0
            and workload.queue_fraction == 0
        )

    def scaled(self, n_transactions: int) -> "ExperimentSpec":
        """The same cell with a smaller transaction budget (for CI runs)."""
        return replace(self, workload=replace(self.workload, n_transactions=n_transactions))


@dataclass
class ExperimentResult:
    """Metrics for one cell (plus per-instance breakdown for Figure 8)."""

    spec: ExperimentSpec
    metrics: RunMetrics
    per_instance: dict[str, RunMetrics] = field(default_factory=dict)
    outcomes: list[TransactionOutcome] = field(default_factory=list)


def prepare_run(spec: ExperimentSpec, seed: int) -> tuple[Cluster, list[WorkloadDriver]]:
    """Build one cell's world: cluster, preloaded data, started drivers.

    A pure function of ``(spec, seed)`` — the lane-closed fan-out rebuilds
    the identical world in every worker process from these two values, so
    everything here must derive from them alone.

    Option conflicts (retention × invariants, open-loop × shards) are the
    spec's own ``__post_init__`` business — any spec that reaches this
    function already passed them.
    """
    cluster = Cluster(replace(spec.cluster, seed=seed))
    if spec.workload.open_loop:
        if spec.per_datacenter_instances:
            raise ValueError(
                "open-loop mode drives one pooled instance; "
                "per_datacenter_instances is not supported"
            )
        from repro.workload.openloop import OpenLoopDriver

        datacenter = spec.client_datacenter
        if datacenter is None:
            virginia = [dc for dc in cluster.topology.names if dc.startswith("V")]
            datacenter = virginia[0] if virginia else cluster.topology.names[0]
        drivers = [OpenLoopDriver(
            cluster, spec.workload, spec.protocol, datacenter=datacenter,
            retain_outcomes=spec.retain_outcomes,
        )]
    elif spec.per_datacenter_instances:
        # On a sharded placement the per-DC instances fan out over the
        # groups; on the classic single-group deployment they share the one
        # entity group (the Figure-8 experiment).
        drivers = WorkloadDriver.per_datacenter(
            cluster, spec.workload, spec.protocol,
            shared_group=cluster.placement.n_groups == 1,
            retain_outcomes=spec.retain_outcomes,
        )
    else:
        datacenter = spec.client_datacenter
        if datacenter is None:
            virginia = [dc for dc in cluster.topology.names if dc.startswith("V")]
            datacenter = virginia[0] if virginia else cluster.topology.names[0]
        drivers = [WorkloadDriver(cluster, spec.workload, spec.protocol,
                                  datacenter=datacenter,
                                  retain_outcomes=spec.retain_outcomes)]
    drivers[0].install_data()
    for driver in drivers:
        driver.start()
    pumps = None
    if spec.workload.queue_fraction > 0:
        pumps = cluster.start_queue_pumps()
    if not spec.cluster.faults.is_empty():
        # Installed from the spec inside prepare_run, so the sharded-mp
        # workers and the coordinator arm the identical schedule — faults
        # behave the same on every engine.
        from repro.failures.schedule import install_fault_schedule

        install_fault_schedule(cluster, spec.cluster.faults, pumps=pumps)
    return cluster, drivers


def finish_run(
    spec: ExperimentSpec, cluster: Cluster, drivers: "list[WorkloadDriver]",
    group_logs: dict | None = None, group_checker=None,
) -> ExperimentResult:
    """Offline phase of one cell: finalize, verify invariants, aggregate.

    ``group_logs`` lets the lane-closed fan-out hand over logs the workers
    already finalized in parallel (each worker finalizes its owned
    lanes' groups); ``group_checker`` likewise fans the per-group invariant
    suites out to the workers (see
    :meth:`repro.cluster.Cluster.check_invariants_all`).
    """
    # Merge every group's log for the aggregate statistics; group logs are
    # independent position sequences, so the merged view keys by
    # (group, position).
    if group_logs is None:
        group_logs = cluster.finalize_all()
    # Bind each driver's result once: on pinned drivers ``result`` is a
    # property that merges the per-thread outcome lists on every access.
    results = [driver.result for driver in drivers]
    outcomes = [outcome for result in results for outcome in result.outcomes]
    decisions = None
    if spec.check_invariants:
        # Also drains undelivered queue sends and verifies exactly-once
        # delivery, mutating group_logs with the drained applies; returns
        # the resolved 2PC decision map for reuse below.
        decisions = cluster.check_invariants_all(
            outcomes, logs=group_logs, group_checker=group_checker,
        )
    queue = None
    if spec.workload.queue_fraction > 0:
        queue = cluster.queue_stats(
            group_logs, decisions,
            stall_threshold_ms=spec.queue_stall_threshold_ms,
        )
    log = {
        (group, position): entry
        for group, group_log in group_logs.items()
        for position, entry in group_log.items()
    }
    # Streaming drivers (retain_outcomes=False, and the open-loop engine in
    # either retention mode) carry their statistics as O(histogram-bucket)
    # aggregates; build the metrics from those instead of outcome lists.
    use_aggregates = any(
        getattr(driver, "metrics_from_aggregates", False) for driver in drivers
    )
    if use_aggregates:
        merged = OutcomeAggregate()
        for driver in drivers:
            merged.merge(driver.aggregate())
        open_loop = None
        loops = [d for d in drivers if hasattr(d, "open_loop_stats")]
        if loops:
            open_loop = loops[0].open_loop_stats()
        metrics = RunMetrics.from_aggregate(
            merged, protocol=spec.protocol, log=log, queue=queue,
            open_loop=open_loop,
        )
        per_instance = {
            driver.datacenter: RunMetrics.from_aggregate(
                driver.aggregate(), protocol=spec.protocol
            )
            for driver in drivers
        }
    else:
        metrics = RunMetrics.from_outcomes(
            outcomes, protocol=spec.protocol, log=log, queue=queue
        )
        per_instance = {
            result.datacenter: RunMetrics.from_outcomes(
                result.outcomes, protocol=spec.protocol
            )
            for result in results
        }
    # Under snapshot isolation the coordinator classified the MVSG cycles
    # during check_invariants_all; surface the per-kind counts on the run's
    # metrics (empty dict under 1sr/ssi, and when invariants are off).
    metrics.anomalies = cluster.anomaly_counts()
    # Network drop counters by cause: complete for every engine at this
    # point (the sharded-mp workers ship their stats home before this
    # runs), so the column — and the digest — agree serial vs parallel.
    net = cluster.network.stats
    metrics.dropped_messages = {
        "loss": net.dropped_loss,
        "outage": net.dropped_outage,
        "partition": net.dropped_partition,
    }
    if cluster.fault_windows:
        metrics.availability = availability_report(
            metrics.timeline, cluster.fault_windows
        )
    if cluster.crash_records:
        metrics.node_crashes = len(cluster.crash_records)
        restarted = [
            record for record in cluster.crash_records
            if record.restart_ms is not None
        ]
        metrics.node_restarts = len(restarted)
        if restarted:
            metrics.crash_downtime_ms = fmean(
                record.restart_ms - record.crash_ms for record in restarted
            )
    return ExperimentResult(
        spec=spec, metrics=metrics, per_instance=per_instance,
        outcomes=outcomes,
    )


def run_once(spec: ExperimentSpec, seed: int = 0) -> ExperimentResult:
    """Execute one cell once with one seed.

    ``engine="sharded-mp"`` fans a lane-closed spec's lanes out over worker
    processes; every other spec runs in-process, identically on both
    engines.
    """
    if spec.cluster.engine == "sharded-mp" and spec.lane_closed:
        from repro.harness.shardrun import run_once_sharded_mp

        return run_once_sharded_mp(spec, seed)
    cluster, drivers = prepare_run(spec, seed)
    cluster.run()
    return finish_run(spec, cluster, drivers)


def aggregate_cell(spec: ExperimentSpec, runs: list[ExperimentResult]) -> ExperimentResult:
    """Average per-trial results into the cell's reported result.

    Shared by the serial and parallel paths — the trials must arrive in
    trial order (seed ``base_seed``, ``base_seed + 1``, ...), and then the
    aggregation is deterministic, which is what makes ``--jobs N`` runs
    bit-identical to serial ones.
    """
    merged = aggregate_metrics([run.metrics for run in runs])
    per_instance: dict[str, RunMetrics] = {}
    for dc in runs[0].per_instance:
        per_instance[dc] = aggregate_metrics([run.per_instance[dc] for run in runs])
    return ExperimentResult(
        spec=spec, metrics=merged, per_instance=per_instance,
        outcomes=list(runs[0].outcomes),
    )


def run_cell(
    spec: ExperimentSpec, trials: int = 3, base_seed: int = 0,
    jobs: int | None = 1,
) -> ExperimentResult:
    """Execute one cell for several seeds and average the metrics.

    ``jobs`` fans the trials out over worker processes (see
    :func:`repro.harness.parallel.run_cells`); the default of 1 runs them
    inline, and both produce bit-identical results.
    """
    if jobs != 1:
        from repro.harness.parallel import run_cells

        return run_cells([spec], trials=trials, base_seed=base_seed, jobs=jobs)[0]
    if trials < 1:
        raise ValueError("need at least one trial")
    runs = [run_once(spec, seed=base_seed + trial) for trial in range(trials)]
    return aggregate_cell(spec, runs)
