"""Per-layer metrics of the traced run: what is wrapped, and what it moves.

``METRICS`` lists every per-layer metric with its unit, which way is
better, and the end-to-end metric and workload it should move.
``BENCHMARK.json`` carries the names, units and directions; the notes live
here because that file takes no other keys.  ``targets`` names the
functions the tracer wraps; ``compute`` turns one traced cell into the
metric values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model import AbortReason

from perfbench.trace import Target, Tracer

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    moves: str


#: Recovery time exists on the faulted cell only, so it is a per-layer
#: metric (every end-to-end metric is reported on every workload).
RECOVERY = "failures.recovery_ms on openloop-brownout"

ABORT_REASONS = tuple(reason.value for reason in AbortReason)

METRICS: tuple[Metric, ...] = (
    Metric("sim.events", "count", "lower", "txn_per_wall_s on openloop-brownout"),
    Metric("sim.events_per_s", "1/s", "higher", "txn_per_wall_s on openloop-brownout"),
    Metric("sim.run_s", "s", "lower", "wall_s on all workloads"),
    Metric("sim.self_s", "s", "lower", "wall_s on openloop-brownout and lanes64"),
    Metric("net.messages", "count", "lower", "wall_s on lanes64"),
    Metric("net.messages_per_commit", "count", "lower", "wall_s on lanes64"),
    Metric("net.send_s", "s", "lower", "wall_s on lanes64 and openloop-brownout"),
    Metric("net.deliver_s", "s", "lower", "wall_s on lanes64 and openloop-brownout"),
    Metric("net.dropped", "count", "lower", "commit_ratio on openloop-brownout"),
    Metric("net.dropped.loss", "count", "lower", "commit_ratio on openloop-brownout"),
    Metric("net.dropped.outage", "count", "lower", "commit_ratio on openloop-brownout"),
    Metric("net.dropped.partition", "count", "lower", "commit_ratio on openloop-brownout"),
    Metric("net.self_s", "s", "lower", "wall_s on lanes64 and openloop-brownout"),
    Metric("paxos.prepare_rounds", "count", "lower", "wall_s on fig7-contended"),
    Metric("paxos.accept_rounds", "count", "lower", "wall_s on fig7-contended"),
    Metric("paxos.rounds_per_commit", "count", "lower",
           "wall_s and commit_p50_ms on fig7-contended"),
    Metric("paxos.prepare_lost_ratio", "fraction", "lower", "commit_ratio on fig7-contended"),
    Metric("paxos.acceptor_s", "s", "lower", "wall_s on fig7-contended and lanes64"),
    Metric("paxos.catchups", "count", "lower", RECOVERY),
    Metric("paxos.self_s", "s", "lower", "wall_s on fig7-contended"),
    Metric("kvstore.reads", "count", "lower", "wall_s on fig7-contended"),
    Metric("kvstore.writes", "count", "lower", "wall_s on fig7-contended"),
    Metric("kvstore.busy_s", "s", "lower", "wall_s on fig7-contended"),
    Metric("kvstore.max_versions", "count", "lower", "wall_s on fig7-contended"),
    Metric("wal.positions", "count", "lower", "commit_ratio on fig7-contended"),
    Metric("wal.txns_per_position", "count", "higher", "commit_ratio on fig7-contended"),
    Metric("wal.apply_s", "s", "lower", "wall_s on mix-2pc-queue and lanes64"),
    Metric("wal.noop_entries", "count", "lower", RECOVERY),
    Metric("wal.invariants_s", "s", "lower", "wall_s on fig7-contended"),
    Metric("wal.self_s", "s", "lower", "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("core.commit_attempts", "count", "lower", "commit_p50_ms on fig7-contended"),
    Metric("core.mean_promotions", "count", "lower", "commit_p50_ms on fig7-contended"),
    Metric("core.choose_value_s", "s", "lower", "wall_s on fig7-contended"),
    *(
        Metric(f"core.aborts.{reason}", "count", "lower", "commit_ratio on every workload")
        for reason in ABORT_REASONS
    ),
    Metric("core.twopc_commits", "count", "higher", "wall_s on mix-2pc-queue"),
    Metric("core.twopc_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("core.queue_sends", "count", "higher", "wall_s on mix-2pc-queue"),
    Metric("core.queue_applied_online", "count", "higher", "wall_s on mix-2pc-queue"),
    Metric("core.queue_drained_offline", "count", "lower", "wall_s on mix-2pc-queue"),
    Metric("core.pump_polls", "count", "lower", "wall_s on mix-2pc-queue"),
    Metric("core.retries", "count", "lower", "commit_p99_ms on openloop-brownout"),
    Metric("core.self_s", "s", "lower", "wall_s on fig7-contended"),
    Metric("workload.offered", "count", "higher", "commit_ratio on openloop-brownout"),
    Metric("workload.admitted", "count", "higher", "commit_ratio on openloop-brownout"),
    Metric("workload.shed", "count", "lower", "commit_ratio on openloop-brownout"),
    Metric("workload.peak_pending", "count", "lower", "commit_p99_ms on openloop-brownout"),
    Metric("workload.queue_wait_p99_ms", "sim_ms", "lower",
           "commit_p99_ms on openloop-brownout"),
    Metric("workload.plan_s", "s", "lower", "wall_s on lanes64"),
    Metric("workload.self_s", "s", "lower", "wall_s on lanes64"),
    Metric("failures.crashes", "count", "lower", RECOVERY),
    Metric("failures.restarts", "count", "higher", RECOVERY),
    Metric("failures.unavailable_ms", "sim_ms", "lower", RECOVERY),
    Metric("failures.zero_windows", "count", "lower", RECOVERY),
    Metric("failures.recovery_ms", "sim_ms", "lower",
           "goodput_per_s and commit_ratio on openloop-brownout"),
    Metric("cluster.check_s", "s", "lower", "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("cluster.check_share", "fraction", "lower",
           "wall_s on fig7-contended and mix-2pc-queue; about zero on openloop-brownout"),
    Metric("cluster.finalize_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("cluster.drain_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("cluster.drained", "count", "lower", "wall_s on mix-2pc-queue"),
    Metric("cluster.cross_group_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("cluster.self_s", "s", "lower", "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("serializability.mvsg_s", "s", "lower",
           "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("serializability.cycle_s", "s", "lower",
           "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("serializability.mvsg_nodes", "count", "lower",
           "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("serializability.mvsg_edges", "count", "lower",
           "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("serializability.self_s", "s", "lower",
           "wall_s on fig7-contended and mix-2pc-queue"),
    Metric("harness.finish_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("harness.metrics_s", "s", "lower", "wall_s on mix-2pc-queue"),
    Metric("harness.self_s", "s", "lower", "setup_s and wall_s on lanes64"),
    Metric("harness.trace_overhead_s", "s", "lower",
           "none: the cost of tracing, not of the program"),
)


def targets(tracer: Tracer) -> list[Target]:
    """Every function the traced run wraps, grouped as ``<layer>.<label>``."""

    def prepare_lost(args, outcome) -> None:
        proposer = args[0]
        if outcome.successes < proposer.majority:
            tracer.tally("paxos.prepare_lost")

    def graph_size(args, graph) -> None:
        tracer.tally("serializability.mvsg_nodes", graph.number_of_nodes())
        tracer.tally("serializability.mvsg_edges", graph.number_of_edges())

    def drained(args, count) -> None:
        tracer.tally("cluster.drained", count)

    acceptor = [
        Target(f"repro.paxos.acceptor:Acceptor.{name}", "paxos.acceptor")
        for name in ("on_prepare", "on_accept", "on_apply", "on_learn")
    ]
    return [
        Target("repro.harness.experiment:prepare_run", "harness.prepare"),
        Target("repro.harness.experiment:finish_run", "harness.finish"),
        Target("repro.harness.metrics:RunMetrics.from_outcomes", "harness.metrics"),
        Target("repro.harness.metrics:RunMetrics.from_aggregate", "harness.metrics"),
        Target("repro.harness.metrics:availability_report", "harness.metrics"),
        Target("repro.cluster:Cluster.run", "sim.run"),
        Target("repro.cluster:Cluster.check_invariants_all", "cluster.check"),
        Target("repro.cluster:Cluster.finalize_all", "cluster.finalize"),
        Target("repro.cluster:Cluster.drain_queues", "cluster.drain", drained),
        Target("repro.cluster:Cluster.check_cross_group_invariants", "cluster.cross_group"),
        Target("repro.net.network:Network.send", "net.send"),
        Target("repro.net.node:Node.deliver", "net.deliver"),
        Target("repro.paxos.proposer:SynodProposer.prepare", "paxos.prepare", prepare_lost),
        Target("repro.paxos.proposer:SynodProposer.accept", "paxos.accept"),
        *acceptor,
        Target("repro.paxos.learner:Learner.learn", "paxos.learn"),
        Target("repro.paxos.learner:Learner.learn_or_decide", "paxos.learn"),
        Target("repro.kvstore.store:MultiVersionStore.read", "kvstore.read"),
        Target("repro.kvstore.store:MultiVersionStore.write", "kvstore.write"),
        Target("repro.kvstore.store:MultiVersionStore.check_and_write", "kvstore.check_and_write"),
        Target("repro.wal.log:LogReplica.record_chosen", "wal.apply"),
        Target("repro.wal.log:LogReplica.apply_entry", "wal.apply"),
        Target("repro.wal.log:LogReplica.apply_through", "wal.apply"),
        Target("repro.wal.invariants:run_all_checks", "wal.invariants"),
        Target("repro.core.protocol:PaxosCommitBase.decide_position", "core.attempt"),
        Target("repro.core.commit_basic:BasicPaxosCommit.choose_value", "core.choose_value"),
        Target("repro.core.commit_cp:PaxosCPCommit.choose_value", "core.choose_value"),
        Target("repro.core.combine:combine", "core.choose_value"),
        Target("repro.core.commit_2pc:TwoPhaseCommit.commit", "core.twopc"),
        Target("repro.core.queues:QueueDeliveryPump.deliver_pending", "core.pump"),
        Target("repro.core.retry:backoff_delay_ms", "core.retry"),
        Target("repro.workload.ycsb:YcsbWorkload.next_transaction_plan", "workload.plan"),
        Target("repro.serializability.graph:build_mvsg", "serializability.mvsg", graph_size),
        Target("repro.serializability.graph:find_cycle", "serializability.cycle"),
        Target("repro.serializability.checker:is_one_copy_serializable", "serializability.cycle"),
        Target("repro.serializability.checker:classify_anomalies", "serializability.cycle"),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(tracer: Tracer, cluster, result, wall_s: float,
            untraced_wall_s: float, untraced_sim_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced cell.  ``untraced_sim_s`` is the
    simulation phase of the untraced execution, so the event rate is not
    slowed by tracing."""
    metrics = result.metrics
    calls, tallies = tracer.calls, tracer.tallies
    self_by_layer = tracer.layer_self_times()
    commits = metrics.commits
    net = cluster.network.stats
    log = metrics.log
    data_entries = (
        log.positions - log.prepare_entries - log.marker_entries
        - log.queue_apply_entries - log.noop_entries
    )
    open_loop = metrics.open_loop
    availability = metrics.availability
    prepare_rounds = calls.get("paxos.prepare", 0)
    accept_rounds = calls.get("paxos.accept", 0)
    sim_run_s = tracer.busy.get("sim.run", 0.0)
    events = cluster.env.sim.processed_events
    max_versions = max(
        (len(store.versions(key))
         for store in cluster.lane_stores.values() for key in store.keys()),
        default=0,
    )
    values: dict[str, float] = {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, untraced_sim_s),
        "sim.run_s": sim_run_s,
        "sim.self_s": tracer.self_time.get("sim.run", 0.0),
        "net.messages": net.sent,
        "net.messages_per_commit": _ratio(net.sent, commits),
        "net.send_s": tracer.busy.get("net.send", 0.0),
        "net.deliver_s": tracer.busy.get("net.deliver", 0.0),
        "net.dropped": net.dropped_loss + net.dropped_outage + net.dropped_partition,
        "net.dropped.loss": net.dropped_loss,
        "net.dropped.outage": net.dropped_outage,
        "net.dropped.partition": net.dropped_partition,
        "paxos.prepare_rounds": prepare_rounds,
        "paxos.accept_rounds": accept_rounds,
        "paxos.rounds_per_commit": _ratio(prepare_rounds + accept_rounds, commits),
        "paxos.prepare_lost_ratio": _ratio(
            tallies.get("paxos.prepare_lost", 0), prepare_rounds
        ),
        "paxos.acceptor_s": tracer.busy.get("paxos.acceptor", 0.0),
        "paxos.catchups": calls.get("paxos.learn", 0),
        "kvstore.reads": calls.get("kvstore.read", 0),
        "kvstore.writes": calls.get("kvstore.write", 0),
        "kvstore.busy_s": self_by_layer.get("kvstore", 0.0),
        "kvstore.max_versions": max_versions,
        "wal.positions": log.positions,
        "wal.txns_per_position": _ratio(
            data_entries + log.combined_transactions, data_entries
        ),
        "wal.apply_s": tracer.busy.get("wal.apply", 0.0),
        "wal.noop_entries": log.noop_entries,
        "wal.invariants_s": tracer.busy.get("wal.invariants", 0.0),
        "core.commit_attempts": calls.get("core.attempt", 0),
        "core.mean_promotions": _ratio(
            sum(round_ * count for round_, count in metrics.commits_by_round.items()),
            commits,
        ),
        "core.choose_value_s": tracer.busy.get("core.choose_value", 0.0),
        **{
            f"core.aborts.{reason}": metrics.aborts_by_reason.get(reason, 0)
            for reason in ABORT_REASONS
        },
        "core.twopc_commits": metrics.cross_group_commits,
        "core.twopc_s": tracer.busy.get("core.twopc", 0.0),
        "core.queue_sends": metrics.queue.sends,
        "core.queue_applied_online": metrics.queue.applied_online,
        "core.queue_drained_offline": metrics.queue.drained_offline,
        "core.pump_polls": calls.get("core.pump", 0),
        "core.retries": calls.get("core.retry", 0),
        "workload.offered": open_loop.offered if open_loop else metrics.n_transactions,
        "workload.admitted": open_loop.admitted if open_loop else metrics.n_transactions,
        "workload.shed": open_loop.dropped if open_loop else 0,
        "workload.peak_pending": open_loop.peak_pending if open_loop else 0,
        "workload.queue_wait_p99_ms": (
            _finite(open_loop.queue_wait.p99_ms) if open_loop else 0.0
        ),
        "workload.plan_s": tracer.busy.get("workload.plan", 0.0),
        "failures.crashes": metrics.node_crashes,
        "failures.restarts": metrics.node_restarts,
        "failures.unavailable_ms": availability.unavailable_ms if availability else 0.0,
        "failures.zero_windows": availability.zero_windows if availability else 0,
        "failures.recovery_ms": availability.recovery_ms if availability else 0.0,
        "cluster.check_s": tracer.busy.get("cluster.check", 0.0),
        "cluster.check_share": _ratio(tracer.busy.get("cluster.check", 0.0), wall_s),
        "cluster.finalize_s": tracer.busy.get("cluster.finalize", 0.0),
        "cluster.drain_s": tracer.busy.get("cluster.drain", 0.0),
        "cluster.drained": tallies.get("cluster.drained", 0),
        "cluster.cross_group_s": tracer.busy.get("cluster.cross_group", 0.0),
        "serializability.mvsg_s": tracer.busy.get("serializability.mvsg", 0.0),
        "serializability.cycle_s": tracer.busy.get("serializability.cycle", 0.0),
        "serializability.mvsg_nodes": tallies.get("serializability.mvsg_nodes", 0),
        "serializability.mvsg_edges": tallies.get("serializability.mvsg_edges", 0),
        "harness.finish_s": tracer.busy.get("harness.finish", 0.0),
        "harness.metrics_s": tracer.busy.get("harness.metrics", 0.0),
        "harness.trace_overhead_s": wall_s - untraced_wall_s,
    }
    for layer in ("net", "paxos", "wal", "core", "workload", "cluster",
                  "serializability", "harness"):
        values[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return {metric.name: float(values[metric.name]) for metric in METRICS}


def _finite(value: float) -> float:
    return value if value == value else 0.0
