"""Lane-closed multiprocessing execution of one experiment cell.

Entity groups are independent units of concurrency control, and a
lane-closed spec (:attr:`repro.harness.experiment.ExperimentSpec.lane_closed`)
keeps every message inside its sender's lane — so disjoint lane sets can run
in separate processes with nothing to exchange mid-run.  Every worker
rebuilds the *identical* world from ``(spec, seed)`` —
:func:`repro.harness.experiment.prepare_run` is a pure function of those two
values — drops the pending events of the lanes it does not own
(:meth:`repro.sim.core.Simulator.restrict_lanes`), and runs the
kernel to completion.  Should a lane schedule into a lane its worker does
not own, the kernel raises :class:`~repro.errors.SimulationError`: the spec
was not lane-closed after all.

Results are field-identical to the in-process run: workers ship their lanes'
store partitions, finalized group logs, per-thread outcomes, crash records
and network counters home, the parent installs them into its own (never-run)
world, and the offline phase (§3 invariants, metrics) proceeds exactly as an
in-process run's does.  A lane-closed run has no 2PC or queue traffic, so
there is no cross-group state to resolve between the lanes.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSpec,
    finish_run,
    prepare_run,
)

if TYPE_CHECKING:  # pragma: no cover
    from multiprocessing.connection import Connection

#: Message shapes on the worker -> parent pipe: ("final", payload) |
#: ("error", repr).  A worker runs its lanes to completion as soon as it
#: starts, finalizes its owned groups' logs (the per-replica Paxos rescan,
#: parallelized for free), ships one payload — including those logs — and
#: exits.


def resolve_workers(n_lanes: int, requested: int | None) -> int:
    """Worker-process count for one sharded-mp run.

    The default is one worker per lane, capped by the CPU count.  An
    *explicit* request is honored up to the lane count even when it
    oversubscribes the machine — worker count is also a correctness dial
    (the digest tests deliberately split lanes over more workers than a
    small machine has cores) — but it draws the same warning the ``--jobs``
    clamp gives, so nobody thrashes the scheduler unknowingly.
    """
    cpus = os.cpu_count() or 1
    if requested is None:
        return max(1, min(n_lanes, cpus))
    if requested < 1:
        raise ValueError(f"shard_workers must be >= 1, got {requested}")
    workers = min(requested, n_lanes)
    if workers > cpus:
        import warnings

        warnings.warn(
            f"shard_workers={workers} oversubscribes {cpus} CPU(s); the "
            "run stays correct but gains no further parallelism",
            RuntimeWarning,
            stacklevel=2,
        )
    return workers


def partition_lanes(n_lanes: int, workers: int) -> list[tuple[int, ...]]:
    """Contiguous lane blocks, one per worker (worker 0 gets the shared lane)."""
    workers = min(workers, n_lanes)
    blocks: list[tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = n_lanes // workers + (1 if index < n_lanes % workers else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def _worker_payload(cluster, drivers, owned: set[int]) -> dict[str, Any]:
    """Everything a worker's lanes produced, in picklable form.

    On ``retain_outcomes=False`` drivers the per-thread sinks are
    O(histogram-bucket) :class:`~repro.harness.metrics.OutcomeAggregate`
    payloads instead of outcome lists — the shipping (and the parent's
    ``absorb_thread_outcomes``) is sink-agnostic, so aggregate-only runs
    never serialize per-transaction outcomes across the process boundary.
    """
    stores = {
        key: store.dump_state()
        for key, store in cluster.lane_stores.items()
        if key[1] in owned
    }
    outcomes = []
    for index, driver in enumerate(drivers):
        lanes = driver.thread_lanes()
        shipped = {
            thread: results
            for thread, results in driver.thread_outcomes().items()
            if lanes.get(thread, 0) in owned
        }
        outcomes.append((index, shipped))
    return {
        "stores": stores,
        "outcomes": outcomes,
        # Crash records are lane-local (each worker's injector only fires
        # in lanes it executes), so the parent's union is disjoint.
        "crashes": cluster.crash_records,
        "net_stats": cluster.network.stats,
        "processed": cluster.env.sim.processed_events,
    }


def _worker_main(conn: "Connection", spec: ExperimentSpec, seed: int,
                 lanes: tuple[int, ...]) -> None:
    """One worker: rebuild the world, run the owned lanes, ship the result."""
    try:
        cluster, drivers = prepare_run(spec, seed)
        owned = set(lanes)
        cluster.env.sim.restrict_lanes(owned)
        cluster.run()
        # Finalize before dumping: the store snapshots must carry the
        # chosen marks the rescan records, so the parent's world state
        # matches a serially-finalized one.
        logs = {
            group: cluster.finalize(group)
            for group in cluster.groups
            if cluster.shard_map.lane_of(group) in owned
        }
        payload = _worker_payload(cluster, drivers, owned)
        payload["logs"] = logs
        conn.send(("final", payload))
    except BaseException as exc:  # surface in the parent, don't hang it
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
        raise


def run_once_sharded_mp(spec: ExperimentSpec, seed: int = 0) -> ExperimentResult:
    """Execute one lane-closed cell with its lanes fanned over workers.

    Field-identical to ``engine="global"`` at the same ``shards`` — the
    workers merely execute disjoint lane sets elsewhere.
    """
    from multiprocessing import get_context

    if not spec.lane_closed:
        raise ValueError(
            f"cell {spec.name!r} is not lane-closed; run it in-process "
            "(run_once does)"
        )
    cluster, drivers = prepare_run(spec, seed)
    n_lanes = cluster.shard_map.n_lanes
    blocks = partition_lanes(
        n_lanes, resolve_workers(n_lanes, spec.cluster.shard_workers)
    )

    ctx = get_context("spawn")
    pipes = []
    procs = []
    try:
        for block in blocks:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, spec, seed, block),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)

        sim = cluster.env.sim
        group_logs: dict = {}
        for index, conn in enumerate(pipes):
            reply = conn.recv()
            if reply[0] == "error":
                raise RuntimeError(f"sharded worker {index} failed: {reply[1]}")
            payload = reply[1]
            group_logs.update(payload["logs"])
            for key, state in payload["stores"].items():
                cluster.lane_stores[key].load_state(state)
            for driver_index, shipped in payload["outcomes"]:
                drivers[driver_index].absorb_thread_outcomes(shipped)
            cluster.crash_records.extend(payload["crashes"])
            cluster.network.stats.absorb(payload["net_stats"])
            sim._processed_events += payload["processed"]
        # Deterministic order regardless of worker count: the serial
        # engine appends in fire order, which this key reconstructs.
        cluster.crash_records.sort(
            key=lambda r: (r.crash_ms, r.datacenter, r.lane)
        )
    finally:
        for conn in pipes:
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
    return finish_run(spec, cluster, drivers, group_logs=group_logs)
