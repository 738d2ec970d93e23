"""Measure one workload: untraced end-to-end metrics, or a traced per-layer run.

A *cell execution* is one ``(spec, seed)`` run through the public harness:
``prepare_run``, ``Cluster.run`` and ``finish_run``.

End-to-end metrics (``--trace 0``): the first sub-seed is executed once,
untimed, to warm the process up; then the workload's cell is executed for
each of its other sub-seeds (or again for the only one), in rounds, until
the time budget is spent.  Wall metrics are medians over rounds; the
simulated metrics are means over all sub-seeds (the harness's trial
average), each one exactly what ``run_once`` gives for that seed.  Every
repeat of a sub-seed must reproduce its metrics digest.

Per-layer metrics (``--trace 1``): the first sub-seed is executed untraced,
then once more with the tracer installed.  The two digests must match.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

# Called through the module, so the traced run reaches the tracer's wrappers.
from repro.harness import experiment
from repro.harness.experiment import ExperimentSpec
from repro.harness.parallel import metrics_digest

from perfbench import cells, layers
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

#: Sub-seeds per run.  The open-loop cell runs past its saturation knee
#: with faults, so one seed's commit ratio and p99 swing with where its hot
#: users land; p99 falls on histogram buckets about 9% apart and varies by
#: 17% between seeds, and the mean of four seeds is steady.  The
#: closed-loop cells are steady on one seed.
SUBSEEDS = {"openloop-brownout": 4}
#: Extra ``prepare_run`` calls per run, so ``setup_s`` is a median of many.
SETUP_REPEATS = 15

END_TO_END = (
    ("wall_s", "s"),
    ("txn_per_wall_s", "txn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_ratio", "fraction"),
    ("commit_p50_ms", "sim_ms"),
    ("commit_p99_ms", "sim_ms"),
    ("goodput_per_s", "txn/sim_s"),
)
SIMULATED = ("commit_ratio", "commit_p50_ms", "commit_p99_ms", "goodput_per_s")


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Execution:
    """One cell execution's result and sizes; the world it ran in is not
    kept, so peak memory does not grow with the number of executions."""

    seed: int
    wall_s: float
    result: Any
    events: int
    messages: int
    phases: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def __post_init__(self) -> None:
        self.digest = metrics_digest([self.result])


def _sizes(cluster) -> dict[str, int]:
    return {"events": cluster.env.sim.processed_events,
            "messages": cluster.network.stats.sent}


def execute(spec: ExperimentSpec, seed: int) -> Execution:
    """One cell execution through the public harness, timed by phase."""
    gc.collect()
    started = perf_counter()
    cluster, drivers = experiment.prepare_run(spec, seed)
    prepared = perf_counter()
    cluster.run()
    ran = perf_counter()
    result = experiment.finish_run(spec, cluster, drivers)
    finished = perf_counter()
    return Execution(
        seed, finished - started, result, **_sizes(cluster),
        phases={"prepare_s": prepared - started, "run_s": ran - prepared,
                "finish_s": finished - ran},
    )


def attempted_transactions(metrics) -> int:
    """Transactions attempted: open-loop arrivals include the shed ones."""
    return metrics.open_loop.offered if metrics.open_loop else metrics.n_transactions


def simulated(metrics) -> dict[str, float]:
    """The paper's outputs for one execution."""
    attempted = attempted_transactions(metrics)
    if metrics.open_loop is not None:
        goodput = metrics.goodput_per_s
    else:
        goodput = metrics.commits / (metrics.duration_ms / 1000.0)
    return {
        "commit_ratio": metrics.commits / attempted,
        "commit_p50_ms": metrics.commit_latency.p50_ms,
        "commit_p99_ms": metrics.commit_latency.p99_ms,
        "goodput_per_s": goodput,
    }


def input_size(execution: Execution) -> dict[str, Any]:
    metrics = execution.result.metrics
    attempted = attempted_transactions(metrics)
    return {
        "seed": execution.seed,
        "transactions_attempted": attempted,
        "transactions_committed": metrics.commits,
        "transactions_failed": attempted - metrics.commits,
        "simulated_ms": metrics.duration_ms,
        "events": execution.events,
        "messages": execution.messages,
        "digest": execution.digest,
        "phases_s": execution.phases,
        "queue_sends": metrics.queue.sends,
        "queue_drained_offline": metrics.queue.drained_offline,
        "recovery_ms": metrics.availability.recovery_ms if metrics.availability else None,
        "zero_windows": metrics.availability.zero_windows if metrics.availability else None,
    }


def check(workload: str, execution: Execution) -> None:
    """Workload-specific output checks (the invariant suite already ran in
    ``finish_run`` for every cell whose spec asks for it)."""
    metrics = execution.result.metrics
    if metrics.commits <= 0:
        raise CheckFailed(f"{workload} seed {execution.seed}: nothing committed")
    if workload != "openloop-brownout":
        return
    stats = metrics.open_loop
    if stats.offered != stats.admitted + stats.dropped or stats.completed != stats.admitted:
        raise CheckFailed(f"open-loop accounting does not add up: {stats}")
    if metrics.node_crashes != 1 or metrics.node_restarts != 1:
        raise CheckFailed(
            f"expected one crash and one restart, saw {metrics.node_crashes} "
            f"and {metrics.node_restarts}"
        )
    report = metrics.availability
    if report is None or not math.isfinite(report.recovery_ms):
        raise CheckFailed(f"recovery is not finite: {report}")
    # Zero-commit windows are reported (``zero_windows`` in the run record,
    # ``failures.zero_windows`` traced), not failed on: under this overload
    # goodput dips to zero for a window on some seeds, also between the two
    # faults, so a check on them would fail the benchmark at random.


def check_repeat(first: Execution, again: Execution) -> None:
    if again.digest != first.digest:
        raise CheckFailed(
            f"seed {first.seed}: metrics digest changed between executions "
            f"({first.digest[:12]} then {again.digest[:12]})"
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """End-to-end metrics of one workload (tracing off)."""
    spec = cells.build(workload, tiny)
    k = SUBSEEDS.get(workload, 1)
    subseeds = [seed * k + i for i in range(k)]
    started = perf_counter()
    # The first execution in a process runs up to a third slower than the
    # next ones (lanes64 on a 2-vCPU VM), so a median over two or three
    # rounds swung with whether a cold one was among them: it is not timed.
    warm = execute(spec, subseeds[0])
    check(workload, warm)
    first: dict[int, Execution] = {subseeds[0]: warm}
    timed = subseeds[1:] or subseeds
    rounds: list[tuple[float, int]] = []
    prepare_times: list[float] = []
    executions = 1
    while True:
        round_wall = 0.0
        round_commits = 0
        for sub in timed:
            execution = execute(spec, sub)
            executions += 1
            prepare_times.append(execution.phases["prepare_s"])
            round_wall += execution.wall_s
            round_commits += execution.result.metrics.commits
            if sub in first:
                check_repeat(first[sub], execution)
            else:
                check(workload, execution)
                first[sub] = execution
            del execution
        rounds.append((round_wall, round_commits))
        elapsed = perf_counter() - started
        if elapsed + round_wall > seconds:
            break
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        experiment.prepare_run(spec, subseeds[0])
        prepare_times.append(perf_counter() - t0)
    per_seed = [simulated(first[sub].result.metrics) for sub in subseeds]
    metrics = {
        "wall_s": statistics.median(wall / len(timed) for wall, _ in rounds),
        "txn_per_wall_s": statistics.median(commits / wall for wall, commits in rounds),
        "setup_s": statistics.median(prepare_times),
        "peak_rss_mb": peak_rss_mb(),
        **{
            name: statistics.fmean(values[name] for values in per_seed)
            for name in SIMULATED
        },
    }
    return {
        "metrics": metrics,
        "attempted": executions,
        "rounds": [{"wall_s": wall, "commits": commits} for wall, commits in rounds],
        "inputs": [input_size(first[sub]) for sub in subseeds],
        "per_seed": per_seed,
    }


def measure_traced(workload: str, seed: int, seconds: float, tiny: bool = False,
                   spans_path: Path | None = None) -> dict:
    """Per-layer metrics of one workload from one traced execution."""
    spec = cells.build(workload, tiny)
    sub = seed * SUBSEEDS.get(workload, 1)
    started = perf_counter()
    untraced: list[Execution] = []
    while True:
        untraced.append(execute(spec, sub))
        if len(untraced) > 1:
            check_repeat(untraced[0], untraced[-1])
        if perf_counter() - started + 3 * untraced[-1].wall_s > seconds:
            break
    check(workload, untraced[0])
    untraced_wall = statistics.median(e.wall_s for e in untraced)

    tracer = Tracer()
    tracer.install(layers.targets(tracer))
    try:
        gc.collect()
        t0 = perf_counter()
        cluster, drivers = experiment.prepare_run(spec, sub)
        cluster.run()
        result = experiment.finish_run(spec, cluster, drivers)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    traced = Execution(sub, wall, result, **_sizes(cluster),
                       phases={"prepare_s": tracer.busy["harness.prepare"]})
    if traced.digest != untraced[0].digest:
        raise CheckFailed(
            f"tracing changed the metrics digest ({untraced[0].digest[:12]} "
            f"untraced, {traced.digest[:12]} traced)"
        )
    self_by_layer = tracer.layer_self_times()
    remainder = wall - tracer.root_seconds()
    accounted = sum(self_by_layer.values()) + remainder
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        raise CheckFailed(
            f"layer self times plus remainder ({accounted:.6f}s) do not add up "
            f"to the traced wall time ({wall:.6f}s)"
        )
    if spans_path is not None:
        tracer.dump(spans_path)
    return {
        "metrics": layers.compute(
            tracer, cluster, result, wall, untraced_wall,
            statistics.median(e.phases["run_s"] for e in untraced),
        ),
        "attempted": len(untraced) + 1,
        "traced_wall_s": wall,
        "untraced_wall_s": [e.wall_s for e in untraced],
        "self_s": dict(sorted(self_by_layer.items())),
        "remainder_s": remainder,
        "spans": len(tracer.span_start),
        "inputs": [input_size(traced)],
    }


def self_time_table(record: dict) -> str:
    wall = record["traced_wall_s"]
    lines = [f"{'layer':<16}{'self_s':>10}{'share':>8}"]
    rows = sorted(record["self_s"].items(), key=lambda item: -item[1])
    rows.append(("(untraced)", record["remainder_s"]))
    for layer, seconds in rows:
        lines.append(f"{layer:<16}{seconds:>10.4f}{seconds / wall:>8.1%}")
    lines.append(f"{'traced wall':<16}{wall:>10.4f}{1:>8.1%}")
    return "\n".join(lines)


def run_metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "subseeds": SUBSEEDS.get(workload, 1),
    }


def _git_commit() -> str | None:
    """HEAD of the repository this file sits in, if it is a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def _source_hash() -> str:
    """Digest of the program's sources, which names the code under test
    where there is no git history."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
