"""Micro-benchmark of the simulation kernel and the invariant checkers.

Three single-process throughput numbers, chosen because every figure bench
is built out of exactly these three costs:

* **events/sec** — a timeout chain: the pure scheduler loop (heap push/pop,
  event processing, process resumption).
* **messages/sec** — request/response ping-pong over the VVV topology: the
  network hot path (latency draw, delivery scheduling, gather completion).
* **invariant-checks/sec** — the full §3 suite plus the MVSG oracle over a
  finished single-group contention run: the offline checker hot path.

Unlike the figure benches (one deterministic simulation per invocation),
these loops exist to catch pathological slowdowns in the substrate — and,
via the committed baseline JSON (``benchmarks/baselines/kernel.json``), to
give perf work a trajectory:

    PYTHONPATH=src python benchmarks/bench_kernel.py            # measure
    PYTHONPATH=src python benchmarks/bench_kernel.py --record   # new baseline
    PYTHONPATH=src python benchmarks/bench_kernel.py --check    # CI gate

``--check`` fails (exit 1) when events/sec drops more than ``--tolerance``
(default 30%) below the committed baseline; the other metrics warn only,
because CI machine variance on the network/checker loops is wider.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script mode: put the repo root on sys.path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import BASELINES_DIR
from repro.harness.profiling import run_profiled

BASELINE_PATH = BASELINES_DIR / "kernel.json"

#: Loop sizes: full scale and the CI smoke scale.
SCALES = {
    "full": {"chain_procs": 100, "chain_hops": 2000, "messages": 20000,
             "check_transactions": 150, "check_rounds": 5},
    "smoke": {"chain_procs": 50, "chain_hops": 500, "messages": 5000,
              "check_transactions": 60, "check_rounds": 2},
}

#: Best-of-N timing: the max is the machine's capability; the rest is noise.
REPEATS = 3


def measure_events_per_sec(chain_procs: int, chain_hops: int) -> float:
    """Pure scheduler throughput: N processes × M timeout hops."""
    from repro.sim.env import Environment

    def chain(env, hops):
        for _ in range(hops):
            yield env.timeout(1.0)

    best = 0.0
    for _ in range(REPEATS):
        env = Environment(seed=1)
        for _ in range(chain_procs):
            env.process(chain(env, chain_hops))
        started = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - started
        best = max(best, env.sim.processed_events / elapsed)
    return best


def measure_messages_per_sec(messages: int) -> float:
    """Network hot path: sequential request/response over two datacenters."""
    from repro.net.latency import RttMatrixLatency
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.net.topology import cluster_preset
    from repro.sim.env import Environment

    best = 0.0
    for _ in range(REPEATS):
        env = Environment(seed=1)
        topology = cluster_preset("VVV")
        network = Network(env, topology, RttMatrixLatency(topology))
        client = Node(env, network, "client", topology.names[0])
        server = Node(env, network, "server", topology.names[1])
        server.on("ping", lambda msg: msg.payload)

        def pinger(env):
            for index in range(messages):
                yield client.request("server", "ping", index)

        env.process(pinger(env))
        started = time.perf_counter()
        env.run()
        elapsed = time.perf_counter() - started
        best = max(best, network.stats.sent / elapsed)
    return best


def measure_invariant_checks_per_sec(check_transactions: int,
                                     check_rounds: int) -> float:
    """Offline checker throughput over a finished contention run.

    One Figure-7-style single-group run (every transaction fights over one
    row, the regime where version chains get long) is built outside the
    timed region; the timed region runs the full §3 suite + MVSG oracle
    ``check_rounds`` times.  Reported as checked transactions per second.
    """
    from repro.cluster import Cluster
    from repro.config import ClusterConfig, WorkloadConfig
    from repro.workload.driver import WorkloadDriver

    cluster = Cluster(ClusterConfig(seed=1))
    workload = WorkloadConfig(
        n_transactions=check_transactions, n_rows=1, n_threads=8,
        target_rate_per_thread=8.0,
    )
    driver = WorkloadDriver(cluster, workload, "paxos-cp",
                            datacenter=cluster.topology.names[0])
    driver.install_data()
    driver.start()
    cluster.run()
    logs = cluster.finalize_all()
    outcomes = driver.result.outcomes

    best = 0.0
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(check_rounds):
            cluster.check_invariants_all(outcomes, logs=dict(logs))
        elapsed = time.perf_counter() - started
        best = max(best, check_rounds * len(outcomes) / elapsed)
    return best


def measure(scale: str) -> dict[str, float]:
    sizes = SCALES[scale]
    return {
        "events_per_sec": measure_events_per_sec(
            sizes["chain_procs"], sizes["chain_hops"]),
        "messages_per_sec": measure_messages_per_sec(sizes["messages"]),
        "invariant_checks_per_sec": measure_invariant_checks_per_sec(
            sizes["check_transactions"], sizes["check_rounds"]),
    }


def baseline_metrics(baseline: dict | None, scale: str) -> dict[str, float]:
    """The committed numbers for *scale*.

    Scales are separate baselines — the smoke loops are a different
    workload (shorter chains amortize differently, the checker's cost is
    superlinear in history length), so comparing across scales would hide
    regressions inside the systematic offset.
    """
    return (baseline or {}).get("scales", {}).get(scale, {})


def render(metrics: dict[str, float], baseline: dict | None, scale: str) -> str:
    lines = [f"{'metric':<26} {'current':>14} {'baseline':>14} {'ratio':>7}"]
    base_metrics = baseline_metrics(baseline, scale)
    for name, value in metrics.items():
        recorded = base_metrics.get(name)
        if recorded:
            lines.append(f"{name:<26} {value:>14,.0f} {recorded:>14,.0f} "
                         f"{value / recorded:>6.2f}x")
        else:
            lines.append(f"{name:<26} {value:>14,.0f} {'-':>14} {'-':>7}")
    return "\n".join(lines)


def load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def record_baseline(metrics: dict[str, float], scale: str) -> None:
    """Write this scale's numbers, preserving the other scale's.

    Foreign top-level keys (e.g. ``groups_scaling_64``, recorded by
    bench_groups_scaling ``--sharded64 --record-baseline``) are carried
    through untouched — the file is a shared baseline store.
    """
    BASELINES_DIR.mkdir(exist_ok=True)
    payload = load_baseline() or {}
    scales = payload.get("scales", {})
    scales[scale] = {name: round(value) for name, value in metrics.items()}
    payload.update({
        "schema": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scales": {name: scales[name] for name in sorted(scales)},
    })
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline recorded ({scale}): {BASELINE_PATH}")


def check_sharded_record(baseline: dict | None) -> list[str]:
    """Gate the committed ``groups_scaling_64`` record; [] when clean.

    The record's wall-clocks are a property of the machine that ran
    ``bench_groups_scaling --sharded64 --record-baseline`` — above all of
    its core count, which decides whether the shard workers actually ran in
    parallel.  Comparing a 1-CPU container's record against an 8-core
    expectation (or vice versa) is a mis-gate, so when the recording core
    count differs from this machine's the gate *skips with a message*
    instead of failing.  When the core counts match and cover the shard
    count, the record must show the ≥2x end-to-end speedup the lane-closed
    fan-out exists for; digest equality must hold on any machine.
    """
    import os

    record = (baseline or {}).get("groups_scaling_64")
    if record is None:
        return []
    failures = []
    if not record.get("digest_equal", False):
        failures.append(
            "groups_scaling_64: committed record has digest_equal=false — "
            "the sharded-mp fan-out diverged when it was recorded"
        )
    cpus = os.cpu_count() or 1
    recorded_cpus = record.get("cpus")
    if recorded_cpus != cpus:
        print(
            f"skipping groups_scaling_64 speedup gate: baseline was "
            f"recorded on {recorded_cpus} CPU(s), this machine has {cpus} "
            f"(re-record with bench_groups_scaling.py --sharded64 "
            f"--record-baseline to gate here)",
            file=sys.stderr,
        )
        return failures
    if cpus >= record.get("shards", 8) and record.get("speedup", 0.0) < 2.0:
        failures.append(
            f"groups_scaling_64: recorded speedup {record.get('speedup')}x "
            f"is below the 2x acceptance bar on {cpus} matching core(s)"
        )
    return failures


def check_regression(metrics: dict[str, float], baseline: dict | None,
                     scale: str, tolerance: float) -> int:
    """0 when within tolerance of the baseline, 1 on an events/sec drop."""
    recorded_metrics = baseline_metrics(baseline, scale)
    if not recorded_metrics:
        print(f"no committed baseline for scale {scale!r}; run "
              f"--record{' --smoke' if scale == 'smoke' else ''} first",
              file=sys.stderr)
        return 1
    failures = check_sharded_record(baseline)
    for name, value in metrics.items():
        recorded = recorded_metrics.get(name)
        if not recorded:
            continue
        floor = (1.0 - tolerance) * recorded
        if value < floor:
            message = (f"{name}: {value:,.0f}/s is below the regression floor "
                       f"{floor:,.0f}/s ({tolerance:.0%} under the baseline "
                       f"{recorded:,.0f}/s)")
            if name == "events_per_sec":
                failures.append(message)
            else:
                print(f"warning: {message}", file=sys.stderr)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI loop sizes (quick, noisier)")
    parser.add_argument("--record", action="store_true",
                        help=f"write the measured numbers to {BASELINE_PATH}")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if events/sec regresses past --tolerance "
                             "below the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop under --check "
                             "(default 0.30)")
    # No --jobs here: this benchmark measures one interpreter on purpose.
    parser.add_argument("--profile", action="store_true",
                        help="wrap the measurement in cProfile and print the "
                             "top-20 cumulative functions")
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "full"

    if args.profile:
        metrics = run_profiled(lambda: measure(scale))
    else:
        metrics = measure(scale)
    baseline = load_baseline()
    print(render(metrics, baseline, scale))
    if args.record:
        record_baseline(metrics, scale)
        return 0
    if args.check:
        return check_regression(metrics, baseline, scale, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
