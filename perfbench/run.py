"""The repository benchmark: four named cells of the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig7-contended --seed 0 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the cell
once more with span tracing installed and prints the per-layer metrics and
a self-time table.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count cell executions.  A fuller record (run metadata, input
sizes, per-round timings, digests) is written under ``perfbench/results/``,
and a traced run also writes its spans there.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fig7-contended", "mix-2pc-queue", "lanes64", "openloop-brownout")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized cells (the benchmark's own tests)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import bench

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"run": bench.run_metadata(args.workload, args.seed, args.seconds,
                                        bool(args.trace))}
    print("run:", json.dumps(record["run"]), flush=True)
    correct, attempted, failed, metrics = True, 1, 0, {}
    try:
        if args.trace:
            outcome = bench.measure_traced(
                args.workload, args.seed, args.seconds, tiny=args.tiny,
                # One spans file per workload (the latest traced run): a
                # full-size trace is several megabytes.
                spans_path=bench.RESULTS / f"{args.workload}.spans.csv.gz",
            )
            print(bench.self_time_table(outcome))
            metrics = {
                metric.name: {"value": outcome["metrics"][metric.name],
                              "unit": metric.unit}
                for metric in bench.layers.METRICS
            }
        else:
            outcome = bench.measure(args.workload, args.seed, args.seconds,
                                    tiny=args.tiny)
            metrics = {
                metric: {"value": outcome["metrics"][metric], "unit": unit}
                for metric, unit in bench.END_TO_END
            }
            for metric, entry in metrics.items():
                print(f"{metric:<16}{entry['value']:>14.6g} {entry['unit']}")
        for size in outcome["inputs"]:
            print("input:", json.dumps(size))
        attempted = outcome["attempted"]
        record.update(outcome)
    except (bench.CheckFailed, AssertionError) as exc:
        # AssertionError covers the invariant suite's violations.
        traceback.print_exc()
        correct, failed, metrics = False, 1, {}
        record["error"] = repr(exc)
    bench.RESULTS.mkdir(parents=True, exist_ok=True)
    (bench.RESULTS / f"{name}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
