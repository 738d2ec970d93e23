"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import bench, cells, layers, run  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_counts():
    end_to_end = [name for name, _unit in bench.END_TO_END]
    per_layer = [metric.name for metric in layers.METRICS]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert len(end_to_end) <= 16
    assert len(per_layer) <= 128


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(bench.END_TO_END)
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS
    ]
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in cells.WORKLOADS.values()
    ]
    assert tuple(cells.WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace, capsys):
    code = run.main([
        "--workload", workload, "--seed", "0", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", ["fig7-contended", "mix-2pc-queue", "openloop-brownout"])
def test_tracing_leaves_the_digest_unchanged(workload):
    spec = cells.build(workload, tiny=True)
    untraced = bench.execute(spec, 2)
    tracer = Tracer()
    tracer.install(layers.targets(tracer))
    try:
        traced = bench.execute(spec, 2)
    finally:
        tracer.uninstall()
    assert tracer.calls["sim.run"] == 1 and tracer.calls["net.send"] > 0
    assert traced.digest == untraced.digest
    # Uninstalling restores the originals: nothing is traced afterwards.
    calls = dict(tracer.calls)
    bench.execute(spec, 2)
    assert tracer.calls == calls


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "fig7-contended",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_execution_matches_run_once(workload):
    from repro.harness.experiment import run_once
    from repro.harness.parallel import metrics_digest

    spec = cells.build(workload, tiny=True)
    assert bench.execute(spec, 3).digest == metrics_digest([run_once(spec, 3)])
