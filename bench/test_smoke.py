"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Not part of the package's test suite (``testpaths`` names only
``tests/``); it takes under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Printed by every untraced run, beyond the JSON end-to-end metrics.
ALWAYS_PRINTED = {"fail_rate", "false_reject_rate", "unsound"}


def _bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check_result(proc, kind: str) -> set[str]:
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in _spec()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    return {line.split()[0] for line in lines}


def test_metric_lists_match_benchmark_json():
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_end_to_end_metrics():
    proc = _bench(ROOT, "near-identity", 0)
    printed = _check_result(proc, "end_to_end")
    assert ALWAYS_PRINTED <= printed
    values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert all(v["value"] > 0 for v in values.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_every_metric(workload):
    printed = _check_result(_bench(ROOT, workload, 1), "per_layer")
    layer_names = set(tracing.layer_metrics([])) | {"trace.wall_s", "lpsolve.wall_share"}
    assert set(run.END_TO_END) | ALWAYS_PRINTED | layer_names <= printed
    if workload == "bilinear-sweep":
        assert "spotcheck_p50_ms" in printed
    if workload == "cli-small":
        assert {"cli.parse_s", "cli.run_s", "cli.render_s"} <= printed


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "cli-small", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
