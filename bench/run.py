"""Benchmark for invcert: four seeded workloads, timed end to end and per layer.

Run from the root of a checkout (numpy and scipy installed; invcert is
imported from ./src, never from site-packages):

    python3 bench/run.py --workload near-identity --seed 1 --seconds 20
    python3 bench/run.py --workload all               # every workload, untraced
    python3 bench/run.py --workload all --trace 1     # per-layer metrics

Each run starts fresh interpreters with BLAS and OpenMP pinned to one
thread and ``PYTHONPATH`` set to ./src: three set-up probes (``probe.py``:
``import invcert`` plus one warm-up call), then one worker (``worker.py``)
that calls a stream of items built from the seed (see ``workloads.py``),
one at a time, for ``--seconds``. With ``--trace 1`` the worker then
calls the same items again with the layer boundaries wrapped (see
``tracing.py``); the difference of the two passes is the tracing
overhead. Afterwards this process checks every output against an
independent HiGHS reference (see ``reference.py``), outside all timed
regions.

The machine's speed drifts by a third and more for tens of seconds at a
time. So the worker runs a calibration tick, a fixed piece of work that
uses no invcert, between items, and every item time is scaled by the
tick's baseline time over the median tick time of the item's chunk (a
stretch of about two seconds). The scaled times are in ``ref_s`` and
``ref_ms``: seconds on the baseline machine. ``setup_s`` and the metrics
named ``*_raw_*`` are not scaled.

Output: one line per metric (name, value, unit), then as the last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. The exit code is 0 when the outputs are correct, 1 when an
output is wrong (``unsound`` > 0 included), 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np
import scipy

import reference
import tracing
import workloads
from workloads import MapSpec

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150

# The JSON metrics of --trace 0.
END_TO_END = ("setup_s", "items_per_s", "item_p50_ms", "peak_rss_mb")
# The JSON metrics of --trace 1: layers that every workload exercises. The
# other layer metrics are printed for the workloads that have them.
PER_LAYER = (
    "import.s", "import.modules", "certify.calls", "certify.self_s",
    "certify.generators", "certify.patterns", "cones.normalize_s", "lpsolve.calls",
    "lpsolve.solve_s", "lpsolve.solve_p50_ms", "lpsolve.solve_p99_ms",
    "lpsolve.rows_p50", "trace.overhead_s",
)
_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_share", "ratio"),
          ("_rate", "ratio"), ("_s", "s"), (".s", "s"))


# Metrics scaled to the baseline machine's speed, and their units.
SCALED = {"items_per_s", "item_p50_ms", "item_p90_ms", "spotcheck_p50_ms"}
_SCALED_UNITS = {"s": "ref_s", "ms": "ref_ms", "1/s": "1/ref_s"}


def unit(name: str) -> str:
    base = next((u for suffix, u in _UNITS if name.endswith(suffix)), "count")
    return _SCALED_UNITS[base] if name in SCALED else base


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas_threads": 1}


def _child_env(root: str) -> dict:
    pinned = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    return dict(os.environ, **pinned, PYTHONPATH=os.path.join(root, "src"))


def _python(script: str, args: list[str], env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc


def _families(name: str, items) -> list:
    """The generator families the reference must judge, one per item."""
    if name == "bilinear-sweep":
        return [reference.map_columns(MapSpec(((it.points, np.ones(2)),))) for it in items]
    return items


def _with_margins(columns_list):
    """Reference margins aligned with ``columns_list`` (None when degenerate)."""
    live = [c for c in columns_list if not reference.is_degenerate(c)]
    solved = iter(reference.margins(live))
    return [None if reference.is_degenerate(c) else next(solved) for c in columns_list]


def _structured_record(report: dict) -> dict:
    return {
        "verdict": report["verdict"],
        "degenerate_column": report["degenerate_column"],
        "patterns": [
            [p["pattern"], p["status"], p["lp_margin"],
             None if p["certificate"] is None else p["certificate"]["a"],
             None if p["certificate"] is None else p["certificate"]["epsilon"]]
            for p in report["pattern_results"]
        ],
    }


def _check_cli(docs, outcomes, tally: reference.Tally) -> None:
    subjects, owners = [], []
    for k, doc in enumerate(docs):
        if doc.subject is None:
            continue
        for spec in (doc.subject, *doc.per_patch_cells):
            subjects.append(reference.map_columns(spec) if isinstance(spec, MapSpec) else spec)
            owners.append(k)
    refs = dict()
    for owner, columns, ref in zip(owners, subjects, _with_margins(subjects)):
        refs.setdefault(owner, []).append((columns, ref))

    for k, (doc, out) in enumerate(zip(docs, outcomes)):
        tally.attempted += 1
        code = out["code"]
        if "Traceback" in out["stderr"]:
            tally.fail(k, f"{doc.category}: traceback on stderr")
            continue
        if doc.subject is None:
            if code != 3:
                tally.fail(k, f"malformed document exited {code}, expected 3")
            continue
        (columns, ref), *cells = refs[k]
        if code not in (0, 1, 2):
            tally.fail(k, f"{doc.category}: undocumented exit code {code}")
            continue
        if doc.structured:
            try:
                payload = json.loads(out["stdout"])
                record = _structured_record(payload)
                per_patch = [_structured_record(e["report"]) for e in payload.get("per_patch", [])]
            except (ValueError, KeyError, TypeError) as exc:
                tally.fail(k, f"{doc.category}: unreadable structured output ({exc!r})")
                continue
            if len(per_patch) != len(cells):
                tally.fail(k, f"{doc.category}: {len(per_patch)} per-patch reports "
                              f"for {len(cells)} cells")
            if not tally.check_report(k, record, columns, ref):
                continue
            for cell_record, (cell_columns, cell_ref) in zip(per_patch, cells):
                tally.check_report(k, cell_record, cell_columns, cell_ref)
            verdict = record["verdict"]
            degenerate = record["degenerate_column"] is not None
            certified = verdict == "strict-v-family"
        else:
            lines = out["stdout"].splitlines()
            verdict = next((ln.split(":", 1)[1].strip() for ln in lines
                            if ln.startswith("verdict:")), None)
            if verdict is None:
                tally.fail(k, f"{doc.category}: no verdict line (exit code {code})")
                continue
            degenerate = any(ln.startswith("DEGENERATE column") for ln in lines)
            if not tally.check_verdict(k, verdict, degenerate, ref):
                continue
            certified = verdict == "STRICT-V-FAMILY"
        expected_code = 2 if degenerate else 0 if certified else 1
        if code != expected_code:
            tally.fail(k, f"{doc.category}: exit code {code} for verdict {verdict}")
        if "SOUNDNESS VIOLATION" in out["stdout"]:
            tally.unsound += 1
            tally.fail(k, f"{doc.category}: sampling found a collision on a certified map")


def _check_in_process(name, items, outcomes, tally: reference.Tally) -> None:
    families = _families(name, items)
    for k, (columns, ref, out) in enumerate(zip(families, _with_margins(families), outcomes)):
        tally.attempted += 1
        if "error" in out:
            tally.fail(k, out["error"])
            continue
        tally.check_report(k, out["report"], columns, ref)
        if out.get("spot", {}).get("collided"):
            tally.unsound += 1
            tally.fail(k, "sampling found a collision on a certified map")


def _verdicts(outcomes) -> list:
    return [o.get("report", {}).get("verdict", o.get("code")) for o in outcomes]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> bool:
    """Run, check and report one workload; returns whether outputs were correct."""
    root = os.getcwd()
    tmp = os.path.join(root, ".bench_run", f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = _child_env(root)
    info = machine()
    try:
        probes = [json.loads(_python("probe.py", [name], env).stdout)
                  for _ in range(SETUP_PROBES)]
        out_file = os.path.join(tmp, "worker.json")
        _python("worker.py", [name, str(seed), str(seconds), str(int(trace)), out_file, tmp],
                env)
        with open(out_file, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    items, once = workloads.make(name, seed, seconds)
    outcomes = result["outcomes"]
    items = items[:len(outcomes)]
    tally = reference.Tally()
    if name == "cli-small":
        _check_cli(items, outcomes, tally)
    else:
        _check_in_process(name, items + once, outcomes + result.get("once_outcomes", []),
                          tally)
    if trace and _verdicts(result["traced_outcomes"]) != _verdicts(outcomes):
        tally.fail(-1, "the traced pass gave different verdicts")

    # Each item's times, scaled by the baseline tick over its chunk's median tick.
    scale = [result["tick_ref_s"] / statistics.median(result["chunks"][c])
             for c in result["chunk_of"]]
    item_s = [f * o["t"] for f, o in zip(scale, outcomes)]
    spot_s = [f * o["spot"]["t"] for f, o in zip(scale, outcomes) if "spot" in o]
    raw_s = sum(o["t"] + o.get("spot", {}).get("t", 0.0) for o in outcomes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "items_per_s": len(outcomes) / (sum(item_s) + sum(spot_s)),
        "item_p50_ms": 1e3 * statistics.median(item_s),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if len(item_s) >= 100:
        metrics["item_p90_ms"] = 1e3 * float(np.quantile(item_s, 0.9))
    if spot_s:
        metrics["spotcheck_p50_ms"] = 1e3 * statistics.median(spot_s)
    if "once_wall_s" in result:
        metrics["reproducer_raw_s"] = result["once_wall_s"]
    metrics["items"] = len(outcomes)
    metrics["items_raw_per_s"] = len(outcomes) / raw_s
    metrics["tick_ms"] = 1e3 * statistics.median(t for c in result["chunks"] for t in c)
    metrics["fail_rate"] = (tally.hard_failures + tally.disagreements) / tally.attempted
    metrics["false_reject_rate"] = (tally.false_rejects / tally.clear_patterns
                                    if tally.clear_patterns else 0.0)
    metrics["unsound"] = tally.unsound

    if trace:
        spans = result["spans"]
        layers = tracing.layer_metrics(spans)
        layers["import.s"] = statistics.median(p["import_s"] for p in probes)
        layers["import.modules"] = statistics.median(p["modules"] for p in probes)
        layers["trace.wall_s"] = result["traced_wall_s"]
        layers["trace.overhead_s"] = result["traced_wall_s"] - result["untraced_wall_s"]
        layers["lpsolve.wall_share"] = layers["lpsolve.solve_s"] / result["traced_wall_s"]
        metrics.update(layers)
        spans_dir = os.path.join(root, ".bench_run")
        with open(os.path.join(spans_dir, f"spans-{name}-seed{seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"machine": info, "workload": name, "seed": seed,
                       "span_fields": ["name", "start", "end", "parent", "item", "count"],
                       "spans": spans}, fh)

    correct = tally.hard_failures == 0 and tally.unsound == 0
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    for note in tally.notes:
        print(f"failure {note}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {unit(key)}")
    chosen = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.hard_failures,
        "metrics": {key: {"value": metrics[key], "unit": unit(key)} for key in chosen},
    }))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "invcert", "__init__.py")):
        print("bench: run from the root of an invcert checkout (no src/invcert here)",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
