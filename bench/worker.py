"""Timed side of the benchmark, one fresh process per run.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE OUT_JSON TMP_DIR

Started by ``bench/run.py`` with the thread-pinned environment and
``PYTHONPATH`` set to the checkout's ``src``. Builds the workload's items
from the seed, imports invcert and makes the warm-up call. Items that run
once (the n=8 reproducer) are timed first. Then it calls the stream of
items in order, one at a time, until SECONDS have passed (at least one
item).

After each item the worker runs the workload's tick, a fixed piece of
work that uses no invcert and resembles the item's own mix, until the
ticks have taken about ``TICK_SHARE`` of the items' time. The ticks sample the
machine's speed all along the stream, in chunks of at least ``CHUNK_S``
seconds and ``CHUNK_TICKS`` ticks, so the parent can scale each item's
time to the speed of the baseline machine (see ``run.py``).

With TRACE 1 it then calls the same items again with the layer
boundaries wrapped, and records the spans. Raw times and outcomes go to
OUT_JSON for the parent to check; TMP_DIR holds the CLI documents.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import workloads
from probe import import_invcert, warm_up
from tracing import Tracer, install

TICK_SHARE = 0.2
CHUNK_S = 2.0
CHUNK_TICKS = 30
_TICK_VECTORS = np.random.default_rng(12345).normal(size=(24, 12))
_TICK_TABLEAU = np.random.default_rng(7).uniform(1.0, 2.0, size=(120, 136))


def _python_tick() -> None:
    """Python arithmetic and small-array numpy, the mix of ``certify_map``."""
    x = np.zeros(12)
    total = 0
    for i in range(400):
        r = _TICK_VECTORS @ (_TICK_VECTORS[i % 24] + x)
        j = int(np.argmax(r))
        x[j % 12] += 1e-3 * r[j]
        total += sum(k * k for k in range(12))


def _tableau_tick() -> None:
    """Rank-one updates of a tableau the size of an n=6, m=20 pattern LP."""
    T = _TICK_TABLEAU.copy()
    for i in range(80):
        T -= np.outer(1e-3 * T[:, (7 * i) % 136], T[i % 120])


# Each workload's tick and the tick's median time on the baseline machine.
TICKS = {
    "cli-small": (_python_tick, 0.0025),
    "bilinear-sweep": (_python_tick, 0.0025),
    "near-identity": (_tableau_tick, 0.002),
    "random-families": (_tableau_tick, 0.002),
}


class Clock:
    """The stream's time box and the machine-speed samples taken along it."""

    def __init__(self, tick, seconds: float):
        self.tick = tick
        self.deadline = time.perf_counter() + seconds
        self.chunks: list[list[float]] = [[]]  # tick times, one list per chunk
        self.chunk_of: list[int] = []  # the chunk of each item
        self._chunk_start = time.perf_counter()
        self._budget = 0.0

    def running(self) -> bool:
        return not self.chunk_of or time.perf_counter() < self.deadline

    def after(self, spent: float) -> None:
        """Tick until ticks have taken ``TICK_SHARE`` of the items' time so far.

        A chunk ticks at least once, right after its first item.
        """
        ticks = self.chunks[-1]
        self.chunk_of.append(len(self.chunks) - 1)
        self._budget += TICK_SHARE * spent
        while self._budget > 0 or not ticks:
            start = time.perf_counter()
            self.tick()
            ticks.append(time.perf_counter() - start)
            self._budget -= ticks[-1]
        if len(ticks) >= CHUNK_TICKS and time.perf_counter() - self._chunk_start >= CHUNK_S:
            self.chunks.append([])
            self._chunk_start = time.perf_counter()


def _report_record(report) -> dict:
    return {
        "verdict": report.verdict,
        "degenerate_column": report.degenerate_column,
        "patterns": [
            [list(r.pattern.signs), r.status, r.lp_margin,
             None if r.certificate is None else r.certificate.a.tolist(),
             None if r.certificate is None else r.certificate.epsilon]
            for r in report.pattern_results
        ],
    }


def _in_process_pass(invcert, workload, subjects, tracer, clock=None):
    """Time top-level calls; returns (wall seconds, per-item records).

    Names are looked up on the package at each call, so a traced pass
    goes through the wrappers ``install`` put there. With a ``clock``, the
    pass stops when the clock runs out and ticks after each item; the wall
    time then includes the ticks.
    """
    certify = "certify_map" if workload == "bilinear-sweep" else "certify_matrix_family"
    outcomes = []
    start = time.perf_counter()
    for k, subject in enumerate(subjects):
        if clock is not None and not clock.running():
            break
        if tracer is not None:
            tracer.item = k
        t0 = item_start = time.perf_counter()
        try:
            report = getattr(invcert, certify)(subject)
            outcome = {"t": time.perf_counter() - t0, "report": report}
            if workload == "bilinear-sweep" and report.certified:
                t0 = time.perf_counter()
                collision = invcert.sampled_injectivity(subject, workloads.SPOT_TRIALS, seed=k)
                outcome["spot"] = {"t": time.perf_counter() - t0,
                                   "collided": bool(collision.collided)}
        except Exception as exc:  # one failing item must not stop the run
            outcome = {"t": time.perf_counter() - item_start, "error": repr(exc)}
        outcomes.append(outcome)
        if clock is not None:
            clock.after(time.perf_counter() - item_start)
    wall = time.perf_counter() - start
    for outcome in outcomes:
        if "report" in outcome:
            outcome["report"] = _report_record(outcome["report"])
    return wall, outcomes


def _cli_call(cli, path: str, args) -> dict:
    """``invcert --input path args`` in this process: exit code, stdout, stderr.

    An exception that escapes ``main`` gives exit code 1 and a traceback
    on stderr, as it would in a process of its own.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--input", path, *args])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _cli_pass(cli, docs, tmp, tracer, clock=None):
    """Closed loop, one client: one ``invcert.cli.main`` call per document.

    Each document is written to its own file before its first call,
    outside the timed region.
    """
    outcomes = []
    start = time.perf_counter()
    for k, doc in enumerate(docs):
        if clock is not None and not clock.running():
            break
        if tracer is not None:
            tracer.item = k
        path = os.path.join(tmp, f"doc-{k}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc.text)
        t0 = time.perf_counter()
        outcome = _cli_call(cli, path, doc.args)
        outcome["t"] = time.perf_counter() - t0
        outcomes.append(outcome)
        if clock is not None:
            clock.after(outcome["t"])
    return time.perf_counter() - start, outcomes


def run(workload: str, seed: int, seconds: int, trace: bool, out: str, tmp: str) -> None:
    items, once = workloads.make(workload, seed, seconds)
    invcert = import_invcert()
    warm_up(invcert, workload)
    tick, tick_ref_s = TICKS[workload]
    result = {"tick_ref_s": tick_ref_s}
    if workload == "cli-small":
        import invcert.cli as cli

        clock = Clock(tick, seconds)
        _, outcomes = _cli_pass(cli, items, tmp, None, clock)
    else:
        def subjects_of(batch):
            if workload == "bilinear-sweep":
                return [invcert.ControlNet((1, 1), item.points) for item in batch]
            return [[invcert.GeneratorSet(j, c) for j, c in enumerate(cols)] for cols in batch]

        subjects = subjects_of(items)
        if once:
            result["once_wall_s"], result["once_outcomes"] = _in_process_pass(
                invcert, workload, subjects_of(once), None)
        clock = Clock(tick, seconds)
        _, outcomes = _in_process_pass(invcert, workload, subjects, None, clock)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(outcomes=outcomes, chunks=clock.chunks, chunk_of=clock.chunk_of,
                  peak_rss_mb=peak / 1024.0)

    if trace:
        done = len(outcomes)
        tracer = Tracer()
        install(tracer)
        if workload == "cli-small":
            traced_wall, traced = _cli_pass(cli, items[:done], tmp, tracer)
        else:
            traced_wall, traced = _in_process_pass(invcert, workload, subjects[:done], tracer)
        untraced = sum(o["t"] + o.get("spot", {}).get("t", 0.0) for o in outcomes)
        result.update(traced_wall_s=traced_wall, spans=tracer.spans, traced_outcomes=traced,
                      untraced_wall_s=untraced)

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1",
        sys.argv[5], sys.argv[6])
