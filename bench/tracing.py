"""Spans around invcert's layer boundaries, recorded from outside the package.

Each traced name is replaced where its caller looks it up. ``certify.py``
binds ``normalize_generators``, ``verify_certificate`` and
``grid_column_generators`` into its own namespace and reaches the solver
as ``lpsolve.solve``; ``oracle.py`` binds ``eval_many``; ``cli.py`` binds
the certification entry points, the oracle and the two report renderers
(``report_to_dict``, ``_report_text_lines``). The benchmark worker calls
the package-level names. A name a later version no longer has is skipped,
and the metrics built on it read 0.

A span is ``[name, start, end, parent, item, count]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``item`` the top-level call
it belongs to, and ``count`` a per-call size taken at the boundary (LP
rows, generators, evaluation points, or ``[LPs, decided LPs]`` for a
certification call). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _lp_rows(args, result):
    return int(args[0].constraint_matrix.shape[0])


def _generators(args, result):
    return int(args[0].vectors.shape[0])


def _points(args, result):
    return int(np.shape(args[1])[0])


def _lp_patterns(args, result):
    """[LPs solved, LPs solved after the verdict was already not-certified]."""
    solved = [r for r in result.pattern_results if r.lp_margin is not None]
    first_fail = next((i for i, r in enumerate(solved) if r.status != "strict"), len(solved))
    return [len(solved), max(0, len(solved) - first_fail - 1)]


# (module, attribute, span name, count at the boundary)
TARGETS = (
    ("invcert", "certify_map", "certify", _lp_patterns),
    ("invcert", "certify_matrix_family", "certify", _lp_patterns),
    ("invcert", "sampled_injectivity", "oracle", None),
    ("invcert.certify", "grid_column_generators", "certify.extract", None),
    ("invcert.certify", "normalize_generators", "cones.normalize", _generators),
    ("invcert.certify", "verify_certificate", "cones.verify", None),
    ("invcert.lpsolve", "solve", "lpsolve.solve", _lp_rows),
    ("invcert.oracle", "eval_many", "oracle.eval", _points),
    ("invcert.cli", "parse_input", "cli.parse", None),
    ("invcert.cli", "run", "cli.run", None),
    ("invcert.cli", "report_to_dict", "cli.render", None),
    ("invcert.cli", "_report_text_lines", "cli.render", None),
    ("invcert.cli", "certify_map", "certify", _lp_patterns),
    ("invcert.cli", "certify_matrix_family", "certify", _lp_patterns),
    ("invcert.cli", "sampled_injectivity", "oracle", None),
)


class Tracer:
    """In-memory span recorder; ``item`` tags spans with the current call."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.item, None]
        self.spans.append(record)
        self._open.append(idx)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record[5] = count(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every target the imported invcert version has."""
    for module_name, attr, name, count in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and busy times (seconds, summed over the run)."""
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    durations = defaultdict(list)
    counts = defaultdict(list)
    for idx, (name, start, end, _, _, count) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[idx]
        durations[name].append(end - start)
        if count is not None:
            counts[name].append(count)
    patterns = counts["certify"]
    solved = sum(c[0] for c in patterns)
    decided = sum(c[1] for c in patterns)
    lp_ms = [1e3 * d for d in durations["lpsolve.solve"]]
    return {
        "cli.parse_s": total["cli.parse"],
        "cli.run_s": total["cli.run"],
        "cli.render_s": total["cli.render"],
        "certify.calls": len(durations["certify"]),
        "certify.self_s": self_time["certify"],
        "certify.extract_s": total["certify.extract"],
        "certify.generators": sum(counts["cones.normalize"]),
        "certify.patterns": solved,
        "certify.decided_lp_share": decided / solved if solved else 0.0,
        "cones.normalize_s": total["cones.normalize"],
        "cones.verify_calls": len(durations["cones.verify"]),
        "cones.verify_s": total["cones.verify"],
        "lpsolve.calls": len(lp_ms),
        "lpsolve.solve_s": total["lpsolve.solve"],
        "lpsolve.solve_p50_ms": _quantile(lp_ms, 0.5),
        "lpsolve.solve_p99_ms": _quantile(lp_ms, 0.99),
        "lpsolve.rows_p50": statistics.median(counts["lpsolve.solve"]) if lp_ms else 0,
        "oracle.calls": len(durations["oracle"]),
        "oracle.self_s": self_time["oracle"],
        "oracle.eval_calls": len(durations["oracle.eval"]),
        "oracle.eval_points": sum(counts["oracle.eval"]),
        "oracle.eval_s": total["oracle.eval"],
    }
