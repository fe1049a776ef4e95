"""Command-line front end: document ingestion, certification, reports.

Input documents are JSON with a ``mode`` key selecting the payload shape:

``bb-patch``
    ``degrees`` (per-axis list) and ``control_points``, nested lists whose
    outer nesting follows the axes and whose innermost lists are
    ``dimension``-vectors.
``bb-grid``
    ``breakpoints`` (per-axis ascending lists from 0 to 1) and ``patches``,
    a list of ``{"cell": [...], "degrees": [...], "control_points": ...}``
    objects, one per grid cell.
``matrix-family``
    ``columns``: for each of the ``dimension`` columns, a list of
    ``dimension``-vectors generating that column's cone.

An optional ``options`` object may set ``delta``, ``threshold`` and
``format`` (``text`` or ``structured``); command-line flags override it.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 certified,
1 not certified, 2 degenerate input, 3 usage or parse error, 4 internal
error (a solver or certification failure that should not happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import ControlNet, PatchGrid
from .certify import (
    DEFAULT_THRESHOLD,
    CertificateReport,
    VERDICT_STRICT,
    _certify_cells,
    certify_map,
    certify_matrix_family,
)
from .cones import DEFAULT_DELTA, GeneratorSet
from .oracle import MAX_TRIALS, sampled_injectivity

__all__ = [
    "InputDocument",
    "InputError",
    "emit_report",
    "main",
    "parse_input",
    "report_to_dict",
    "run",
]

MODES = ("bb-patch", "bb-grid", "matrix-family")
FORMATS = ("text", "structured")


class InputError(ValueError):
    """Input document rejected; the message names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class InputDocument:
    """Validated input: payload plus certification options."""

    mode: str
    dimension: int
    payload: object
    delta: float = DEFAULT_DELTA
    threshold: float = DEFAULT_THRESHOLD
    fmt: str = "text"


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise InputError(path, message)


def _finite(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    _require(math.isfinite(value), path, f"number must be finite, got {value!r}")
    return float(value)


def _int_list(raw, path: str, length: int | None = None) -> list[int]:
    _require(isinstance(raw, list), path, "expected a list of integers")
    if length is not None:
        _require(len(raw) == length, path, f"expected {length} entries, got {len(raw)}")
    out = []
    for k, v in enumerate(raw):
        _require(isinstance(v, int) and not isinstance(v, bool),
                 f"{path}[{k}]", f"expected an integer, got {v!r}")
        out.append(v)
    return out


def _vector(raw, path: str, dim: int) -> list[float]:
    _require(isinstance(raw, list), path, "expected a coordinate list")
    _require(len(raw) == dim, path, f"expected {dim} coordinates, got {len(raw)}")
    return [_finite(v, f"{path}[{k}]") for k, v in enumerate(raw)]


def _control_points(raw, path: str, degrees: list[int], dim: int) -> np.ndarray:
    counts = [p + 1 for p in degrees]

    def walk(node, level: int, where: str):
        if level < len(counts):
            _require(isinstance(node, list), where, "expected a nested list")
            _require(
                len(node) == counts[level],
                where,
                f"expected {counts[level]} entries along axis {level}, got {len(node)}",
            )
            return [walk(child, level + 1, f"{where}[{i}]") for i, child in enumerate(node)]
        return _vector(node, where, dim)

    return np.array(walk(raw, 0, path), dtype=float)


def _net_from(obj: dict, path: str, dim: int) -> ControlNet:
    _require("degrees" in obj, path, "missing key 'degrees'")
    degrees = _int_list(obj["degrees"], f"{path}.degrees", dim)
    _require(all(p >= 0 for p in degrees), f"{path}.degrees", "degrees must be nonnegative")
    _require("control_points" in obj, path, "missing key 'control_points'")
    points = _control_points(obj["control_points"], f"{path}.control_points", degrees, dim)
    return ControlNet(tuple(degrees), points)


def parse_input(text: str) -> InputDocument:
    """Parse and fully validate a JSON input document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("", f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "", "top level must be an object")
    _require("mode" in doc, "", "missing key 'mode'")
    mode = doc["mode"]
    _require(mode in MODES, "mode", f"expected one of {MODES}, got {mode!r}")
    _require("dimension" in doc, "", "missing key 'dimension'")
    dim = doc["dimension"]
    _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
             "dimension", f"expected a positive integer, got {dim!r}")

    delta, threshold, fmt = DEFAULT_DELTA, DEFAULT_THRESHOLD, "text"
    options = doc.get("options", {})
    _require(isinstance(options, dict), "options", "expected an object")
    for key in options:
        _require(key in ("delta", "threshold", "format"), f"options.{key}", "unknown option")
    if "delta" in options:
        delta = _finite(options["delta"], "options.delta")
        _require(delta > 0.0, "options.delta", "must be positive")
    if "threshold" in options:
        threshold = _finite(options["threshold"], "options.threshold")
        _require(threshold > 0.0, "options.threshold", "must be positive")
    if "format" in options:
        fmt = options["format"]
        _require(fmt in FORMATS, "options.format", f"expected one of {FORMATS}, got {fmt!r}")

    if mode == "bb-patch":
        payload: object = _net_from(doc, "", dim)
    elif mode == "bb-grid":
        _require("breakpoints" in doc, "", "missing key 'breakpoints'")
        raw_breaks = doc["breakpoints"]
        _require(isinstance(raw_breaks, list) and len(raw_breaks) == dim,
                 "breakpoints", f"expected {dim} per-axis lists")
        breaks = []
        for axis, axis_breaks in enumerate(raw_breaks):
            where = f"breakpoints[{axis}]"
            _require(isinstance(axis_breaks, list) and len(axis_breaks) >= 2,
                     where, "expected at least two coordinates")
            breaks.append([_finite(v, f"{where}[{k}]") for k, v in enumerate(axis_breaks)])
        _require("patches" in doc, "", "missing key 'patches'")
        raw_patches = doc["patches"]
        _require(isinstance(raw_patches, list) and raw_patches,
                 "patches", "expected a non-empty list")
        patches = {}
        for k, entry in enumerate(raw_patches):
            where = f"patches[{k}]"
            _require(isinstance(entry, dict), where, "expected an object")
            _require("cell" in entry, where, "missing key 'cell'")
            cell = tuple(_int_list(entry["cell"], f"{where}.cell", dim))
            for axis, idx in enumerate(cell):
                _require(0 <= idx < len(breaks[axis]) - 1, f"{where}.cell[{axis}]",
                         f"cell index {idx} out of range for axis {axis}")
            _require(cell not in patches, f"{where}.cell", f"duplicate cell {list(cell)}")
            patches[cell] = _net_from(entry, where, dim)
        try:
            payload = PatchGrid(tuple(np.array(b) for b in breaks), patches)
        except ValueError as exc:
            raise InputError("breakpoints/patches", str(exc)) from None
    else:
        _require("columns" in doc, "", "missing key 'columns'")
        raw_cols = doc["columns"]
        _require(isinstance(raw_cols, list) and len(raw_cols) == dim,
                 "columns", f"expected {dim} column lists")
        columns = []
        for j, raw_col in enumerate(raw_cols):
            where = f"columns[{j}]"
            _require(isinstance(raw_col, list) and raw_col,
                     where, "expected a non-empty list of vectors")
            vectors = [_vector(v, f"{where}[{k}]", dim) for k, v in enumerate(raw_col)]
            columns.append(GeneratorSet(j, np.array(vectors)))
        payload = columns

    return InputDocument(mode, dim, payload, delta, threshold, fmt)


def run(doc: InputDocument) -> CertificateReport:
    """Dispatch a validated document to the matching certification call."""
    if doc.mode in ("bb-patch", "bb-grid"):
        return certify_map(doc.payload, doc.delta, doc.threshold)
    return certify_matrix_family(doc.payload, doc.delta, doc.threshold)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(_fmt(float(v)) for v in vec) + ")"


def report_to_dict(report: CertificateReport) -> dict:
    """Structured mirror of a report, JSON-serializable field for field."""
    patterns = []
    for res in report.pattern_results:
        entry: dict = {
            "pattern": list(res.pattern.signs),
            "status": res.status,
            "lp_margin": None if res.lp_margin is None else float(res.lp_margin),
            "certificate": None,
            "witness": None,
            "note": res.note,
        }
        if res.certificate is not None:
            entry["certificate"] = {
                "a": res.certificate.a.tolist(),
                "epsilon": float(res.certificate.epsilon),
            }
        if res.witness is not None:
            entry["witness"] = {
                "weights": res.witness.weights.tolist(),
                "combination": res.witness.combination.tolist(),
                "residual_norm": float(res.witness.residual_norm),
            }
        patterns.append(entry)
    return {
        "dimension": report.dimension,
        "verdict": report.verdict,
        "provenance": report.provenance,
        "delta": report.delta,
        "threshold": report.threshold,
        "generator_counts": None if report.generator_counts is None
        else list(report.generator_counts),
        "min_generator_norms": None if report.min_generator_norms is None
        else list(report.min_generator_norms),
        "degenerate_column": report.degenerate_column,
        "pattern_results": patterns,
    }


def _report_text_lines(report: CertificateReport) -> list[str]:
    lines = [
        f"dimension: {report.dimension}",
        f"provenance: {report.provenance}",
        f"delta: {_fmt(report.delta)}",
        f"threshold: {_fmt(report.threshold)}",
    ]
    if report.generator_counts is not None:
        lines.append("generators per column: "
                     + " ".join(str(c) for c in report.generator_counts))
    if report.min_generator_norms is not None:
        lines.append("min generator norm per column: "
                     + " ".join(_fmt(v) for v in report.min_generator_norms))
    lines.append(f"verdict: {report.verdict.upper()}")
    if report.degenerate_column is not None:
        lines.append(
            f"DEGENERATE column {report.degenerate_column + 1}: "
            f"generators not separated from the origin (delta {_fmt(report.delta)})"
        )
        return lines
    width = max(len(r.pattern.label()) for r in report.pattern_results)
    header = f"{'pattern':<{max(width, 7)}}  {'status':<11} {'margin':<12} {'epsilon':<12} certificate"
    lines.append(header)
    for res in report.pattern_results:
        margin = "-" if res.lp_margin is None else _fmt(res.lp_margin)
        eps = "-" if res.certificate is None else _fmt(res.certificate.epsilon)
        avec = "-" if res.certificate is None else _fmt_vec(res.certificate.a)
        lines.append(
            f"{res.pattern.label():<{max(width, 7)}}  {res.status:<11} "
            f"{margin:<12} {eps:<12} {avec}"
        )
    for res in report.pattern_results:
        if res.note:
            lines.append(f"note ({res.pattern.label()}): {res.note}")
        if res.witness is not None:
            lines.append(
                f"witness ({res.pattern.label()}): weights "
                + " ".join(_fmt(w) for w in res.witness.weights)
                + f"; signed-generator sum {_fmt_vec(res.witness.combination)}"
                + f"; norm {_fmt(res.witness.residual_norm)}"
            )
    return lines


def emit_report(report: CertificateReport, fmt: str = "text") -> str:
    """Render a report as human-readable text or a structured JSON document."""
    if fmt == "structured":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(_report_text_lines(report))


def _oracle_section(doc: InputDocument, report: CertificateReport,
                    trials: int, seed: int) -> tuple[dict, list[str]]:
    collision = sampled_injectivity(doc.payload, trials, seed)
    as_dict: dict = {
        "trials": collision.trials,
        "seed": collision.seed,
        "collided": collision.collided,
        "witness": None,
    }
    lines = [f"oracle trials: {collision.trials}", f"oracle seed: {collision.seed}"]
    if collision.collided:
        u, v, fu, fv = collision.witness
        as_dict["witness"] = {
            "u": u.tolist(), "v": v.tolist(),
            "f_u": fu.tolist(), "f_v": fv.tolist(),
        }
        lines.append(
            f"oracle collision: u {_fmt_vec(u)} v {_fmt_vec(v)} "
            f"F(u) {_fmt_vec(fu)} F(v) {_fmt_vec(fv)}"
        )
    else:
        lines.append("oracle collision: none")
    if report.certified and collision.collided:
        agreement = "SOUNDNESS VIOLATION: certified map with observed collision"
    elif report.certified:
        agreement = "consistent (certified, no collision found)"
    elif collision.collided:
        agreement = "consistent (not certified, collision confirms non-injectivity)"
    else:
        agreement = "no contradiction (rejection does not imply non-injectivity)"
    as_dict["agreement"] = agreement
    lines.append(f"oracle agreement: {agreement}")
    return as_dict, lines


def _per_patch_section(doc: InputDocument) -> tuple[list[dict], list[str]]:
    grid = doc.payload
    entries = []
    lines = ["per-patch verdicts:"]
    for cell in grid.cells():
        sub = _certify_cells(grid, [cell], doc.delta, doc.threshold)
        entries.append({"cell": list(cell), "report": report_to_dict(sub)})
        lines.append(f"cell {tuple(cell)}: {sub.verdict.upper()}")
    return entries, lines


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for degenerate inputs; argparse's
    # default usage-error exit code collides with it.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


# Parsing leaves the parser unchanged, so one process builds it once.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invcert",
        description="Certify global invertibility of piecewise Bezier maps "
                    "and nondegeneracy of matrix families.",
    )
    parser.add_argument("--input", default="-", metavar="PATH",
                        help="input document (default: stdin)")
    parser.add_argument("--delta", type=float, default=None, metavar="REAL",
                        help="separation threshold on generator norms")
    parser.add_argument("--threshold", type=float, default=None, metavar="REAL",
                        help="strictness floor for LP margins")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="report format (overrides the document option)")
    parser.add_argument("--per-patch", action="store_true",
                        help="additionally certify each grid patch alone")
    parser.add_argument("--oracle", type=int, default=None, metavar="TRIALS",
                        help="also run injectivity sampling with this many pairs "
                             f"(1 to {MAX_TRIALS})")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="non-negative seed for --oracle sampling")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"invcert: cannot read input: {exc}", file=sys.stderr)
        return 3

    try:
        doc = parse_input(text)
    except InputError as exc:
        print(f"invcert: invalid input: {exc}", file=sys.stderr)
        return 3

    for flag in ("delta", "threshold"):
        value = getattr(args, flag)
        if value is None:
            continue
        if not (math.isfinite(value) and value > 0.0):
            print(f"invcert: --{flag} must be finite and positive", file=sys.stderr)
            return 3
        doc = replace(doc, **{flag: value})
    if args.format is not None:
        doc = replace(doc, fmt=args.format)
    if args.oracle is not None and not 1 <= args.oracle <= MAX_TRIALS:
        print(f"invcert: --oracle takes 1 to {MAX_TRIALS} trials", file=sys.stderr)
        return 3
    if args.seed < 0:
        print("invcert: --seed must be a non-negative integer", file=sys.stderr)
        return 3

    oracle_dict = oracle_lines = None
    per_patch_dicts = per_patch_lines = None
    try:
        report = run(doc)
        if args.oracle is not None:
            if doc.mode == "matrix-family":
                print("invcert: --oracle needs a map input; skipped for matrix-family",
                      file=sys.stderr)
            else:
                oracle_dict, oracle_lines = _oracle_section(doc, report, args.oracle,
                                                            args.seed)
        if args.per_patch:
            if doc.mode != "bb-grid":
                print("invcert: --per-patch applies to bb-grid inputs; skipped",
                      file=sys.stderr)
            else:
                per_patch_dicts, per_patch_lines = _per_patch_section(doc)
    except ValueError as exc:
        print(f"invcert: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # CertificationError and solver failures; exit code 1 would misreport
        # them as "not certified".
        print(f"invcert: internal error: {exc}", file=sys.stderr)
        return 4

    if doc.fmt == "structured":
        payload = report_to_dict(report)
        if oracle_dict is not None:
            payload["oracle"] = oracle_dict
        if per_patch_dicts is not None:
            payload["per_patch"] = per_patch_dicts
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = _report_text_lines(report)
        if per_patch_lines:
            lines += per_patch_lines
        if oracle_lines:
            lines += oracle_lines
        print("\n".join(lines))

    if report.degenerate_column is not None:
        return 2
    return 0 if report.verdict == VERDICT_STRICT else 1
