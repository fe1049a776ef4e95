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
A run builds one payload, :func:`report_to_dict` plus ``oracle`` and
``per_patch`` sections where those flags apply, and prints it as JSON or
renders it as text lines read from that payload alone.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 certified,
1 not certified, 2 degenerate input, 3 usage or parse error (a closed
stdin and an input too large for the memory included), 4 internal
error (a solver or certification failure that should not happen). The
oracle's agreement line never changes the code, and neither does a
reader that closes stdout or stderr early: the run still exits with the
code it would have had.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .bernstein import ControlNet, PatchGrid
from .certify import (
    DEFAULT_DELTA,
    DEFAULT_THRESHOLD,
    CertificateReport,
    GeneratorSet,
    VERDICT_STRICT,
    _certify_cells,
    certify_map,
    certify_matrix_family,
)
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
    """Input document rejected; the message names the offending field (a path ``(f, i)``: f[i])."""

    def __init__(self, path: str | tuple, message: str):
        if isinstance(path, tuple):
            path = path[0] + "".join(f"[{i}]" for i in path[1:])
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


def _finite(value, path: str | tuple) -> float:
    # Each message is formatted only for a value that fails its check.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise InputError(path, "integer is beyond the float range") from None
    if not math.isfinite(number):
        raise InputError(path, f"number must be finite, got {value!r}")
    return number


def _int_list(raw, path: str, length: int) -> list[int]:
    _require(isinstance(raw, list), path, "expected a list of integers")
    if len(raw) != length:
        raise InputError(path, f"expected {length} entries, got {len(raw)}")
    for k, v in enumerate(raw):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"{path}[{k}]", f"expected an integer, got {v!r}")
    return list(raw)


def _vector(raw, path: tuple, dim: int) -> list[float]:
    _require(isinstance(raw, list), path, "expected a coordinate list")
    if len(raw) != dim:
        raise InputError(path, f"expected {dim} coordinates, got {len(raw)}")
    # A finite float passes as it is, with no path built for it.
    return [v if type(v) is float and math.isfinite(v) else _finite(v, (*path, k))
            for k, v in enumerate(raw)]


def _control_points(raw, path: str, degrees: list[int], dim: int) -> np.ndarray:
    # The points fill an array of dim + 1 axes, and numpy caps that count.
    try:
        np.empty((0,) * (dim + 1))
    except ValueError:
        raise InputError(path, f"{dim} axes need an array of {dim + 1} axes, "
                               "more than numpy allows") from None
    counts = [p + 1 for p in degrees]

    def walk(node, level: int, where: tuple):
        if level < len(counts):
            _require(isinstance(node, list), where, "expected a nested list")
            if len(node) != counts[level]:
                raise InputError(where, f"expected {counts[level]} entries along axis {level}, "
                                        f"got {len(node)}")
            return [walk(child, level + 1, (*where, i)) for i, child in enumerate(node)]
        return _vector(node, where, dim)

    return np.array(walk(raw, 0, (path,)), dtype=float)


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
    except (ValueError, RecursionError) as exc:
        # An integer with more digits than Python converts, or nesting deeper
        # than the decoder's recursion limit.
        raise InputError("", f"cannot decode JSON: {exc}") from None
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
                if not 0 <= idx < len(breaks[axis]) - 1:
                    raise InputError(f"{where}.cell[{axis}]",
                                     f"cell index {idx} out of range for axis {axis}")
            if cell in patches:
                raise InputError(f"{where}.cell", f"duplicate cell {list(cell)}")
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
            where = ("columns", j)
            _require(isinstance(raw_col, list) and raw_col,
                     where, "expected a non-empty list of vectors")
            vectors = [_vector(v, (*where, k), dim) for k, v in enumerate(raw_col)]
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
    """Structured mirror of a report, JSON-serializable field for field.

    This is the only reader of report objects: the text report is
    rendered from the dict it returns, so a report field is added here
    once and both formats show it.
    """
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
        "generator_counts": list(report.generator_counts),
        "min_generator_norms": None if report.min_generator_norms is None
        else list(report.min_generator_norms),
        "degenerate_column": report.degenerate_column,
        "pattern_results": patterns,
    }


def _report_text_lines(payload: dict) -> list[str]:
    """Text view of a structured payload, with its per-patch and oracle sections."""
    lines = [
        f"dimension: {payload['dimension']}",
        f"provenance: {payload['provenance']}",
        f"delta: {_fmt(payload['delta'])}",
        f"threshold: {_fmt(payload['threshold'])}",
        "generators per column: " + " ".join(str(c) for c in payload["generator_counts"]),
    ]
    if payload["min_generator_norms"] is not None:
        lines.append("min generator norm per column: "
                     + " ".join(_fmt(v) for v in payload["min_generator_norms"]))
    lines.append(f"verdict: {payload['verdict'].upper()}")
    if payload["degenerate_column"] is not None:
        lines.append(
            f"DEGENERATE column {payload['degenerate_column'] + 1}: "
            f"generators not separated from the origin (delta {_fmt(payload['delta'])})"
        )
    # A degenerate report lists no patterns, and any other at least one.
    results = [(" ".join("+" if s > 0 else "-" for s in res["pattern"]), res)
               for res in payload["pattern_results"]]
    if results:
        width = max(7, *(len(label) for label, _ in results))
        lines.append(f"{'pattern':<{width}}  {'status':<11} {'margin':<12} {'epsilon':<12} "
                     "certificate")
    for label, res in results:
        cert = res["certificate"]
        margin = "-" if res["lp_margin"] is None else _fmt(res["lp_margin"])
        eps = "-" if cert is None else _fmt(cert["epsilon"])
        avec = "-" if cert is None else _fmt_vec(cert["a"])
        lines.append(f"{label:<{width}}  {res['status']:<11} {margin:<12} {eps:<12} {avec}")
    for label, res in results:
        if res["note"]:
            lines.append(f"note ({label}): {res['note']}")
        witness = res["witness"]
        if witness is not None:
            lines.append(
                f"witness ({label}): weights "
                + " ".join(_fmt(w) for w in witness["weights"])
                + f"; signed-generator sum {_fmt_vec(witness['combination'])}"
                + f"; norm {_fmt(witness['residual_norm'])}"
            )
    if "per_patch" in payload:
        lines.append("per-patch verdicts:")
        lines += [f"cell {tuple(entry['cell'])}: {entry['report']['verdict'].upper()}"
                  for entry in payload["per_patch"]]
    if (oracle := payload.get("oracle")) is not None:
        lines += [f"oracle trials: {oracle['trials']}", f"oracle seed: {oracle['seed']}"]
        pair = oracle["witness"]
        lines.append("oracle collision: none" if pair is None else
                     f"oracle collision: u {_fmt_vec(pair['u'])} v {_fmt_vec(pair['v'])} "
                     f"F(u) {_fmt_vec(pair['f_u'])} F(v) {_fmt_vec(pair['f_v'])}")
        lines.append(f"oracle agreement: {oracle['agreement']}")
    return lines


def _render(payload: dict, fmt: str) -> str:
    if fmt == "structured":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(_report_text_lines(payload))


def emit_report(report: CertificateReport, fmt: str = "text") -> str:
    """Render a report as text or as JSON, both from :func:`report_to_dict`."""
    return _render(report_to_dict(report), fmt)


def _oracle_dict(doc: InputDocument, report: CertificateReport,
                 trials: int, seed: int) -> dict:
    collision = sampled_injectivity(doc.payload, trials, seed)
    witness = None
    if collision.collided:
        witness = dict(zip(("u", "v", "f_u", "f_v"), (x.tolist() for x in collision.witness)))
    if report.certified and collision.collided:
        agreement = "SOUNDNESS VIOLATION: certified map with observed collision"
    elif report.certified:
        agreement = "consistent (certified, no collision found)"
    elif collision.collided:
        agreement = "consistent (not certified, collision confirms non-injectivity)"
    else:
        agreement = "no contradiction (rejection does not imply non-injectivity)"
    return {"trials": collision.trials, "seed": collision.seed,
            "collided": collision.collided, "witness": witness, "agreement": agreement}


def _write_line(stream, line: str) -> None:
    """Write one line; if the stream's reader has gone away, the run goes on."""
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        # What is still buffered goes to devnull, so later writes and the
        # interpreter's flush at exit raise nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for degenerate inputs; argparse's
    # default usage-error exit code collides with it.
    def error(self, message: str):
        _write_line(sys.stderr, f"{self.format_usage()}{self.prog}: error: {message}")
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
                        help="strictness floor for pattern margins, closed-form or LP")
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
        return _main(args)
    except MemoryError:
        _write_line(sys.stderr, "invcert: not enough memory for this input")
        return 3


def _main(args) -> int:
    try:
        if args.input == "-":
            if sys.stdin is None:
                raise OSError("standard input is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                data = fh.read()
    except OSError as exc:
        _write_line(sys.stderr, f"invcert: cannot read input: {exc}")
        return 3

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        _write_line(sys.stderr, f"invcert: invalid input: not UTF-8 text: {exc}")
        return 3

    try:
        doc = parse_input(text)
    except InputError as exc:
        _write_line(sys.stderr, f"invcert: invalid input: {exc}")
        return 3

    for flag in ("delta", "threshold"):
        value = getattr(args, flag)
        if value is None:
            continue
        if not (math.isfinite(value) and value > 0.0):
            _write_line(sys.stderr, f"invcert: --{flag} must be finite and positive")
            return 3
        doc = replace(doc, **{flag: value})
    if args.format is not None:
        doc = replace(doc, fmt=args.format)
    if args.oracle is not None and not 1 <= args.oracle <= MAX_TRIALS:
        _write_line(sys.stderr, f"invcert: --oracle takes 1 to {MAX_TRIALS} trials")
        return 3
    if args.seed < 0:
        _write_line(sys.stderr, "invcert: --seed must be a non-negative integer")
        return 3

    try:
        report = run(doc)
        payload = report_to_dict(report)
        if args.oracle is not None:
            if doc.mode == "matrix-family":
                _write_line(sys.stderr,
                            "invcert: --oracle needs a map input; skipped for matrix-family")
            else:
                payload["oracle"] = _oracle_dict(doc, report, args.oracle, args.seed)
        if args.per_patch:
            if doc.mode != "bb-grid":
                _write_line(sys.stderr,
                            "invcert: --per-patch applies to bb-grid inputs; skipped")
            else:
                payload["per_patch"] = [
                    {"cell": list(cell), "report": report_to_dict(
                        _certify_cells(doc.payload, [cell], doc.delta, doc.threshold))}
                    for cell in doc.payload.cells()
                ]
    except ValueError as exc:
        _write_line(sys.stderr, f"invcert: {exc}")
        return 3
    except RuntimeError as exc:
        # Solver failures (the iteration limit, an unbounded margin LP); exit
        # code 1 would misreport them as "not certified".
        _write_line(sys.stderr, f"invcert: internal error: {exc}")
        return 4

    _write_line(sys.stdout, _render(payload, doc.fmt))
    if report.degenerate_column is not None:
        return 2
    return 0 if report.verdict == VERDICT_STRICT else 1
