"""Seeded inputs for the benchmark workloads (numpy only).

Every workload is a stream of items that the worker calls in order until
its time is up. A stream holds two to six times as many items as the
baseline machine gets through, and its mix repeats in short cycles, so
any prefix of it has the workload's mix. The seed only changes the
random numbers inside the items, never their mix. The same
``(workload, seed, seconds)`` always gives the same stream, so the
benchmark's parent process can rebuild the inputs the worker timed and
check the worker's outputs against them.

Items are plain data (arrays, JSON text); the worker turns them into
invcert objects before its timed phase starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("cli-small", "bilinear-sweep", "near-identity", "random-families")

# Items per second of run time in a stream: two to six times what the
# baseline machine gets through (CLI documents cost the most to build).
_STREAM_RATE = {"cli-small": 600, "bilinear-sweep": 300, "near-identity": 8,
                "random-families": 30}
# Runs this long or longer also time the items that run once.
FULL_SECONDS = 15
# Family cycles are (n, m) shapes, m generators per column. Near-identity
# families are e_j + 0.05 N(0,1), plus one fixed n=8 family that runs once;
# random families are N(0,1), and every one of their patterns is rejected.
_NEAR_IDENTITY_CYCLE = ((4, 20), (6, 20), (6, 20), (6, 20), (6, 20))
# With m=20 and m=40 on either side, the median item falls among the m=30 ones.
_RANDOM_CYCLE = ((6, 20), (6, 30), (6, 40))
_GOLDEN = (5 ** 0.5 - 1) / 2
SPOT_TRIALS = 10_000
# Documents of one CLI cycle, by category; each cycle is shuffled.
_CLI_CYCLE = (
    ("patch-identity", 1),
    ("patch-quad", 1),
    ("patch-collapsed", 1),
    ("patch-random", 1),
    ("patch-oracle", 1),
    ("grid", 1),
    ("grid-per-patch", 1),
    ("family", 3),
    ("malformed", 2),
    ("degenerate", 1),
)
ORACLE_TRIALS = 2000


@dataclass(frozen=True)
class MapSpec:
    """A piecewise Bezier map as cells of ``(points, widths)``.

    ``points`` has shape ``(p_1+1, ..., p_n+1, n)``; ``widths`` are the
    cell's extents along each axis. A single patch has one cell of width 1.
    """

    cells: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def dimension(self) -> int:
        return self.cells[0][0].shape[-1]


@dataclass(frozen=True)
class CliDoc:
    """One CLI invocation: document text, extra flags and what it encodes.

    ``subject`` is the map (:class:`MapSpec`) or the list of column arrays
    the document describes, or ``None`` for a malformed document, which
    must exit with code 3.
    """

    category: str
    text: str
    args: tuple[str, ...]
    subject: object
    structured: bool
    per_patch_cells: tuple[MapSpec, ...] = field(default=())


@dataclass(frozen=True)
class BilinearItem:
    points: np.ndarray


def _stream_length(workload: str, seconds: int) -> int:
    return _STREAM_RATE[workload] * max(1, seconds)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def identity_points(degrees: tuple[int, ...]) -> np.ndarray:
    """Control points of the identity map for the given per-axis degrees."""
    axes = [np.linspace(0.0, 1.0, p + 1) for p in degrees]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def bilinear_items(seed: int, seconds: int) -> list[BilinearItem]:
    """Identity corners plus uniform noise of amplitude 0 to 1.2.

    The amplitudes follow the golden-ratio sequence, so every prefix of
    the stream spreads them evenly over the range.
    """
    rng = _rng("bilinear-sweep", seed)
    base = identity_points((1, 1))
    return [
        BilinearItem(base + rng.uniform(-a, a, size=base.shape))
        for k in range(_stream_length("bilinear-sweep", seconds))
        for a in [1.2 * (k * _GOLDEN % 1.0)]
    ]


def _near_identity(rng: np.random.Generator, n: int, m: int) -> list[np.ndarray]:
    return [np.eye(n)[j] + 0.05 * rng.normal(size=(m, n)) for j in range(n)]


def reproducer_family() -> list[np.ndarray]:
    """The n=8 family of the round-off reproducer (ROADMAP item 1).

    Its LPs take about 1,000 Bland pivots each, and invcert falsely
    rejects four of its patterns through round-off. It is the same for
    every seed, so every run measures that defect, and the one item that
    takes a third of the run adds no seed-to-seed spread.
    """
    rng = np.random.default_rng(1)
    _near_identity(rng, 4, 20)
    _near_identity(rng, 6, 20)
    return _near_identity(rng, 8, 20)


def family_items(workload: str, seed: int, seconds: int) -> list[list[np.ndarray]]:
    """Per-column generator arrays, one list per family."""
    rng = _rng(workload, seed)
    cycle = _RANDOM_CYCLE if workload == "random-families" else _NEAR_IDENTITY_CYCLE
    shapes = [cycle[k % len(cycle)] for k in range(_stream_length(workload, seconds))]
    if workload == "random-families":
        return [[rng.normal(size=(m, n)) for _ in range(n)] for n, m in shapes]
    return [_near_identity(rng, n, m) for n, m in shapes]


def _patch_doc(points: np.ndarray, options: dict | None = None) -> dict:
    n = points.shape[-1]
    doc = {
        "mode": "bb-patch",
        "dimension": n,
        "degrees": [s - 1 for s in points.shape[:-1]],
        "control_points": points.tolist(),
    }
    if options:
        doc["options"] = options
    return doc


def _grid(rng: np.random.Generator, amplitude: float):
    """2x2 grid of perturbed identity patches; returns (doc, MapSpec, cells)."""
    cuts = [np.array([0.0, rng.uniform(0.3, 0.7), 1.0]) for _ in range(2)]
    patches, cells, single = [], [], []
    for cx in range(2):
        for cy in range(2):
            lo = np.array([cuts[0][cx], cuts[1][cy]])
            width = np.array([cuts[0][cx + 1] - lo[0], cuts[1][cy + 1] - lo[1]])
            points = lo + width * identity_points((1, 1))
            points = points + rng.uniform(-amplitude, amplitude, size=points.shape) * width
            patches.append({"cell": [cx, cy], "degrees": [1, 1],
                            "control_points": points.tolist()})
            cells.append((points, width))
            single.append(MapSpec(((points, width),)))
    doc = {"mode": "bb-grid", "dimension": 2,
           "breakpoints": [c.tolist() for c in cuts], "patches": patches}
    return doc, MapSpec(tuple(cells)), tuple(single)


_MALFORMED = (
    '{"mode": "bb-patch", "dimension": 2, "degrees": [1, 1], "control_points": [',
    '{"mode": "bezier", "dimension": 2}',
    '{"mode": "bb-patch", "dimension": 2, "degrees": [1, 1], '
    '"control_points": [[[0, 0], [0, 1]], [[1, 0], [2]]]}',
    '{"mode": "matrix-family", "dimension": 2, "columns": [[[1, 0]], [[0, 1e999]]]}',
)


def _single(points: np.ndarray) -> MapSpec:
    return MapSpec(((points, np.ones(points.shape[-1])),))


def _cli_doc(category: str, k: int, rng: np.random.Generator) -> CliDoc:
    if category == "patch-identity":
        pts = identity_points((1,) * (2 + k % 2))
        return CliDoc(category, json.dumps(_patch_doc(pts)), (), _single(pts), False)
    if category == "patch-quad":
        pts = np.array([[[0, 0], [0, 1]], [[1, 0], [2, 2]]], dtype=float)
        pts = pts + rng.uniform(-0.05, 0.05, size=pts.shape)
        doc = _patch_doc(pts, {"format": "structured"})
        return CliDoc(category, json.dumps(doc), (), _single(pts), True)
    if category == "patch-collapsed":
        pts = np.array([[[0, 0], [1, 1]], [[1, 1], [2, 2]]], dtype=float)
        return CliDoc(category, json.dumps(_patch_doc(pts)), (), _single(pts), False)
    if category == "patch-random":
        degrees = tuple(int(d) for d in rng.integers(1, 3, size=2))
        pts = identity_points(degrees)
        pts = pts + rng.uniform(-0.3, 0.3, size=pts.shape)
        return CliDoc(category, json.dumps(_patch_doc(pts)),
                      ("--format", "structured"), _single(pts), True)
    if category == "patch-oracle":
        pts = identity_points((1, 1))
        pts = pts + rng.uniform(-0.6, 0.6, size=pts.shape)
        args = ("--oracle", str(ORACLE_TRIALS), "--seed", str(k))
        return CliDoc(category, json.dumps(_patch_doc(pts)), args, _single(pts), False)
    if category in ("grid", "grid-per-patch"):
        doc, spec, cells = _grid(rng, 0.15)
        if category == "grid":
            return CliDoc(category, json.dumps(doc), (), spec, False)
        return CliDoc(category, json.dumps(doc), ("--per-patch", "--format", "structured"),
                      spec, True, cells)
    if category == "family":
        n = 2 + k % 3
        if k % 2:
            cols = [rng.normal(size=(6, n)) for _ in range(n)]
        else:
            cols = [np.eye(n)[j] + 0.2 * rng.normal(size=(6, n)) for j in range(n)]
        doc = {"mode": "matrix-family", "dimension": n, "columns": [c.tolist() for c in cols]}
        structured = k % 4 >= 2
        args = ("--format", "structured") if structured else ()
        return CliDoc(category, json.dumps(doc), args, cols, structured)
    if category == "malformed":
        return CliDoc(category, _MALFORMED[k % len(_MALFORMED)], (), None, False)
    if category == "degenerate":
        # Degree 0 along the second axis: the map is constant along it.
        pts = identity_points((1, 0)) + rng.uniform(-0.1, 0.1, size=(2, 1, 2))
        return CliDoc(category, json.dumps(_patch_doc(pts)), (), _single(pts), False)
    raise ValueError(f"unknown CLI document category {category!r}")


def cli_docs(seed: int, seconds: int) -> list[CliDoc]:
    rng = _rng("cli-small", seed)
    docs = []
    for cycle in range(-(-_stream_length("cli-small", seconds) // len(_CLI_CYCLE))):
        batch = [
            _cli_doc(category, cycle * count + k, rng)
            for category, count in _CLI_CYCLE
            for k in range(count)
        ]
        docs.extend(batch[i] for i in rng.permutation(len(batch)))
    return docs


def make(workload: str, seed: int, seconds: int) -> tuple[list, list]:
    """The stream of items, in the order the worker calls them, and the
    items that run once before the stream."""
    if workload == "cli-small":
        return cli_docs(seed, seconds), []
    if workload == "bilinear-sweep":
        return bilinear_items(seed, seconds), []
    if workload == "near-identity":
        once = [reproducer_family()] if seconds >= FULL_SECONDS else []
        return family_items(workload, seed, seconds), once
    if workload == "random-families":
        return family_items(workload, seed, seconds), []
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
