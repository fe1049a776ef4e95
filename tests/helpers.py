"""Shared map builders for the tests."""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

import numpy as np

from invcert import (
    DEFAULT_DELTA,
    ControlNet,
    GeneratorSet,
    PatchGrid,
)
from invcert import lpsolve
from invcert.cli import InputDocument
from invcert.certify import SignPattern

from oracles import unit_generators


def identity_net(n: int = 2) -> ControlNet:
    """Degree-(1,...,1) net of the identity map on the unit cube."""
    shape = (2,) * n
    points = np.zeros(shape + (n,))
    for index in itertools.product(*(range(2) for _ in range(n))):
        points[index] = np.array(index, dtype=float)
    return ControlNet((1,) * n, points)


def identity_points(degrees: tuple[int, ...]) -> np.ndarray:
    """Control points of the identity map for the given per-axis degrees."""
    axes = [np.linspace(0.0, 1.0, p + 1) for p in degrees]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def bilinear_net(f00, f10, f01, f11) -> ControlNet:
    """Degree-(1,1) net from its four corner control points."""
    return ControlNet((1, 1), np.array([[f00, f01], [f10, f11]], dtype=float))


def quad_net() -> ControlNet:
    return bilinear_net((0, 0), (1, 0), (0, 1), (2, 2))


def collapsed_net() -> ControlNet:
    """The rank-one map (x1+x2, x1+x2)."""
    return bilinear_net((0, 0), (1, 1), (1, 1), (2, 2))


def folded_net() -> ControlNet:
    """Bilinear map folding over itself (corner pulled to (0.1, 0.1))."""
    return bilinear_net((0, 0), (1, 0), (0, 1), (0.1, 0.1))


def linear_net(matrix) -> ControlNet:
    """Degree-(1,1) net of the linear map x -> M x on the unit square."""
    M = np.asarray(matrix, dtype=float)
    points = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            points[i, j] = M @ np.array([i, j], dtype=float)
    return ControlNet((1, 1), points)


def rotation_net(angle: float) -> ControlNet:
    c, s = np.cos(angle), np.sin(angle)
    return linear_net([[c, -s], [s, c]])


def random_net(rng: np.random.Generator, n: int, max_degree: int = 3,
               min_degree: int = 0, scale: float = 1.0) -> ControlNet:
    degrees = tuple(int(d) for d in rng.integers(min_degree, max_degree + 1, size=n))
    shape = tuple(p + 1 for p in degrees) + (n,)
    return ControlNet(degrees, scale * rng.uniform(-1.0, 1.0, size=shape))


def perturbed_identity_net(rng: np.random.Generator, amplitude: float) -> ControlNet:
    """Identity corners plus a uniform perturbation of the given amplitude."""
    base = identity_net(2).points
    noise = rng.uniform(-amplitude, amplitude, size=base.shape)
    return ControlNet((1, 1), base + noise)


def random_grid_2x2(rng: np.random.Generator) -> PatchGrid:
    """Random 2x2 grid of bilinear patches with random interior cuts."""
    bx = np.array([0.0, rng.uniform(0.3, 0.7), 1.0])
    by = np.array([0.0, rng.uniform(0.3, 0.7), 1.0])
    patches = {}
    for cell in itertools.product(range(2), range(2)):
        patches[cell] = ControlNet((1, 1), rng.uniform(-1.0, 1.0, size=(2, 2, 2)))
    return PatchGrid((bx, by), patches)


def identity_grid_2x2() -> PatchGrid:
    """The identity map split into a uniform 2x2 grid of bilinear patches."""
    breaks = np.array([0.0, 0.5, 1.0])
    patches = {}
    for cx, cy in itertools.product(range(2), range(2)):
        lo = np.array([breaks[cx], breaks[cy]])
        points = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                points[i, j] = lo + 0.5 * np.array([i, j])
        patches[(cx, cy)] = ControlNet((1, 1), points)
    return PatchGrid((breaks, breaks), patches)


def near_identity_columns(rng: np.random.Generator, n: int, m: int = 20,
                          noise: float = 0.05) -> list[GeneratorSet]:
    """Matrix family whose column j has m generators ``e_j + noise * N(0, 1)``.

    At the default noise the family is certifiable.
    """
    return [GeneratorSet(j, np.eye(n)[j] + noise * rng.normal(size=(m, n)))
            for j in range(n)]


def integer_families() -> list[list[GeneratorSet]]:
    """60 small families with integer generators: exact zeros everywhere."""
    rng = np.random.default_rng(139)
    families = []
    for _ in range(60):
        n = int(rng.integers(2, 6))
        families.append([GeneratorSet(j, rng.integers(-2, 3, size=(int(rng.integers(1, 4)), n)))
                         for j in range(n)])
    return families


def apply_sign_pattern(
    columns: list[GeneratorSet],
    pattern: SignPattern,
    delta: float = DEFAULT_DELTA,
) -> np.ndarray:
    """Concatenate the signed, unit-normalized generators of every column.

    The positive hull of the result is the signed sum cone selected by
    ``pattern``, so a certificate over these vectors certifies that cone.
    """
    n = len(pattern.signs)
    if len(columns) != n:
        raise ValueError(f"expected {n} columns, got {len(columns)}")
    for col in columns:
        if col.dimension != n:
            raise ValueError(
                f"column {col.column} has vectors of length {col.dimension}, expected {n}"
            )
    units = unit_generators(columns, delta)
    if units is None:
        raise ValueError("a column touches the origin")
    return np.vstack([sign * u for sign, u in zip(pattern.signs, units)])


def document_to_json(doc: InputDocument) -> str:
    """Serialize an InputDocument back into the input schema."""
    out: dict = {
        "mode": doc.mode,
        "dimension": doc.dimension,
        "options": {"delta": doc.delta, "threshold": doc.threshold, "format": doc.fmt},
    }
    if doc.mode == "bb-patch":
        net = doc.payload
        out["degrees"] = list(net.degrees)
        out["control_points"] = net.points.tolist()
    elif doc.mode == "bb-grid":
        grid = doc.payload
        out["breakpoints"] = [b.tolist() for b in grid.breakpoints]
        out["patches"] = [
            {
                "cell": list(cell),
                "degrees": list(grid.patches[cell].degrees),
                "control_points": grid.patches[cell].points.tolist(),
            }
            for cell in grid.cells()
        ]
    else:
        out["columns"] = [col.vectors.tolist() for col in doc.payload]
    return json.dumps(out, indent=2, sort_keys=True)


def record_batches(monkeypatch) -> list[tuple]:
    """Record every ``lpsolve._run_simplex`` call as ``(T, obj, basis, pivots)``.

    The stacks are copies taken on entry, before the kernel pivots and
    reorders them in place; ``pivots`` is indexed by entry position.
    """
    calls = []
    exact = lpsolve._run_simplex

    def recording(T, obj, basis):
        start = T.copy(), obj.copy(), basis.copy()
        order, unbounded, pivots = exact(T, obj, basis)
        calls.append((*start, pivots))
        return order, unbounded, pivots

    monkeypatch.setattr(lpsolve, "_run_simplex", recording)
    return calls


class Solution(NamedTuple):
    """One program's outcome; ``x``, ``objective_value`` and ``duals`` only when bounded."""

    unbounded: bool
    x: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None
    pivots: int


def tableaux(A, b, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(T, obj, basis)`` stacks of ``maximize c[k].x`` s.t. ``A[k] x <= b``, ``x >= 0``.

    ``A`` has shape (B, rows, variables), the B programs share ``b >= 0``
    and ``c`` has one cost row per program. Each tableau is the
    constraints, then the slack identity, then ``b``, and starts at the
    slack basis, the layout ``lpsolve.margin_lps`` writes its dictionaries
    in for ``lpsolve._run_simplex``.
    """
    A = np.asarray(A, dtype=float)
    size, n_rows, n_var = A.shape
    T = np.zeros((size, n_rows, n_var + n_rows + 1))
    T[:, :, :n_var] = A
    T[:, :, n_var:-1] = np.eye(n_rows)
    T[:, :, -1] = b
    # obj[k, j] = z_j - c_j at the slack basis, whose costs are all zero;
    # obj[k, -1] is the objective value.
    obj = np.full((size, n_var + n_rows + 1), -0.0)
    obj[:, :n_var] = -np.asarray(c, dtype=float)
    obj[:, -1] = 0.0
    basis = np.repeat(n_var + np.arange(n_rows)[None], size, axis=0)
    return T, obj, basis


def solve_tableaux(T, obj, basis) -> list[Solution]:
    """Pivot copies of the stacks with ``lpsolve._run_simplex``, one solution per member.

    Solutions are in entry order; ``duals`` price every row. The
    objective value is ``c[k] . x`` of the returned ``x``, not the
    objective row's last cell, which equals the duals' value at every
    basis and so could not check ``x`` or strong duality.
    """
    T, obj, basis = T.copy(), obj.copy(), basis.copy()
    n_rows = T.shape[1]
    n_var = T.shape[2] - n_rows - 1
    # The slack basis's objective row is -c, so negating it gives c exactly.
    costs = -obj[:, :n_var]
    order, unbounded, pivots = lpsolve._run_simplex(T, obj, basis)
    solutions = [None] * len(order)
    for p, k in enumerate(order.tolist()):
        if unbounded[k]:
            solutions[k] = Solution(True, None, None, None, int(pivots[k]))
            continue
        y = np.zeros(n_var + n_rows)
        y[basis[p]] = T[p, :, -1]
        # Slack column i prices its own row: z_i - 0 = y . e_i, the row dual.
        x = y[:n_var] + 0.0
        solutions[k] = Solution(False, x, float(costs[k] @ x), obj[p, n_var:-1].copy(),
                                int(pivots[k]))
    return solutions


def solve_one(c, G, h, box=None) -> Solution:
    """Solve ``maximize c.x`` s.t. ``G x <= h``, ``0 <= x <= box`` as a batch of one.

    A box, when given, becomes the rows ``I x <= box`` under ``G``, so the
    first ``len(h)`` duals price the rows of ``G``.
    """
    A, b = np.asarray(G, dtype=float), np.asarray(h, dtype=float)
    if box is not None:
        A = np.vstack([A, np.eye(A.shape[1])])
        b = np.concatenate([b, box])
    (solution,) = solve_tableaux(*tableaux(A[None], b, np.asarray(c, dtype=float)[None]))
    return solution


def certificate_lp(units) -> tuple[np.ndarray, float]:
    """``(a, t)`` of the max-margin LP over the rows of ``units``, all signed +1."""
    a, t, _ = lpsolve.margin_lps(np.asarray(units, dtype=float), np.ones((1, len(units))))
    return a[0], float(t[0])


def pivots_per_lp(calls: list[tuple]) -> list[int]:
    return [int(p) for *_, pivots in calls for p in pivots]


def invalid_input_documents() -> dict[str, bytes]:
    """Input files, by name, that the CLI must reject with exit code 3.

    Each is read as raw bytes. They go past the schema checks: numbers
    beyond the float range, nesting deeper than the JSON decoder's
    recursion limit, bytes that are not UTF-8 and more axes than a numpy
    array holds.
    """
    huge = "1" + "0" * 400
    axes = 65
    points: object = [0.0] * axes
    for _ in range(axes):
        points = [points]
    patch = {"mode": "bb-patch", "dimension": 2, "degrees": [1, 1],
             "control_points": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]}
    return {
        "huge-control-point": (b'{"mode": "bb-patch", "dimension": 1, "degrees": [1], '
                               b'"control_points": [[0], [' + huge.encode() + b']]}'),
        "huge-delta": (json.dumps(patch)[:-1] + ', "options": {"delta": ' + huge + "}}").encode(),
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
        "not-utf-8": (json.dumps(patch)[:-1] + ', "note": "caf\xe9"}').encode("latin-1"),
        "65-axes": json.dumps({"mode": "bb-patch", "dimension": axes, "degrees": [0] * axes,
                               "control_points": points}).encode(),
        "5000-digit-integer": (json.dumps(patch)[:-1] + ', "note": 1' + "0" * 5000
                               + "}").encode(),
    }
