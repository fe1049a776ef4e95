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
    SignPattern,
    normalize_generators,
)
from invcert import lpsolve
from invcert.cli import InputDocument


def identity_net(n: int = 2) -> ControlNet:
    """Degree-(1,...,1) net of the identity map on the unit cube."""
    shape = (2,) * n
    points = np.zeros(shape + (n,))
    for index in itertools.product(*(range(2) for _ in range(n))):
        points[index] = np.array(index, dtype=float)
    return ControlNet((1,) * n, points)


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


def near_identity_columns(rng: np.random.Generator, n: int,
                          m: int = 20) -> list[GeneratorSet]:
    """Certifiable matrix family: column j has m generators ``e_j + 0.05 N(0, 1)``."""
    return [GeneratorSet(j, np.eye(n)[j] + 0.05 * rng.normal(size=(m, n)))
            for j in range(n)]


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
    blocks = []
    for sign, col in zip(pattern.signs, columns):
        if col.dimension != n:
            raise ValueError(
                f"column {col.column} has vectors of length {col.dimension}, expected {n}"
            )
        units, _ = normalize_generators(col, delta)
        blocks.append(sign * units)
    return np.vstack(blocks)


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
    """Record every ``lpsolve.solve_batch`` call as ``(A, b, c, batch)``."""
    calls = []
    exact = lpsolve.solve_batch

    def recording(A, b, c):
        batch = exact(A, b, c)
        calls.append((A, b, c, batch))
        return batch

    monkeypatch.setattr(lpsolve, "solve_batch", recording)
    return calls


class Solution(NamedTuple):
    """One program's outcome; ``x``, ``objective_value`` and ``duals`` only when optimal."""

    status: str
    x: np.ndarray | None
    objective_value: float | None
    duals: np.ndarray | None
    pivots: int


def member(batch: lpsolve.LpBatch, k: int, c) -> Solution:
    """Program k's outcome in ``batch``, whose programs maximize ``c.x``."""
    if batch.status[k] != lpsolve.OPTIMAL:
        return Solution(batch.status[k], None, None, None, int(batch.pivots[k]))
    x = batch.x[k]
    return Solution(batch.status[k], x, float(np.asarray(c, dtype=float) @ x), batch.duals[k],
                    int(batch.pivots[k]))


def solve_one(c, G, h, box=None) -> Solution:
    """Solve ``maximize c.x`` s.t. ``G x <= h``, ``0 <= x <= box`` as a batch of one.

    A box, when given, becomes the rows ``I x <= box`` under ``G``, so the
    first ``len(h)`` duals price the rows of ``G``.
    """
    A, b = np.asarray(G, dtype=float), np.asarray(h, dtype=float)
    if box is not None:
        A = np.vstack([A, np.eye(A.shape[1])])
        b = np.concatenate([b, box])
    return member(lpsolve.solve_batch(A[None], b, c), 0, c)


def pivots_per_lp(calls: list[tuple]) -> list[int]:
    return [int(p) for *_, batch in calls for p in batch.pivots]
