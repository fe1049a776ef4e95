"""Tensor-product Bernstein-Bezier control nets on the unit cube.

A :class:`ControlNet` holds the coefficients of a polynomial map
[0,1]^n -> R^n in the tensor-product Bernstein basis, and a
:class:`PatchGrid` tiles the unit cube with such nets along axis-parallel
cuts. The grid is the one map type inside the package: a bare net is
turned into a one-cell grid once, where a public entry point receives
it. Evaluation runs an axis-wise de Casteljau reduction, which is
numerically stable on [0,1] and reproduces corner control points exactly.
Differentiation along an axis is the first-difference construction: its
control points, one fewer along that axis, enclose every value of the
partial derivative on the patch. Along an axis of degree 0 the map is
constant and the derivative is the zero net. The module gives a map's
values, its exact Jacobians and each cell's derivative control points in
global coordinates, which the certifier stacks as column generators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "ControlNet",
    "PatchGrid",
    "eval_many",
]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ControlNet:
    """Control points of one Bernstein-Bezier patch.

    ``points`` has shape ``(degrees[0]+1, ..., degrees[n-1]+1, n)``; the
    entry at multi-index ``(i_1, ..., i_n)`` is the control point with
    that index, a vector in the n-dimensional codomain.
    """

    degrees: tuple[int, ...]
    points: np.ndarray

    def __post_init__(self):
        if not all(map(_is_integer, self.degrees)):
            raise ValueError(f"degrees must be integers, got {self.degrees!r}")
        degrees = tuple(int(p) for p in self.degrees)
        if len(degrees) == 0:
            raise ValueError("a net needs at least one axis")
        if any(p < 0 for p in degrees):
            raise ValueError(f"degrees must be nonnegative, got {degrees}")
        points = np.array(self.points, dtype=float)
        expected = tuple(p + 1 for p in degrees) + (len(degrees),)
        if points.shape != expected:
            raise ValueError(
                f"points shape {points.shape} does not match degrees {degrees}: "
                f"expected {expected}"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("control points must be finite")
        points.setflags(write=False)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "points", points)

    @property
    def dimension(self) -> int:
        return len(self.degrees)


@dataclass(frozen=True)
class PatchGrid:
    """Axis-parallel tiling of [0,1]^n with one control net per cell.

    ``breakpoints[k]`` is the strictly increasing list of cut coordinates
    along axis ``k``, starting at 0 and ending at 1. ``patches`` maps each
    cell multi-index to the net giving the map on that cell in local
    coordinates.
    """

    breakpoints: tuple[np.ndarray, ...]
    patches: Mapping[tuple[int, ...], ControlNet]
    _UNIT_BREAKS = np.array([0.0, 1.0])  # every axis of every PatchGrid.single
    _UNIT_BREAKS.setflags(write=False)

    def __post_init__(self):
        breaks = []
        for axis, raw in enumerate(self.breakpoints):
            b = np.array(raw, dtype=float)
            if b.ndim != 1 or b.size < 2:
                raise ValueError(f"axis {axis}: need at least two breakpoints")
            # A few Python floats compare faster than numpy calls on them.
            cuts = b.tolist()
            if not all(map(math.isfinite, cuts)):
                raise ValueError(f"axis {axis}: breakpoints must be finite")
            if cuts[0] != 0.0 or cuts[-1] != 1.0:
                raise ValueError(f"axis {axis}: breakpoints must start at 0 and end at 1")
            if any(hi <= lo for lo, hi in zip(cuts, cuts[1:])):
                raise ValueError(f"axis {axis}: breakpoints must be strictly increasing")
            b.setflags(write=False)
            breaks.append(b)
        n = len(breaks)
        if n == 0:
            raise ValueError("a grid needs at least one axis")
        shape = tuple(len(b) - 1 for b in breaks)
        patches = dict(self.patches)
        bad = [cell for cell in patches if not all(map(_is_integer, cell))]
        if bad:
            raise ValueError(f"cell indices must be integers, got {bad[0]!r}")
        patches = {tuple(int(i) for i in cell): net for cell, net in patches.items()}
        expected_cells = set(itertools.product(*(range(s) for s in shape)))
        if patches.keys() != expected_cells:
            missing = sorted(expected_cells - patches.keys())
            extra = sorted(patches.keys() - expected_cells)
            raise ValueError(
                f"grid of shape {shape} needs one patch per cell; "
                f"missing {missing[:3]}, unexpected {extra[:3]}"
            )
        for cell, net in patches.items():
            if net.dimension != n:
                raise ValueError(
                    f"patch {cell} has dimension {net.dimension}, grid has {n}"
                )
        object.__setattr__(self, "breakpoints", tuple(breaks))
        object.__setattr__(self, "patches", patches)

    @property
    def dimension(self) -> int:
        return len(self.breakpoints)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.breakpoints)

    @classmethod
    def single(cls, net: ControlNet) -> "PatchGrid":
        """Wrap one net as a grid with a single cell covering [0,1]^n.

        The net is checked, so its grid is not: every axis shares one read-only [0.0, 1.0].
        """
        grid = object.__new__(cls)
        grid.__dict__.update(breakpoints=(cls._UNIT_BREAKS,) * net.dimension,
                             patches={(0,) * net.dimension: net})
        return grid

    def cells(self) -> list[tuple[int, ...]]:
        return sorted(self.patches)


def _reduce_batch(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """De Casteljau reduction of a point tensor at a batch of parameters.

    ``points`` has shape (m_1, ..., m_n, n); ``xs`` has shape (N, n).
    Returns the N evaluated codomain vectors, shape (N, n), as a transposed
    view: the batch axis is kept last, so every step runs over rows of N
    values; each value is computed by the same operations in any layout.
    """
    b = points[..., None]
    for axis in range(xs.shape[1]):
        t = xs[:, axis]
        while b.shape[0] > 1:
            b = (1.0 - t) * b[:-1] + t * b[1:]
        b = b[0]
    if b.shape[1] != xs.shape[0]:
        # Degree-0 axes never touch the parameters, so the batch axis may
        # not have materialized through broadcasting.
        b = np.broadcast_to(b, (points.shape[-1], xs.shape[0]))
    return b.T


def _check_unit_cube(xs: np.ndarray, n: int) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[None, :]
    if xs.ndim != 2 or xs.shape[1] != n:
        raise ValueError(f"expected points with {n} coordinates, got shape {xs.shape}")
    # NaN fails both comparisons, so only the slow path tells the errors apart.
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        if not np.all(np.isfinite(xs)):
            raise ValueError("evaluation points must be finite")
        raise ValueError("evaluation point lies outside the unit cube")
    return xs


def _derivative_points(net: ControlNet, axis: int, width: float) -> np.ndarray:
    """Control points ``p * (f[..., i+1, ...] - f[..., i, ...]) / width`` along ``axis``.

    ``p`` is the degree along the axis; the result has the net's index
    order, one index fewer along the axis. Along an axis of degree 0 the
    map is constant, and the result is zeros of the net's own shape.
    Raises ``ValueError`` when a point overflows the float range, which
    finite control points near the float maximum can.
    """
    p = net.degrees[axis]
    if p == 0:
        return np.zeros_like(net.points)
    lead = (slice(None),) * axis
    f = net.points
    # Finite inputs can only leave the float range by overflow, which numpy
    # flags after each operation, so no separate finiteness check is needed.
    try:
        with np.errstate(over="raise"):
            points = p * (f[lead + (slice(1, None),)] - f[lead + (slice(None, -1),)])
            points /= width
    except FloatingPointError:
        raise ValueError("derivative control points overflow") from None
    return points


def _cell_derivatives(grid: PatchGrid, cell: tuple) -> list[np.ndarray]:
    """The cell's derivative control points per axis, in global coordinates.

    Axis ``j``'s points are divided by the cell's width along ``j`` (chain
    rule), so they enclose column ``j`` of the map's Jacobian on the cell;
    a one-cell grid divides by 1.0, exactly.
    """
    net = grid.patches[cell]
    return [_derivative_points(net, j, breaks[k + 1] - breaks[k])
            for j, (breaks, k) in enumerate(zip(grid.breakpoints, cell))]


def _cell_groups(grid: PatchGrid, pts: np.ndarray):
    """Split checked global points by the cell that contains them.

    Returns ``[(cell, rows, local)]``: ``rows`` selects the points of the
    cell and ``local`` holds their affine local coordinates in it. A point
    on a shared face goes to the lexicographically smallest containing
    cell. In a one-cell grid the cell is [0,1]^n itself: lo = 0 and
    width = 1 along every axis, so the local coordinates are the points,
    bit for bit, and the callers skip this split.
    """
    n = grid.dimension
    idx = np.empty((pts.shape[0], n), dtype=int)
    lo = np.empty_like(pts)
    width = np.empty_like(pts)
    for axis, breaks in enumerate(grid.breakpoints):
        k = np.searchsorted(breaks, pts[:, axis], side="left") - 1
        k = np.clip(k, 0, len(breaks) - 2)
        idx[:, axis] = k
        lo[:, axis] = breaks[k]
        width[:, axis] = breaks[k + 1] - breaks[k]
    local = (pts - lo) / width
    flat = np.ravel_multi_index(tuple(idx.T), grid.shape)
    groups = []
    for cell_id in np.unique(flat):
        rows = flat == cell_id
        cell = tuple(int(i) for i in np.unravel_index(cell_id, grid.shape))
        groups.append((cell, rows, local[rows]))
    return groups


def _as_grid(map_like) -> PatchGrid:
    """The map as a grid; a bare net becomes the one-cell grid of [0,1]^n."""
    if isinstance(map_like, PatchGrid):
        return map_like
    if isinstance(map_like, ControlNet):
        return PatchGrid.single(map_like)
    raise TypeError(f"expected ControlNet or PatchGrid, got {type(map_like)!r}")


def eval_many(map_like, xs) -> np.ndarray:
    """Evaluate a ControlNet or PatchGrid at global points, shape (N, n) -> (N, n).

    A single point may be passed as a 1-D array; the result still has one
    row. A net is evaluated as its one-cell grid, whose local coordinates
    are the points themselves, so at a domain vertex the reduction
    multiplies by exact 0/1 factors and returns the corresponding corner
    control point exactly.
    """
    grid = _as_grid(map_like)
    return np.ascontiguousarray(_evaluate(grid, _check_unit_cube(xs, grid.dimension)))


def _evaluate(grid: PatchGrid, pts: np.ndarray) -> np.ndarray:
    """:func:`eval_many` without its checks, for (N, n) float points known to lie in [0,1]^n."""
    if len(grid.patches) == 1:
        (net,) = grid.patches.values()
        return _reduce_batch(net.points, pts)
    out = np.empty_like(pts)
    for cell, rows, local in _cell_groups(grid, pts):
        out[rows] = _reduce_batch(grid.patches[cell].points, local)
    return out


def _jacobians(grid: PatchGrid, derivatives, xs: np.ndarray) -> np.ndarray:
    """Exact Jacobians at checked global points, shape (N, n) -> (N, n, n).

    ``derivatives`` maps each cell to its :func:`_cell_derivatives`; column
    ``j`` at a point reduces its cell's axis-``j`` points at the local
    coordinates. Along a degree-0 axis they are zeros, which reduce to a
    column of +0.0.
    """
    n = grid.dimension
    J = np.zeros((xs.shape[0], n, n))
    groups = [(*derivatives, slice(None), xs)] if len(derivatives) == 1 else _cell_groups(grid, xs)
    for cell, rows, local in groups:
        for axis, points in enumerate(derivatives[cell]):
            J[rows, :, axis] = _reduce_batch(points, local)
    return J
