"""Independent reference oracles for the test suite.

Each oracle deliberately avoids the algorithm it checks: evaluation by
direct basis summation (vs de Casteljau), certificate margins by a dense
sweep of unit directions (vs the simplex LP), LP optima by exhaustive
vertex enumeration (vs the simplex pivots), planar acuteness exactly from
polar angles (vs the LP margin), Jacobians by central differences (vs
derivative control points), hull membership by a nonnegative
least-squares fit (vs the convex-hull property of control nets), and the
margin LPs as written, solved by HiGHS's dual simplex (vs the runtime's
simplex from a closed-form vertex). The last four are test-only, so they
live here rather than in the package, which keeps scipy out of its
imports. The HiGHS margins need only match the runtime's to round-off,
with the same verdicts.

Five plain helpers live here rather than in the package, which has no
use for them: :func:`derivative_net` (the derivative along an axis as a
net of its own, the zero net along an axis of degree 0, where the map is
constant), :func:`cell_widths` (a cell's extent along each axis),
:func:`locate_patch` (the cell of one point, found by a scan of the
breakpoints rather than the package's sorted search),
:func:`unit_generators` (each column's generators scaled to unit norm,
or ``None`` for a family with a column that touches the origin) and
:func:`verify_certificate` (a certificate checked against a generator
matrix).

Five references keep an earlier, plainer form of a runtime step, which
the runtime must match bit for bit: the simplex pivot through
``np.multiply`` (vs ``einsum``), the judging of one sign pattern from its
signed generators, re-checked through ``verify_certificate`` (vs norms and
products shared across a family's patterns, judged in stacks), every
pattern through its max-margin LP (vs a closed-form direction first, and
the LP only for the patterns it leaves undecided), de Casteljau reduction with
the codomain axis innermost (vs the batch axis innermost), and column
generators built through a derivative net per cell and axis, deduplicated
per cell and again per column (vs one pass over the control points).

The sampling oracle is judged by its contract,
:func:`check_collision_witness`, not by a reference run. Two of its steps
keep a plain form: Jacobians from derivative nets, one point at a time
and divided by the cell width after evaluation (vs width-scaled
derivative points reduced in a batch), which it matches bit for bit on a
single patch and to round-off on grids, and one candidate's residual and
push-apart in the line search (vs all candidates and step lengths at
once), which it matches bit for bit.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
from scipy.optimize import linprog, nnls

from invcert import (
    DEFAULT_DELTA,
    ControlNet,
    GeneratorSet,
    PatchGrid,
    PatternResult,
    Witness,
    eval_many,
)
from invcert import lpsolve
from invcert.certify import (
    DEFAULT_THRESHOLD,
    STATUS_NOT_STRICT,
    STATUS_STRICT,
    Certificate,
    _rescued_norms,
    _sign_patterns,
    dedup_exact,
    margin_holds,
)
from invcert.oracle import COLLISION_TOL, SEPARATION_FLOOR


def direct_bb_eval(net, xi) -> np.ndarray:
    """Evaluate a control net by summing the Bernstein basis terms."""
    xi = np.asarray(xi, dtype=float)
    total = np.zeros(net.dimension)
    for index in itertools.product(*(range(p + 1) for p in net.degrees)):
        weight = 1.0
        for i, p, t in zip(index, net.degrees, xi):
            weight *= comb(p, i) * t**i * (1.0 - t) ** (p - i)
        total += weight * net.points[index]
    return total


def reference_reduce_batch(points: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """De Casteljau reduction on a (m_1, ..., m_n, N, n) stack of points."""
    b = points[..., None, :]
    for axis in range(xs.shape[1]):
        t = xs[:, axis][:, None]
        while b.shape[0] > 1:
            b = (1.0 - t) * b[:-1] + t * b[1:]
        b = b[0]
    if b.shape[0] != xs.shape[0]:
        b = np.broadcast_to(b, (xs.shape[0], points.shape[-1])).copy()
    return b


def sweep_unit_margin(generators, n_angles: int = 10**6) -> tuple[float, np.ndarray]:
    """Best margin over unit directions in the plane, by dense sweep.

    Returns ``(epsilon, a)`` maximizing ``min_k a . w_k`` over ``n_angles``
    equally spaced unit vectors. Resolution limits accuracy to about
    ``2*pi/n_angles`` in the angle, so tolerances must allow ~1e-5.
    """
    W = np.atleast_2d(np.asarray(generators, dtype=float))
    if W.shape[1] != 2:
        raise ValueError("sweep oracle is two-dimensional only")
    best_val = -np.inf
    best_a = None
    chunk = 100_000
    for start in range(0, n_angles, chunk):
        theta = 2.0 * np.pi * np.arange(start, min(start + chunk, n_angles)) / n_angles
        A = np.column_stack([np.cos(theta), np.sin(theta)])
        mins = (A @ W.T).min(axis=1)
        k = int(np.argmax(mins))
        if mins[k] > best_val:
            best_val = float(mins[k])
            best_a = A[k]
    return best_val, best_a


def lp_vertex_oracle(c, G, h, bounds) -> float | None:
    """Optimal value of ``max c.x`` over ``Gx <= h`` plus finite box bounds.

    Enumerates every basic point (intersection of n constraint planes),
    keeps the feasible ones, and returns the best objective; None when no
    feasible vertex exists. Only valid for bounded feasible regions, which
    the finite bounds guarantee.
    """
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    n = c.size
    rows = [G]
    rhs = [h]
    for j, (lo, hi) in enumerate(bounds):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(-e[None, :])
        rhs.append(np.array([-lo]))
        rows.append(e[None, :])
        rhs.append(np.array([hi]))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    m = A.shape[0]

    best = None
    combos = np.array(list(itertools.combinations(range(m), n)), dtype=int)
    chunk = 20_000
    for start in range(0, combos.shape[0], chunk):
        sel = combos[start:start + chunk]
        mats = A[sel]
        vecs = b[sel]
        dets = np.abs(np.linalg.det(mats))
        ok = dets > 1e-10
        if not ok.any():
            continue
        xs = np.linalg.solve(mats[ok], vecs[ok][..., None])[..., 0]
        feasible = np.all(A @ xs.T <= b[:, None] + 1e-9, axis=0)
        if feasible.any():
            vals = xs[feasible] @ c
            top = float(vals.max())
            if best is None or top > best:
                best = top
    return best


def acute_2d(generators) -> bool:
    """Exact planar acuteness test: do all directions fit in an open half-plane?

    Sorts polar angles and checks that the largest angular gap exceeds pi.
    Comparison-based on atan2 values, so it serves as ground truth for
    the LP margin in two dimensions.
    """
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    if gens.shape[1] != 2:
        raise ValueError(f"acute_2d needs 2-D vectors, got shape {gens.shape}")
    if np.any(np.linalg.norm(gens, axis=1) == 0.0):
        raise ValueError("generators must be nonzero")
    angles = np.sort(np.arctan2(gens[:, 1], gens[:, 0]))
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    largest = max(float(gaps.max()) if gaps.size else 0.0, float(wrap))
    return largest > np.pi


def fd_jacobian(map_like, x, h: float) -> np.ndarray:
    """Central-difference Jacobian at an interior point.

    Column ``j`` is ``(F(x + h e_j) - F(x - h e_j)) / (2 h)``; the point
    must keep distance ``h`` from the boundary of the unit cube.
    """
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    n = map_like.dimension
    if x.shape != (n,):
        raise ValueError(f"expected a point with {n} coordinates, got shape {x.shape}")
    if np.any(x < h) or np.any(x > 1.0 - h):
        raise ValueError("point too close to the boundary for the requested step")
    steps = h * np.eye(n)
    plus = eval_many(map_like, x[None, :] + steps)
    minus = eval_many(map_like, x[None, :] - steps)
    return (plus - minus).T / (2.0 * h)


def hull_membership(point, vertices, tol: float = 1e-9) -> bool:
    """Is ``point`` a convex combination of ``vertices``?

    Decided by nonnegative least squares on the system ``sum(w_k v_k) =
    point, sum(w_k) = 1, w >= 0``: the point is inside exactly when the
    residual vanishes (here: drops below ``tol``).
    """
    p = np.asarray(point, dtype=float)
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.shape[0] == 0:
        raise ValueError("vertex list must be non-empty")
    if p.shape != (V.shape[1],):
        raise ValueError(
            f"point has shape {p.shape}, vertices have {V.shape[1]} coordinates"
        )
    A = np.vstack([V.T, np.ones(V.shape[0])])
    b = np.append(p, 1.0)
    _, residual = nnls(A, b)
    return bool(residual <= tol)


def derivative_net(net: ControlNet, axis: int) -> ControlNet:
    """Net of the partial derivative along ``axis`` (0-based).

    Control points are ``p * (f[..., i+1, ...] - f[..., i, ...])`` where
    ``p`` is the degree along the axis; evaluating the result equals the
    analytic partial derivative of the original net everywhere. Along an
    axis of degree 0 that derivative is zero: the result is the zero net
    of the original's degrees.
    """
    p = net.degrees[axis]
    if p == 0:
        return ControlNet(net.degrees, np.zeros_like(net.points))
    moved = np.moveaxis(net.points, axis, 0)
    diff = p * (moved[1:] - moved[:-1])
    degrees = tuple(d - 1 if k == axis else d for k, d in enumerate(net.degrees))
    return ControlNet(degrees, np.moveaxis(diff, 0, axis))


def cell_widths(grid, cell) -> np.ndarray:
    """A grid cell's extent along each axis."""
    return np.array([b[k + 1] - b[k] for b, k in zip(grid.breakpoints, cell)])


def locate_patch(grid, x) -> tuple[tuple[int, ...], np.ndarray]:
    """Cell containing ``x``, a point of the unit cube, and its local coordinates.

    Each axis takes the first cell whose upper breakpoint is not below the
    coordinate, so a point on a shared face resolves to the
    lexicographically smallest containing cell.
    """
    x = np.asarray(x, dtype=float)
    cell = tuple(next(k for k in range(len(b) - 1) if xk <= b[k + 1])
                 for xk, b in zip(x, grid.breakpoints))
    lo = np.array([b[k] for k, b in zip(cell, grid.breakpoints)])
    return cell, (x - lo) / cell_widths(grid, cell)


def verify_certificate(a, epsilon: float, generators) -> bool:
    """Check ``a . v >= epsilon * |v|`` for every generator ``v``.

    The norms are the package's rescued generator norms, so
    entries of any finite size are judged without overflow.
    """
    a = np.asarray(a, dtype=float)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("certificate vector must be nonzero")
    gens = np.atleast_2d(np.asarray(generators, dtype=float))
    with np.errstate(over="ignore"):
        norms = _rescued_norms(gens, np.linalg.norm(gens, axis=1))
    return margin_holds(gens @ a, norms, epsilon)


def reference_column_generators(net: ControlNet, axis: int) -> GeneratorSet:
    """One cell's generators of column ``axis``: its derivative net's points, deduplicated."""
    dnet = derivative_net(net, axis)
    return GeneratorSet(axis, dedup_exact(dnet.points.reshape(-1, net.dimension)))


def reference_patch_column_generators(grid, cell) -> list[GeneratorSet]:
    """One cell's column generators, divided by its widths after deduplication."""
    net = grid.patches[tuple(cell)]
    widths = cell_widths(grid, cell)
    return [GeneratorSet(j, reference_column_generators(net, j).vectors / widths[j])
            for j in range(grid.dimension)]


def reference_grid_column_generators(grid, cells=None) -> list[GeneratorSet]:
    """The cells' scaled generators stacked per column and deduplicated again.

    ``cells`` defaults to every cell of the grid, in ``grid.cells()`` order.
    """
    n = grid.dimension
    stacked: list[list[np.ndarray]] = [[] for _ in range(n)]
    for cell in grid.cells() if cells is None else cells:
        for j, gens in enumerate(reference_patch_column_generators(grid, cell)):
            stacked[j].append(gens.vectors)
    return [GeneratorSet(j, dedup_exact(np.vstack(stacked[j]))) for j in range(n)]


def multiply_pivot(T, obj, basis, members, rows, cols, factors, scratch) -> None:
    """``lpsolve._pivot`` with the rank-one update formed by ``np.multiply``.

    ``np.multiply`` keeps the sign of a zero product, which ``einsum`` does
    not; the solver's results must not depend on that.
    """
    prow = T[members, rows] / factors[members, rows][:, None]
    T[members, rows] = prow
    factors[members, rows] = 0.0
    np.multiply(factors[:, :, None], prow[:, None, :], out=scratch)
    T -= scratch
    obj -= obj[members, cols][:, None] * T[members, rows]
    basis[members, rows] = cols


def reference_margin_lps(W: np.ndarray, signs: np.ndarray):
    """``lpsolve.margin_lps`` solved by HiGHS's dual simplex, one LP at a time.

    Each program is the dual margin LP as written: minimize ``sum(u)`` over
    ``lam, u >= 0`` subject to ``W_s^T lam - u <= 0``, ``-W_s^T lam - u <=
    0`` and ``-sum(lam) <= -1``, with ``W_s`` the signed rows of ``W``. The
    row duals ``y`` of the maximization are minus HiGHS's marginals, and
    ``a = y[:n] - y[n:2n]``, ``t = y[2n]``. Returns ``(a, t, weights)`` as the
    runtime does, with ``t`` zeroed when the optimal value is within the
    runtime's pricing tolerance of zero.
    """
    m, n = W.shape
    c = np.concatenate([np.zeros(m), np.ones(n)])
    b = np.zeros(2 * n + 1)
    b[-1] = -1.0
    rows = np.zeros((2 * n + 1, m + n))
    rows[:n, m:] = rows[n:2 * n, m:] = -np.eye(n)
    rows[2 * n, :m] = -1.0
    size = signs.shape[0]
    a, t, weights = np.empty((size, n)), np.empty(size), np.empty((size, m))
    for k, s in enumerate(signs):
        rows[:n, :m] = W.T * s
        rows[n:2 * n, :m] = -rows[:n, :m]
        res = linprog(c, A_ub=rows, b_ub=b, bounds=(0.0, None), method="highs-ds",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0, res.message
        y = -res.ineqlin.marginals
        a[k] = y[:n] - y[n:2 * n]
        t[k] = y[2 * n] if res.fun > lpsolve.REDUCED_COST_TOL else 0.0
        weights[k] = res.x[:m]
    return a, t, weights


def _reference_witness(lam, signed) -> Witness | None:
    lam = np.clip(lam, 0.0, None)
    total = lam.sum()
    if total <= 0.0:
        return None
    weights = lam / total
    combination = weights @ signed
    return Witness(weights, combination, float(np.linalg.norm(combination)))


def reference_pattern_result(pattern, signed, threshold, a_raw, t, weights) -> PatternResult:
    """One pattern's result from its LP optimum ``(a_raw, t, weights)``.

    ``signed`` holds the pattern's signed unit generators as rows; the
    certificate is re-checked against them through ``verify_certificate``.
    """
    if t > threshold:
        scale = np.linalg.norm(a_raw)
        a_unit = a_raw / scale
        achieved = float(np.min(signed @ a_unit / np.linalg.norm(signed, axis=1)))
        epsilon = min(t / scale, achieved)
        for _ in range(3):
            if epsilon > 0.0 and verify_certificate(a_unit, epsilon, signed):
                return PatternResult(pattern, STATUS_STRICT, Certificate(a_unit, epsilon), t)
            epsilon = float(np.nextafter(epsilon, 0.0))
        note = "certificate failed post-hoc verification"
    else:
        note = "numerically marginal" if t > 0.0 else None
    return PatternResult(pattern, STATUS_NOT_STRICT, None, t,
                         witness=_reference_witness(weights, signed), note=note)


def unit_generators(columns, delta: float = DEFAULT_DELTA) -> list[np.ndarray] | None:
    """Each column's generators divided by their ``np.linalg.norm``.

    ``None`` when a generator is shorter than ``delta``: its column's cone
    touches the origin, and the family's report lists no patterns. On
    generators of moderate size these are the package's unit generators,
    bit for bit.
    """
    norms = [np.linalg.norm(col.vectors, axis=1) for col in columns]
    if min(v.min() for v in norms) < delta:
        return None
    return [col.vectors / v[:, None] for col, v in zip(columns, norms)]


def margin_lp_inputs(columns) -> tuple[np.ndarray, np.ndarray] | None:
    """The unit generators ``W`` and the signs of every pattern's LP.

    These are what ``certify_matrix_family`` hands ``lpsolve.margin_lps``
    when no pattern is decided in closed form: row k of ``signs`` signs
    each row of ``W`` by its column's sign in pattern k. ``None`` for a
    family with a degenerate column, which solves no LP.
    """
    units = unit_generators(columns)
    if units is None:
        return None
    patterns = _sign_patterns(len(columns))[0]
    signs = np.repeat(np.array([p.signs for p in patterns], dtype=float),
                      [u.shape[0] for u in units], axis=1)
    return np.vstack(units), signs


def lp_margins(columns) -> np.ndarray:
    """Every pattern's max-margin LP value ``t``, by ``lpsolve.margin_lps``."""
    return lpsolve.margin_lps(*margin_lp_inputs(columns))[1]


def lp_pattern_results(columns, margin_lps=None,
                       threshold: float = DEFAULT_THRESHOLD) -> list[PatternResult]:
    """Every pattern of a family judged from its own max-margin LP.

    All LPs go to ``margin_lps`` (by default ``lpsolve.margin_lps``) in one
    call, and each optimum is judged alone by
    :func:`reference_pattern_result`, so every pattern carries its LP
    margin, whether or not the closed-form direction decides it. A
    family with a degenerate column has no pattern results, as its
    report has none.
    """
    inputs = margin_lp_inputs(columns)
    if inputs is None:
        return []
    W, signs = inputs
    a, t, weights = (margin_lps or lpsolve.margin_lps)(W, signs)
    return [reference_pattern_result(pattern, W * signs[k, :, None], threshold, a[k],
                                     float(t[k]), weights[k])
            for k, pattern in enumerate(_sign_patterns(len(columns))[0])]


class _ReferenceJacobian:
    """Exact Jacobian of a net or grid at one point, via derivative nets."""

    def __init__(self, map_like):
        self._map = map_like
        self._nets: dict[tuple, ControlNet] = {}

    def _dnet(self, net: ControlNet, axis: int, key: tuple) -> ControlNet:
        if key not in self._nets:
            self._nets[key] = derivative_net(net, axis)
        return self._nets[key]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = self._map.dimension
        J = np.zeros((n, n))
        if isinstance(self._map, ControlNet):
            net, local, widths = self._map, x, np.ones(n)
            cell: tuple = ()
        else:
            cell, local = locate_patch(self._map, x)
            net = self._map.patches[cell]
            widths = cell_widths(self._map, cell)
        for axis in range(n):
            dnet = self._dnet(net, axis, cell + (axis,))
            J[:, axis] = eval_many(dnet, local[None, :])[0] / widths[axis]
        return J


def _reference_residual(map_like, u, v) -> tuple[np.ndarray, float]:
    r = eval_many(map_like, u[None, :]) - eval_many(map_like, v[None, :])
    return r[0], float(np.linalg.norm(r, axis=1)[0])


def _reference_push_apart(u, v):
    d = v - u
    dist = np.linalg.norm(d)
    if dist == 0.0:
        return u, v
    mid = (u + v) / 2.0
    direction = d / dist
    u2 = np.clip(mid - direction * SEPARATION_FLOOR / 2.0, 0.0, 1.0)
    v2 = np.clip(mid + direction * SEPARATION_FLOOR / 2.0, 0.0, 1.0)
    return u2, v2


def collision_tolerance(map_like) -> float:
    """COLLISION_TOL times ``min(1, L)``, L the largest absolute derivative control point."""
    grid = map_like if isinstance(map_like, PatchGrid) else PatchGrid.single(map_like)
    top = max(np.abs(gens.vectors).max() for gens in reference_grid_column_generators(grid))
    return COLLISION_TOL * min(1.0, float(top))


def check_collision_witness(map_like, witness) -> None:
    """Assert the contract of an oracle witness ``(u, v, F(u), F(v))``.

    u and v lie in the unit cube at least SEPARATION_FLOOR apart, the
    reported images are ``eval_many``'s at them and agree within
    :func:`collision_tolerance`, and direct basis summation gives the same
    images to round-off, so they agree within it to round-off as well.
    """
    u, v, fu, fv = (np.asarray(x, dtype=float) for x in witness)
    for x in (u, v):
        assert x.shape == (map_like.dimension,) and 0.0 <= x.min() and x.max() <= 1.0
    assert np.linalg.norm(u - v) >= SEPARATION_FLOOR
    assert np.linalg.norm(fu - fv) <= collision_tolerance(map_like)
    images = np.vstack([fu, fv])
    assert images.tobytes() == eval_many(map_like, np.vstack([u, v])).tobytes()
    direct = []
    for x in (u, v):
        if isinstance(map_like, ControlNet):
            direct.append(direct_bb_eval(map_like, x))
        else:
            cell, local = locate_patch(map_like, x)
            direct.append(direct_bb_eval(map_like.patches[cell], local))
    assert np.abs(np.array(direct) - images).max() <= 1e-12 * (1.0 + np.abs(images).max())
