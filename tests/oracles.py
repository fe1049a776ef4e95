"""Independent reference oracles for the test suite.

Each oracle deliberately avoids the algorithm it checks: evaluation by
direct basis summation (vs de Casteljau), certificate margins by a dense
sweep of unit directions (vs the simplex LP), LP optima by exhaustive
vertex enumeration (vs the simplex pivots), planar acuteness exactly from
polar angles (vs the LP margin), Jacobians by central differences (vs
derivative nets), and hull membership by a nonnegative least-squares fit
(vs the convex-hull property of control nets). The last three are test-only, so they live
here rather than in the package, which keeps scipy out of its imports.

Two references keep an earlier, plainer form of a runtime step, which the
runtime must match bit for bit: the simplex pivot through ``np.multiply``
(vs ``einsum``), and the judging of one sign pattern from its signed
generators, re-checked through ``verify_certificate`` (vs norms and
products shared across a family's patterns).
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
from scipy.optimize import nnls

from invcert import Certificate, PatternResult, Witness, eval_many, verify_certificate
from invcert.certify import STATUS_NOT_STRICT, STATUS_STRICT
from invcert.oracle import _dimension


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
    n = _dimension(map_like)
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
