"""Sampling oracle used to cross-examine the certifier.

Injectivity is probed by seeded pair sampling followed by local
Gauss-Newton refinement of the most promising pairs. It shares no
machinery with the certification path, and it is one-sided in the
opposite direction from the certifier: a collision it reports is a
genuine witness of non-injectivity, while finding none proves nothing.
That is what makes the agreement checks meaningful.

The candidate pairs are refined in lockstep: each round evaluates the
Jacobians of every running candidate together, solves all their damped
Gauss-Newton systems in one stacked solve and tries every step length of
every candidate in one evaluation. The result is the same, bit for bit,
as refining the candidates one at a time in order and returning the
first collision: each candidate takes exactly the steps it would take
alone, and a candidate's collision is returned only once every earlier
candidate has stopped without one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bernstein import (
    ConstantAxis,
    PatchGrid,
    _as_grid,
    _cell_groups,
    _derivative_points,
    _reduce_batch,
    eval_many,
)

__all__ = [
    "COLLISION_TOL",
    "MAX_TRIALS",
    "SEPARATION_FLOOR",
    "CollisionReport",
    "sampled_injectivity",
]

# Two sampled points count as a collision only if their images agree to
# COLLISION_TOL while the points themselves stay SEPARATION_FLOOR apart;
# the floor keeps evaluation round-off from faking collisions.
COLLISION_TOL = 1e-9
SEPARATION_FLOOR = 1e-3

# Largest number of sample pairs one run accepts. The pairs themselves
# take (2n + 1) * 8 bytes each, about 56 MB at n = 3.
MAX_TRIALS = 1_000_000

_REFINE_CANDIDATES = 8
_REFINE_MAX_ITER = 80
# Sample pairs evaluated per block, so evaluation memory does not grow
# with the number of trials.
_BLOCK = 2**15
# Backtracking step lengths 1, 1/2, ..., 2^-13, longest first.
_ALPHAS = np.ldexp(1.0, -np.arange(14))

# Per-candidate outcome while refining.
_RUNNING, _CLEAN, _COLLIDED = 0, 1, 2


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of an injectivity sampling run.

    ``witness`` is ``(u, v, F(u), F(v))`` when a collision was found.
    """

    collided: bool
    witness: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    trials: int
    seed: int


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _Jacobians:
    """Exact Jacobians of a grid at a batch of points.

    Column ``axis`` on a cell reduces the cell's derivative control points
    (formed on first use) at the local coordinates and divides by the
    cell's width. Degree-0 axes give a zero column (the map is constant
    along them). Every point has passed ``eval_many``'s unit-cube check,
    so the local coordinates need no second one.
    """

    def __init__(self, grid: PatchGrid):
        self._grid = grid
        self._points: dict[tuple, np.ndarray | None] = {}

    def _dpoints(self, cell: tuple, axis: int) -> np.ndarray | None:
        key = cell + (axis,)
        if key not in self._points:
            try:
                self._points[key] = _derivative_points(self._grid.patches[cell], axis)
            except ConstantAxis:
                self._points[key] = None
        return self._points[key]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """Jacobians at the rows of ``xs``, shape (N, n) -> (N, n, n)."""
        n = self._grid.dimension
        J = np.zeros((xs.shape[0], n, n))
        for cell, rows, local in _cell_groups(self._grid, xs):
            widths = self._grid.cell_widths(cell)
            for axis in range(n):
                points = self._dpoints(cell, axis)
                if points is not None:
                    J[rows, :, axis] = _reduce_batch(points, local) / widths[axis]
        return J


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: ``np.linalg.norm(d, axis=1)`` to 2 ulp.

    These column sums add the squares of a row from left to right, without
    a reduction loop per row. For rows of up to 7 entries so does that
    reduction, and the two agree bit for bit; from 8 entries on it adds in
    unrolled partial sums, and about a fifth of random rows at n=8 differ
    in the last bit or two.
    """
    sq = (d * d).T
    total = sq[0]
    for column in sq[1:]:
        total = total + column
    return np.sqrt(total)


def _dot_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit ``np.linalg.norm(row)``.

    The one-vector norm goes through a BLAS dot product; a stacked
    vector-by-vector matmul makes the same call once per row.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _pair_mismatch(grid: PatchGrid, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``|F(u) - F(v)|`` for every pair, evaluated _BLOCK pairs at a time."""
    out = np.empty(U.shape[0])
    for start in range(0, U.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        out[block] = _row_norms(eval_many(grid, U[block]) - eval_many(grid, V[block]))
    return out


def _gauss_newton_steps(M: np.ndarray, r: np.ndarray):
    """Damped steps ``-Mᵀ (M Mᵀ + λI)⁻¹ r`` for a stack of systems.

    ``M`` is (K, n, 2n) and ``r`` is (K, n). Returns the (K, 2n) steps and
    a mask of the systems that could be solved. Each step has the bits of
    the same system solved alone.
    """
    K, n, _ = M.shape
    MMt = M @ M.transpose(0, 2, 1)
    # fmax ignores a NaN trace, as Python's max(1.0, trace) does.
    damping = 1e-12 * np.fmax(1.0, np.trace(MMt, axis1=1, axis2=2))
    A = MMt + damping[:, None, None] * np.eye(n)
    ok = np.ones(K, dtype=bool)
    try:
        sol = np.linalg.solve(A, r[..., None])
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve them one by one.
        sol = np.zeros((K, n, 1))
        for k in range(K):
            try:
                sol[k] = np.linalg.solve(A[k], r[k, :, None])
            except np.linalg.LinAlgError:
                ok[k] = False
    return ((-M.transpose(0, 2, 1)) @ sol)[..., 0], ok


def _push_apart(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each pair of rows apart to SEPARATION_FLOOR about its midpoint.

    A pair of equal points stays as it is.
    """
    D = V - U
    dist = _dot_norms(D)
    moved = dist != 0.0
    mid = (U[moved] + V[moved]) / 2.0
    half = D[moved] / dist[moved, None] * SEPARATION_FLOOR / 2.0
    U, V = U.copy(), V.copy()
    U[moved] = np.clip(mid - half, 0.0, 1.0)
    V[moved] = np.clip(mid + half, 0.0, 1.0)
    return U, V


def _line_search(grid, u, v, step, gap):
    """Try every step length of every candidate in one evaluation.

    A candidate accepts its longest step length whose clipped points are
    at least SEPARATION_FLOOR apart (after pushing them apart if needed)
    and lower its mismatch. Returns the mask of candidates that accepted
    one, and their new points, residuals and mismatches.
    """
    K, n = u.shape
    U = np.clip(u[:, None, :] + _ALPHAS[:, None] * step[:, None, :n], 0.0, 1.0)
    V = np.clip(v[:, None, :] + _ALPHAS[:, None] * step[:, None, n:], 0.0, 1.0)
    U, V = U.reshape(-1, n), V.reshape(-1, n)
    sep = _dot_norms(U - V)
    close = np.flatnonzero(sep < SEPARATION_FLOOR)
    if close.size:
        U[close], V[close] = _push_apart(U[close], V[close])
        sep[close] = _dot_norms(U[close] - V[close])
    tried = np.flatnonzero(sep >= SEPARATION_FLOOR)
    images = eval_many(grid, np.vstack([U[tried], V[tried]]))
    R = np.zeros((U.shape[0], n))
    R[tried] = images[:tried.size] - images[tried.size:]
    gaps = np.full(U.shape[0], np.nan)
    gaps[tried] = _row_norms(R[tried])
    better = gaps.reshape(K, _ALPHAS.size) < gap[:, None]
    accepted = better.any(axis=1)
    rows = (np.arange(K) * _ALPHAS.size + better.argmax(axis=1))[accepted]
    return accepted, U[rows], V[rows], R[rows], gaps[rows]


def _refine(grid: PatchGrid, U0: np.ndarray, V0: np.ndarray):
    """Drive ``|F(u) - F(v)|`` toward zero for candidate pairs, in lockstep.

    Damped Gauss-Newton steps keep both points inside the unit cube and at
    least SEPARATION_FLOOR apart, so any limit with zero mismatch is a
    genuine collision rather than the trivial ``u = v`` one. A candidate
    stops when its mismatch drops to 1e-12, after three steps in a row
    that shrink it by less than 1%, when no step length lowers it, or
    after _REFINE_MAX_ITER steps.

    Returns the ``(u, v)`` of the first candidate, in the given order,
    that stops with a collision, or None.
    """
    K, n = U0.shape
    u, v = U0.copy(), V0.copy()
    images = eval_many(grid, np.vstack([u, v]))
    r = images[:K] - images[K:]
    gap = _row_norms(r)
    stalls = np.zeros(K, dtype=int)
    halted = np.zeros(K, dtype=bool)  # no solvable system or no better step
    outcome = np.full(K, _RUNNING)
    jac = _Jacobians(grid)
    for it in itertools.count():
        stopping = (outcome == _RUNNING) & (halted | (gap <= 1e-12) | (stalls >= 3)
                                            | (it == _REFINE_MAX_ITER))
        if stopping.any():
            collided = ((gap[stopping] <= COLLISION_TOL)
                        & (_dot_norms(u[stopping] - v[stopping]) >= SEPARATION_FLOOR))
            outcome[stopping] = np.where(collided, _COLLIDED, _CLEAN)
        # Candidates after the first collision cannot change the answer.
        hits = np.flatnonzero(outcome == _COLLIDED)
        first = hits[0] if hits.size else K
        live = np.flatnonzero(outcome[:first] == _RUNNING)
        if live.size == 0:
            return (u[first], v[first]) if hits.size else None

        J = jac(np.vstack([u[live], v[live]]))
        M = np.concatenate([J[:live.size], -J[live.size:]], axis=2)
        step, solved = _gauss_newton_steps(M, r[live])
        halted[live[~solved]] = True
        live, step = live[solved], step[solved]
        accepted, u_new, v_new, r_new, gap_new = _line_search(
            grid, u[live], v[live], step, gap[live])
        halted[live[~accepted]] = True
        live = live[accepted]
        stalls[live] = np.where(gap_new > 0.99 * gap[live], stalls[live] + 1, 0)
        u[live], v[live], r[live], gap[live] = u_new, v_new, r_new, gap_new


def sampled_injectivity(map_like, trials: int, seed: int = 0) -> CollisionReport:
    """Probe a map for collisions with seeded uniform pair samples.

    Draws ``trials`` pairs from the unit cube (re-drawing the rare pairs
    closer than the separation floor), then polishes the most promising
    pairs with a local Gauss-Newton descent on the image mismatch. Raw
    uniform pairs essentially never agree to within the collision
    tolerance even on badly folded maps, so the refinement is what turns
    near-misses into exact witnesses; it respects the separation floor,
    and every step is deterministic for a fixed seed.

    ``trials`` must be an integer from 1 to MAX_TRIALS and ``seed`` a
    non-negative integer; anything else raises ValueError.
    """
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    grid = _as_grid(map_like)
    n = grid.dimension
    rng = np.random.Generator(np.random.Philox(int(seed)))
    U = rng.random((trials, n))
    V = rng.random((trials, n))
    while True:
        close = _row_norms(U - V) < SEPARATION_FLOOR
        if not close.any():
            break
        U[close] = rng.random((int(close.sum()), n))
        V[close] = rng.random((int(close.sum()), n))

    mismatch = _pair_mismatch(grid, U, V)
    order = _smallest(mismatch, _REFINE_CANDIDATES)

    best = int(order[0])
    if mismatch[best] <= COLLISION_TOL:
        return CollisionReport(True, _witness(grid, U[best], V[best]), trials, int(seed))

    pair = _refine(grid, U[order], V[order])
    if pair is None:
        return CollisionReport(False, None, trials, int(seed))
    return CollisionReport(True, _witness(grid, *pair), trials, int(seed))


def _smallest(values: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` entries of ``np.argsort(values, kind="stable")``.

    A partition finds the k-th smallest value; only the entries not above
    it are sorted. NaN sorts last in both, and ``~(values > kth)`` keeps
    every entry when ``kth`` itself is NaN.
    """
    if values.size <= k:
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    survivors = np.flatnonzero(~(values > kth))
    return survivors[np.argsort(values[survivors], kind="stable")][:k]


def _witness(grid: PatchGrid, u: np.ndarray, v: np.ndarray):
    images = eval_many(grid, np.vstack([u, v]))
    return (u.copy(), v.copy(), images[0], images[1])
