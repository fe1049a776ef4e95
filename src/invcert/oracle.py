"""Sampling oracle used to cross-examine the certifier.

Injectivity is probed by seeded pair sampling followed by local
Gauss-Newton refinement of the most promising pairs. It is one-sided in
the opposite direction from the certifier: a collision it reports is a
genuine witness of non-injectivity, while finding none proves nothing.
That is what makes the agreement checks meaningful.

The contract of a report is all its users rely on: a witness
``(u, v, F(u), F(v))`` has u and v in the unit cube, at least
SEPARATION_FLOOR apart, and images (as ``eval_many`` gives them) that
agree within COLLISION_TOL times ``min(1, L)``, L the largest absolute
derivative control point of the map; and the same map, trials and seed
give the same report. Which collision is reported is not part of it.

The candidate pairs are refined in lockstep: each round evaluates the
exact Jacobians of every running candidate together, as
:mod:`invcert.bernstein` forms them, solves all their damped
Gauss-Newton systems in one stacked solve and tries every step length of
every candidate in one evaluation. The run returns the first collision
any candidate stops at. It evaluates only points it made itself, draws in
[0,1) and line-search points clipped to [0,1] but never NaN ones, so it
skips ``eval_many``'s checks; witness images still come from ``eval_many``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bernstein import (PatchGrid, _as_grid, _cell_derivatives, _evaluate, _is_integer, _jacobians,
                        eval_many)
from .certify import _readonly, _rescued_norms

__all__ = [
    "COLLISION_TOL",
    "MAX_TRIALS",
    "SEPARATION_FLOOR",
    "CollisionReport",
    "sampled_injectivity",
]

# Two sampled points collide only if their images agree to COLLISION_TOL
# (times min(1, L), as above) while they stay SEPARATION_FLOOR apart; the
# floor keeps evaluation round-off from faking collisions.
COLLISION_TOL = 1e-9
SEPARATION_FLOOR = 1e-3

# Largest number of sample pairs one run accepts. The pairs themselves
# take (2n + 1) * 8 bytes each, about 56 MB at n = 3.
MAX_TRIALS = 1_000_000

_REFINE_CANDIDATES = 8
_REFINE_MAX_ITER = 80
# Sample pairs checked and evaluated per block, so temporaries do not grow
# with the trials. At n = 2 a 2^12-pair block's largest temporary (128 KB)
# stays in the L2 cache and reuses the last block's heap memory; blocks of
# 2^13 and more faulted in fresh pages each time and ran 16-29% slower.
_BLOCK = 2**12
# Backtracking step lengths 1, 1/2, ..., 2^-13, longest first.
_ALPHAS = np.ldexp(1.0, -np.arange(14))
_identity = functools.cache(lambda n: _readonly(np.eye(n)))  # the damping's, made once per n


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of an injectivity sampling run.

    ``witness`` is ``(u, v, F(u), F(v))`` when a collision was found.
    """

    collided: bool
    witness: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    trials: int
    seed: int


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, to within 2 ulp of ``np.linalg.norm``.

    Column sums add the squares of a row from left to right without a
    reduction loop per row, which makes this the fastest of numpy's ways
    on the oracle's short rows. Where squares overflow, which
    :func:`sampled_injectivity` lets pass as inf, or may have underflowed,
    the certifier's rescue rule recomputes the norm; a row holding an inf
    or a NaN keeps its norm.
    """
    sq = (d * d).T
    total = sq[0]
    for column in sq[1:]:
        total = total + column
    return _rescued_norms(d, np.sqrt(total))


def _pair_norms(U: np.ndarray, V: np.ndarray, grid: PatchGrid | None = None) -> np.ndarray:
    """``|u - v|``, or ``|F(u) - F(v)|`` given a grid, _BLOCK pairs at a time."""
    out = np.empty(U.shape[0])
    for start in range(0, U.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        u, v = U[block], V[block]
        if grid is not None:
            u, v = _evaluate(grid, u), _evaluate(grid, v)
        out[block] = _row_norms(u - v)
    return out


def _gauss_newton_steps(M: np.ndarray, r: np.ndarray, floor: float):
    """Damped steps ``-Mᵀ (M Mᵀ + λI)⁻¹ r`` for a stack of systems.

    ``M`` is (K, n, 2n), ``r`` is (K, n) and λ is 1e-12 times the larger
    of ``floor`` and the trace of ``M Mᵀ``. Returns the (K, 2n) steps and
    a mask of the systems that could be solved; the step of an unsolved
    system is NaN. Each step has the bits of the same system solved alone.
    """
    K, n, _ = M.shape
    Mt = M.transpose(0, 2, 1)
    A = M @ Mt
    # fmax ignores a NaN trace, as Python's max(floor, trace) does.
    damping = 1e-12 * np.fmax(floor, A.trace(axis1=1, axis2=2))
    A += np.multiply.outer(damping, _identity(n))
    ok = np.ones(K, dtype=bool)
    try:
        sol = np.linalg.solve(A, r[..., None])
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve them one by one.
        sol = np.full((K, n, 1), np.nan)
        for k in range(K):
            try:
                sol[k] = np.linalg.solve(A[k], r[k, :, None])
            except np.linalg.LinAlgError:
                ok[k] = False
    return (-Mt @ sol)[..., 0], ok


def _line_search(grid, P, step, gap):
    """Try every step length of every candidate in one evaluation.

    ``P`` holds each candidate's points ``(u, v)``, shape (K, 2, n). A
    candidate accepts its longest step length whose clipped points are at
    least SEPARATION_FLOOR apart (after pushing them apart if needed) and
    lower its mismatch. Returns the mask of candidates that accepted one,
    and each candidate's new points, residual and mismatch; those of a
    candidate that accepted none are meaningless.
    """
    K, _, n = P.shape
    # Rows are (candidate, step length); each row holds its pair (u, v).
    W = (P[:, None] + _ALPHAS[:, None, None] * step.reshape(K, 1, 2, n)).reshape(-1, 2, n)
    W.clip(0.0, 1.0, out=W)  # np.clip's bits: np.maximum would turn a -0.0 into 0.0
    D = W[:, 1] - W[:, 0]
    sep = _row_norms(D)
    close = sep < SEPARATION_FLOOR
    if close.any():
        # Move a close pair apart to SEPARATION_FLOOR about its midpoint; a
        # pair of equal points stays as it is, and only moved pairs divide.
        moved = (close & (sep != 0.0))[:, None]
        half = np.divide(D, sep[:, None], out=D, where=moved) * SEPARATION_FLOOR / 2.0
        mid = (W[:, 0] + W[:, 1]) / 2.0
        np.subtract(mid, half, out=W[:, 0], where=moved)
        np.add(mid, half, out=W[:, 1], where=moved)
        W.clip(0.0, 1.0, out=W)
        sep = _row_norms(W[:, 0] - W[:, 1])
    # Rows are clipped into the unit cube, and a NaN row is never tried.
    tried = sep >= SEPARATION_FLOOR
    images = _evaluate(grid, W[tried].reshape(-1, n)).reshape(-1, 2, n)
    R = np.full((W.shape[0], n), np.nan)
    R[tried] = images[:, 0] - images[:, 1]
    gaps = _row_norms(R)
    better = gaps.reshape(K, _ALPHAS.size) < gap[:, None]
    rows = np.arange(0, better.size, _ALPHAS.size) + better.argmax(axis=1)
    return better.any(axis=1), W[rows], R[rows], gaps[rows]


def _refine(grid: PatchGrid, derivatives, top: float, U0: np.ndarray, V0: np.ndarray):
    """Drive ``|F(u) - F(v)|`` toward zero for candidate pairs, in lockstep.

    Damped Gauss-Newton steps keep both points inside the unit cube and at
    least SEPARATION_FLOOR apart, so any limit with zero mismatch is a
    genuine collision rather than the trivial ``u = v`` one. A candidate
    stops when its mismatch drops to 1e-12 s, after three steps in a row
    that shrink it by less than 1%, when no step length lowers it, or
    after _REFINE_MAX_ITER steps. ``top`` is the largest absolute entry
    of ``derivatives`` (each cell's), ``s = min(1, top)``.

    Each Gauss-Newton system is solved at the map's power-of-two scale: its
    matrix and residual times 2^-e, the floor ``s²`` times 2^-2e, where
    ``top = m 2^e``, 1/2 <= m < 1. That keeps it in range at any map size,
    and a step whose unscaled system is in range keeps its bits.

    Returns the ``(u, v)`` of the first candidate to stop with a
    collision (the earliest given, on a tie), or None.
    """
    K, n = U0.shape
    # The arrays hold the candidates still running. P[k] is (u, v).
    P = np.concatenate((U0, V0), axis=1).reshape(K, 2, n)
    images = _evaluate(grid, P.reshape(-1, n)).reshape(K, 2, n)
    r = images[:, 0] - images[:, 1]
    gap = _row_norms(r)
    stalls = np.zeros(K, dtype=int)
    halted = np.zeros(K, dtype=bool)  # no solvable system or no better step
    s = min(1.0, top)
    e = int(np.frexp(top)[1])  # ldexp stays finite where 2.0 ** -e would not
    floor = np.ldexp(s, -e) ** 2
    for it in itertools.count():
        stopping = halted | (gap <= 1e-12 * s) | (stalls >= 3) | (it == _REFINE_MAX_ITER)
        if stopping.any():
            collided = stopping & (gap <= COLLISION_TOL * s)
            if collided.any():  # separations matter only then
                collided &= _row_norms(P[:, 0] - P[:, 1]) >= SEPARATION_FLOOR
            if collided.any():
                return P[collided.argmax()]
            keep = ~stopping
            if not keep.any():
                return None
            P, r, gap, stalls = P[keep], r[keep], gap[keep], stalls[keep]

        J = _jacobians(grid, derivatives, P.reshape(-1, n)).reshape(-1, 2, n, n)
        M = np.concatenate([J[:, 0], -J[:, 1]], axis=2)
        # No step length accepts the NaN step of an unsolved system, so it halts.
        step, _ = _gauss_newton_steps(np.ldexp(M, -e), np.ldexp(r, -e), floor)
        accepted, P_new, r, gap_new = _line_search(grid, P, step, gap)
        halted = ~accepted
        if halted.any():
            # A halted candidate keeps its points and mismatch to stop with.
            P_new[halted], gap_new[halted] = P[halted], gap[halted]
        stalls = np.where(gap_new > 0.99 * gap, stalls + 1, 0)
        P, gap = P_new, gap_new


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
    derivatives = {cell: _cell_derivatives(grid, cell) for cell in grid.patches}
    top = max(np.abs(points).max() for axes in derivatives.values() for points in axes)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    # Overflow is no error here: an image or a norm beyond the float range
    # is inf, and no comparison takes inf for a collision.
    with np.errstate(over="ignore"):
        U = rng.random((trials, n))
        V = rng.random((trials, n))
        while True:
            close = _pair_norms(U, V) < SEPARATION_FLOOR
            if not close.any():
                break
            U[close] = rng.random((int(close.sum()), n))
            V[close] = rng.random((int(close.sum()), n))

        mismatch = _pair_norms(U, V, grid)
        # The candidates by rising mismatch; NaN ranks last.
        k = min(_REFINE_CANDIDATES, trials)
        picks = np.argpartition(mismatch, k - 1)[:k]
        order = picks[np.argsort(mismatch[picks])]
        pair = _refine(grid, derivatives, top, U[order], V[order])
        if pair is None:
            return CollisionReport(False, None, trials, int(seed))
        images = eval_many(grid, pair)
        return CollisionReport(True, (pair[0].copy(), pair[1].copy(), images[0], images[1]),
                               trials, int(seed))
