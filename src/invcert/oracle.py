"""Sampling oracle used to cross-examine the certifier.

Injectivity is probed by seeded pair sampling followed by local
Gauss-Newton refinement of the most promising pairs. It shares no
machinery with the certification path, and it is one-sided in the
opposite direction from the certifier: a collision it reports is a
genuine witness of non-injectivity, while finding none proves nothing.
That is what makes the agreement checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bernstein import (
    ConstantAxis,
    ControlNet,
    PatchGrid,
    derivative_net,
    eval_many,
    locate_patch,
)

__all__ = [
    "COLLISION_TOL",
    "SEPARATION_FLOOR",
    "CollisionReport",
    "sampled_injectivity",
]

# Two sampled points count as a collision only if their images agree to
# COLLISION_TOL while the points themselves stay SEPARATION_FLOOR apart;
# the floor keeps evaluation round-off from faking collisions.
COLLISION_TOL = 1e-9
SEPARATION_FLOOR = 1e-3

_REFINE_CANDIDATES = 8
_REFINE_MAX_ITER = 80


@dataclass(frozen=True)
class CollisionReport:
    """Outcome of an injectivity sampling run.

    ``witness`` is ``(u, v, F(u), F(v))`` when a collision was found.
    """

    collided: bool
    witness: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None
    trials: int
    seed: int


def _dimension(map_like) -> int:
    if isinstance(map_like, (ControlNet, PatchGrid)):
        return map_like.dimension
    raise TypeError(f"expected ControlNet or PatchGrid, got {type(map_like)!r}")


class _JacobianCache:
    """Evaluate exact Jacobians of a net or grid via derivative nets.

    Degree-0 axes contribute a zero column (the map is constant along
    them), so refinement never trips over ConstantAxis.
    """

    def __init__(self, map_like):
        self._map = map_like
        self._nets: dict[tuple, ControlNet | None] = {}

    def _dnet(self, net: ControlNet, axis: int, key: tuple) -> ControlNet | None:
        if key not in self._nets:
            try:
                self._nets[key] = derivative_net(net, axis)
            except ConstantAxis:
                self._nets[key] = None
        return self._nets[key]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = _dimension(self._map)
        J = np.zeros((n, n))
        if isinstance(self._map, ControlNet):
            net, local, widths = self._map, x, np.ones(n)
            cell: tuple = ()
        else:
            cell, local = locate_patch(self._map, x)
            net = self._map.patches[cell]
            widths = self._map.cell_widths(cell)
        for axis in range(n):
            dnet = self._dnet(net, axis, cell + (axis,))
            if dnet is not None:
                J[:, axis] = eval_many(dnet, local[None, :])[0] / widths[axis]
        return J


def _pair_mismatch(map_like, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return np.linalg.norm(eval_many(map_like, U) - eval_many(map_like, V), axis=1)


def _residual(map_like, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """``F(u) - F(v)`` and its norm, computed exactly as ``_pair_mismatch`` does."""
    r = eval_many(map_like, u[None, :]) - eval_many(map_like, v[None, :])
    return r[0], float(np.linalg.norm(r, axis=1)[0])


def _refine_pair(map_like, jac: _JacobianCache, u0: np.ndarray, v0: np.ndarray):
    """Drive ``|F(u) - F(v)|`` toward zero with damped Gauss-Newton steps.

    Both points stay inside the unit cube and at least SEPARATION_FLOOR
    apart, so any limit with zero mismatch is a genuine collision rather
    than the trivial ``u = v`` one.
    """
    u, v = u0.copy(), v0.copy()
    r, gap = _residual(map_like, u, v)
    stalls = 0
    for _ in range(_REFINE_MAX_ITER):
        if gap <= 1e-12 or stalls >= 3:
            break
        M = np.hstack([jac(u), -jac(v)])
        MMt = M @ M.T
        damping = 1e-12 * max(1.0, float(np.trace(MMt)))
        try:
            step = -M.T @ np.linalg.solve(MMt + damping * np.eye(M.shape[0]), r)
        except np.linalg.LinAlgError:
            break
        n = u.size
        improved = False
        alpha = 1.0
        while alpha > 1e-4:
            u_new = np.clip(u + alpha * step[:n], 0.0, 1.0)
            v_new = np.clip(v + alpha * step[n:], 0.0, 1.0)
            sep = np.linalg.norm(u_new - v_new)
            if sep < SEPARATION_FLOOR:
                u_new, v_new = _push_apart(u_new, v_new)
                sep = np.linalg.norm(u_new - v_new)
            if sep >= SEPARATION_FLOOR:
                r_new, gap_new = _residual(map_like, u_new, v_new)
                if gap_new < gap:
                    stalls = stalls + 1 if gap_new > 0.99 * gap else 0
                    u, v, r, gap = u_new, v_new, r_new, gap_new
                    improved = True
                    break
            alpha *= 0.5
        if not improved:
            break
    return u, v, gap


def _push_apart(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = v - u
    dist = np.linalg.norm(d)
    if dist == 0.0:
        return u, v
    mid = (u + v) / 2.0
    direction = d / dist
    u2 = np.clip(mid - direction * SEPARATION_FLOOR / 2.0, 0.0, 1.0)
    v2 = np.clip(mid + direction * SEPARATION_FLOOR / 2.0, 0.0, 1.0)
    return u2, v2


def sampled_injectivity(map_like, trials: int, seed: int = 0) -> CollisionReport:
    """Probe a map for collisions with seeded uniform pair samples.

    Draws ``trials`` pairs from the unit cube (re-drawing the rare pairs
    closer than the separation floor), then polishes the most promising
    pairs with a local Gauss-Newton descent on the image mismatch. Raw
    uniform pairs essentially never agree to within the collision
    tolerance even on badly folded maps, so the refinement is what turns
    near-misses into exact witnesses; it respects the separation floor,
    and every step is deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    n = _dimension(map_like)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    U = rng.random((trials, n))
    V = rng.random((trials, n))
    while True:
        close = np.linalg.norm(U - V, axis=1) < SEPARATION_FLOOR
        if not close.any():
            break
        U[close] = rng.random((int(close.sum()), n))
        V[close] = rng.random((int(close.sum()), n))

    mismatch = _pair_mismatch(map_like, U, V)
    order = np.argsort(mismatch, kind="stable")

    best = int(order[0])
    if mismatch[best] <= COLLISION_TOL:
        return CollisionReport(True, _witness(map_like, U[best], V[best]), trials, int(seed))

    jac = _JacobianCache(map_like)
    for idx in order[:_REFINE_CANDIDATES]:
        u, v, gap = _refine_pair(map_like, jac, U[idx], V[idx])
        if gap <= COLLISION_TOL and np.linalg.norm(u - v) >= SEPARATION_FLOOR:
            return CollisionReport(True, _witness(map_like, u, v), trials, int(seed))
    return CollisionReport(False, None, trials, int(seed))


def _witness(map_like, u: np.ndarray, v: np.ndarray):
    images = eval_many(map_like, np.vstack([u, v]))
    return (u.copy(), v.copy(), images[0], images[1])
