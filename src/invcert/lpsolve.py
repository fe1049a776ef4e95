"""Dense two-phase primal simplex for small linear programs.

Solves ``maximize c.x`` subject to ``G x <= h`` and per-variable bounds.
Bounded variables are shifted (finite lower bound), mirrored (finite
upper bound only), or split into positive and negative parts (free);
inequality rows get slack variables, and rows whose right-hand side turns
negative get phase-1 artificials. Pricing follows Dantzig's rule (most
negative reduced cost, lowest index on ties; ratio ties leave by the
lowest basis index) and falls back to Bland's least-index rule, which
cannot cycle, after a run of degenerate pivots until the objective
improves again. Termination is guaranteed and the solve deterministic:
identical inputs take the identical pivot path and return bit-identical
solutions. Row duals are read from the final objective row.

Problem sizes here are tiny (a margin LP has 2n + 1 rows and one column
per generator plus n), so the dense tableau is the right tool; there is
no sparse storage and no warm starting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FEASIBILITY_TOL",
    "INFEASIBLE",
    "LinearProgram",
    "LpSolution",
    "OPTIMAL",
    "PIVOT_TOL",
    "REDUCED_COST_TOL",
    "UNBOUNDED",
    "solve",
]

FEASIBILITY_TOL = 1e-9
PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
# Degenerate pivots in a row before Bland's rule takes over. Margin LPs have
# degenerate stretches of up to ~15 pivots (n=10, m=40); the run must stay
# well above that so Bland's slow path is only a guard against cycling.
_DEGENERATE_RUN = 500

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

Bound = tuple[float | None, float | None]


@dataclass(frozen=True)
class LinearProgram:
    """``maximize objective . x`` s.t. ``constraint_matrix x <= constraint_bounds``.

    ``bounds[j]`` is the (lower, upper) pair for variable ``j``; ``None``
    means unbounded on that side. When ``bounds`` is omitted every
    variable gets ``(0, None)``.
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_bounds: np.ndarray
    bounds: tuple[Bound, ...] | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        G = np.atleast_2d(np.asarray(self.constraint_matrix, dtype=float))
        h = np.asarray(self.constraint_bounds, dtype=float).ravel()
        if c.ndim != 1 or c.size == 0:
            raise ValueError("objective must be a non-empty vector")
        if G.size == 0:
            G = G.reshape(0, c.size)
        if G.shape[1] != c.size:
            raise ValueError(
                f"constraint rows have {G.shape[1]} coefficients, objective has {c.size}"
            )
        if h.shape != (G.shape[0],):
            raise ValueError(
                f"got {h.size} constraint bounds for {G.shape[0]} rows"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise ValueError("all coefficients must be finite")
        bounds = self.bounds
        if bounds is None:
            bounds = tuple((0.0, None) for _ in range(c.size))
        else:
            bounds = tuple(
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in bounds
            )
            if len(bounds) != c.size:
                raise ValueError(f"got {len(bounds)} bounds for {c.size} variables")
            for j, (lo, hi) in enumerate(bounds):
                if lo is not None and not np.isfinite(lo):
                    raise ValueError(f"variable {j}: finite or None lower bound required")
                if hi is not None and not np.isfinite(hi):
                    raise ValueError(f"variable {j}: finite or None upper bound required")
        for arr in (c, G, h):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", G)
        object.__setattr__(self, "constraint_bounds", h)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.constraint_matrix.shape[0]


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; ``x``, ``objective_value`` and ``duals`` only when optimal.

    ``duals[i]`` is the nonnegative multiplier of constraint row ``i`` at
    the optimum (zero on slack rows). ``pivots`` counts the simplex pivots
    of both phases.
    """

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    pivots: int = 0


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    obj -= obj[col] * T[row]
    basis[row] = col


def _init_objective(T: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> np.ndarray:
    # obj[j] = z_j - c_j for the current basis; obj[-1] accumulates the value.
    obj = np.append(-costs, 0.0)
    for i, bi in enumerate(basis):
        if costs[bi] != 0.0:
            obj += costs[bi] * T[i]
    return obj


def _run_simplex(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, n_cols: int) -> tuple[str, int]:
    """Pivot to optimality; returns the status and the number of pivots."""
    max_iter = 10_000 + 50 * (T.shape[0] + n_cols)
    degenerate = 0
    for pivots in range(max_iter):
        reduced = obj[:n_cols]
        if degenerate < _DEGENERATE_RUN:
            enter = int(np.argmin(reduced))
        else:
            enter = int(np.argmax(reduced < -REDUCED_COST_TOL))
        if reduced[enter] >= -REDUCED_COST_TOL:
            return OPTIMAL, pivots
        col = T[:, enter]
        positive = col > PIVOT_TOL
        if not positive.any():
            return UNBOUNDED, pivots
        rows = np.nonzero(positive)[0]
        ratios = T[rows, -1] / col[rows]
        tied = rows[ratios == ratios.min()]
        leave = int(tied[np.argmin(basis[tied])])
        value = obj[-1]
        _pivot(T, obj, basis, leave, enter)
        degenerate = degenerate + 1 if obj[-1] <= value else 0
    raise RuntimeError("simplex iteration limit exceeded")


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program; returns a vertex optimizer when one exists."""
    G, h, c = lp.constraint_matrix, lp.constraint_bounds, lp.objective
    m, n_var = G.shape

    # Substitute x = shift + S y with y >= 0. Column k of S is sign[k] times
    # the unit vector of variable var[k]. Variables with a finite lower bound
    # are shifted by it (and keep an upper-bound row if they have both),
    # upper-bounded ones are mirrored, and free ones are split into adjacent
    # positive and negative parts.
    shift = [0.0] * n_var
    var: list[int] = []
    sign: list[float] = []
    upper: list[int] = []
    widths: list[float] = []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            if hi is not None:
                if lo > hi:
                    return LpSolution(INFEASIBLE)
                upper.append(len(var))
                widths.append(hi - lo)
            shift[j] = lo
            var.append(j)
            sign.append(1.0)
        elif hi is not None:
            shift[j] = hi
            var.append(j)
            sign.append(-1.0)
        else:
            var += (j, j)
            sign += (1.0, -1.0)
    shift, var, sign = np.array(shift), np.array(var), np.array(sign)
    n_std = var.size
    n_rows = m + len(upper)
    n_total = n_std + n_rows

    b = np.concatenate([h - G @ shift, widths])
    negated = b < 0.0
    art_rows = np.nonzero(negated)[0]
    n_art = art_rows.size

    # The tableau is built in place: stacking it from temporaries of its own
    # size costs page faults once it exceeds malloc's mmap threshold.
    T = np.zeros((n_rows, n_total + n_art + 1))
    T[:m, :n_std] = G[:, var] * sign
    T[m + np.arange(len(upper)), upper] = 1.0
    T[np.arange(n_rows), n_std + np.arange(n_rows)] = 1.0
    T[negated, :n_total] *= -1.0
    T[:, -1] = np.where(negated, -b, b)
    T[art_rows, n_total + np.arange(n_art)] = 1.0
    basis = n_std + np.arange(n_rows)
    basis[art_rows] = n_total + np.arange(n_art)

    pivots = 0
    if n_art:
        costs1 = np.zeros(n_total + n_art)
        costs1[n_total:] = -1.0
        obj = _init_objective(T, basis, costs1)
        # Phase 1 maximizes minus the artificials' sum, which is bounded by
        # zero, so an unbounded exit is round-off in the objective row (a
        # reduced cost just past tolerance on a column with no pivot entry).
        # Either way the basis reached is judged by its objective value.
        _, pivots = _run_simplex(T, obj, basis, n_total + n_art)
        if obj[-1] < -FEASIBILITY_TOL:
            return LpSolution(INFEASIBLE, pivots=pivots)
        # Pivot leftover artificials out; the slack block keeps every row
        # nonzero over the real columns, so a pivot entry always exists.
        for i in range(n_rows):
            if basis[i] >= n_total:
                row = np.abs(T[i, :n_total])
                candidates = np.nonzero(row > PIVOT_TOL)[0]
                col = int(candidates[0]) if candidates.size else int(np.argmax(row))
                _pivot(T, obj, basis, i, col)
        T = np.hstack([T[:, :n_total], T[:, -1:]])

    costs2 = np.concatenate([c[var] * sign, np.zeros(n_rows)])
    obj = _init_objective(T, basis, costs2)
    status, phase2 = _run_simplex(T, obj, basis, n_total)
    pivots += phase2
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, pivots=pivots)

    y = np.zeros(n_total)
    y[basis] = T[:, -1]
    x = shift + np.bincount(var, sign * y[:n_std], minlength=n_var)
    value = float(c @ x)

    # Slack column i prices its own row: z_i - 0 = y . (+-e_i), so the sign
    # of a negated row cancels and the entry is the row dual itself.
    duals = obj[n_std:n_std + m].copy()
    duals.setflags(write=False)
    x.setflags(write=False)
    return LpSolution(OPTIMAL, x, value, duals, pivots)
