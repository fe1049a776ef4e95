"""Dense primal simplex for small linear programs, in lockstep batches.

Solves ``maximize c.x`` subject to ``A x <= b``, ``x >= 0``, where
``b >= 0``. Every row gets a slack variable; ``b >= 0`` makes the slack
basis feasible, and the one phase starts there. A program with negative
right-hand sides goes to the solver as its dictionary at a known
feasible vertex: the nonbasic variables become ``x``, the basic ones the
slacks, and ``b`` their values, which are nonnegative. The certification
LPs are solved that way (see ``certify._margin_lps``). Pricing follows
Dantzig's rule (most negative reduced cost, lowest index on ties; ratio
ties leave by the lowest basis index) and falls back to Bland's
least-index rule, which cannot cycle, after a run of degenerate pivots
until the objective improves again. Termination is guaranteed and the
solve deterministic: identical inputs take the identical pivot path and
return bit-identical solutions. Row duals are read from the final
objective row.

The kernel pivots a stack of tableaux in lockstep, with one ``einsum``
forming the rank-one update of the whole stack at each step.
:func:`solve_batch`, the only entry point, takes B programs ``maximize
c_k.x`` s.t. ``A[k] x <= b``, ``x >= 0`` that share ``b``, so their slack
columns are the same, and have one cost row each: costs enter only the
objective rows, which are per program anyway, and a vertex dictionary's
costs depend on the program. It returns their outcomes as one
:class:`LpBatch` of arrays indexed by program. Every member keeps its own
pricing rule, degenerate-run counter and iteration limit, and leaves the
active set when it stops. Its arithmetic is exactly that of solving it
alone, so a batch returns the same bits, signed zeros included, and pivot
counts as its members solved one at a time.

Problem sizes here are tiny (a margin LP has 2n + 1 rows and one column
per generator plus n), so the dense tableau is the right tool; batching
spreads numpy's per-call overhead over a family's sign patterns. There
is no sparse storage, and no warm starting beyond the caller's choice of
dictionary.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "LpBatch",
    "OPTIMAL",
    "PIVOT_TOL",
    "REDUCED_COST_TOL",
    "UNBOUNDED",
    "solve_batch",
]

PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
# Degenerate pivots in a row before Bland's rule takes over. Started at their
# closed-form vertex, margin LPs of Gaussian and near-identity families (n=6
# to 10, m=20 to 40) took no degenerate pivot, and those of small integer
# families runs of up to 5. The run must stay well above that so Bland's slow
# path is only a guard against cycling.
_DEGENERATE_RUN = 500

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


class LpBatch(NamedTuple):
    """Outcomes of a batch of programs; entry k belongs to program ``A[k]``.

    ``status[k]`` is :data:`OPTIMAL` or :data:`UNBOUNDED`. ``x[k]`` is
    program k's optimal point and ``duals[k, i]`` the nonnegative
    multiplier of its row ``i`` (zero on slack rows); both rows are NaN
    unless the program is optimal. ``pivots[k]`` counts its simplex pivots.
    """

    status: np.ndarray
    x: np.ndarray
    duals: np.ndarray
    pivots: np.ndarray


def _pivot(T: np.ndarray, obj: np.ndarray, basis: np.ndarray, members: np.ndarray,
           rows: np.ndarray, cols: np.ndarray, factors: np.ndarray,
           scratch: np.ndarray) -> None:
    """Pivot member k of the stack on ``(rows[k], cols[k])``, for every k.

    ``factors[k]`` holds member k's column ``cols[k]`` on entry and is
    overwritten; ``members`` is ``arange`` over the stack.
    """
    prow = T[members, rows] / factors[members, rows][:, None]
    # The pivot row becomes prow - 0 * prow: prow with each -0.0 made 0.0.
    prow += 0.0
    T[members, rows] = prow
    factors[members, rows] = 0.0
    # einsum forms the products at about half np.multiply's cost on these
    # broadcast views, with the same bits except that a zero product is
    # always 0.0. That can leave a -0.0 where np.multiply would give 0.0,
    # but only in rows never pivoted on, from which no result reads the sign
    # of a zero: pivot rows hold no -0.0, and updates keep them so.
    np.einsum("bi,bj->bij", factors, prow, out=scratch)
    T -= scratch
    # prow is the pivot row as updated, as for a single tableau.
    obj -= obj[members, cols][:, None] * prow
    basis[members, rows] = cols


def _compact(keep: np.ndarray, *stacks: np.ndarray) -> int:
    """Move the kept members of every stack to its front; returns their count.

    Only members on the wrong side of the split are swapped, so shedding
    finished members copies those few and not the whole stack.
    """
    kept = int(np.count_nonzero(keep))
    holes = np.flatnonzero(~keep[:kept])
    if holes.size:
        movers = kept + np.flatnonzero(keep[kept:])
        dst = np.concatenate([holes, movers])
        src = np.concatenate([movers, holes])
        for stack in stacks:
            stack[dst] = stack[src]
    return kept


def _run_simplex(T: np.ndarray, obj: np.ndarray,
                 basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot a stack of tableaux to optimality in lockstep.

    ``T[k]``, ``obj[k]`` and ``basis[k]`` are member k's tableau, objective
    row and basic columns; the last column holds the right-hand side.
    Members stop on their own and move behind the active ones as they do,
    so the three stacks are reordered in place. Returns ``(order,
    unbounded, pivots)``: the member now at position p was at position
    ``order[p]`` on entry, and ``unbounded`` and ``pivots`` are indexed by
    entry position.
    """
    size, n_rows, width = T.shape
    max_iter = 10_000 + 50 * (n_rows + width - 1)
    everyone = np.arange(size)
    order = everyone.copy()
    unbounded = np.zeros(size, dtype=bool)
    pivots = np.zeros(size, dtype=int)
    degenerate = np.zeros(size, dtype=int)
    scratch = np.empty_like(T)
    ratio_buffer = np.empty((size, n_rows))
    active, step = size, 0
    while active:
        if step == max_iter:
            raise RuntimeError("simplex iteration limit exceeded")
        members = everyone[:active]
        reduced = obj[:active, :-1]
        enter = reduced.argmin(axis=1)
        # Either rule enters a negative reduced cost whenever there is one.
        improving = reduced[members, enter] < -REDUCED_COST_TOL
        # A run grows by at most one per step, so none can be long before.
        if step >= _DEGENERATE_RUN:
            bland = degenerate[:active] >= _DEGENERATE_RUN
            enter[bland] = np.argmax(reduced[bland] < -REDUCED_COST_TOL, axis=1)
        col = T[members, :, enter]
        positive = col > PIVOT_TOL
        go = improving & np.logical_or.reduce(positive, axis=1)
        if np.count_nonzero(go) < active:
            # Optimal members and those with no pivot entry (unbounded) leave.
            stop = ~go
            done = order[:active][stop]
            pivots[done] = step
            unbounded[done] = improving[stop]
            active = _compact(go, T, obj, basis, order, degenerate, enter, col, positive)
            if not active:
                break
            members = everyone[:active]
            enter, col, positive = enter[:active], col[:active], positive[:active]
        ratios = ratio_buffer[:active]
        ratios.fill(np.inf)
        np.divide(T[:active, :, -1], col, out=ratios, where=positive)
        tied = ratios == np.minimum.reduce(ratios, axis=1, keepdims=True)
        leave = np.where(tied, basis[:active], width).argmin(axis=1)
        value = obj[:active, -1].copy()
        _pivot(T[:active], obj[:active], basis[:active], members, leave, enter, col,
               scratch[:active])
        run = degenerate[:active]
        run += 1
        run *= obj[:active, -1] <= value
        step += 1
    return order, unbounded, pivots


def solve_batch(A, b, c) -> LpBatch:
    """Solve ``maximize c[k].x`` s.t. ``A[k] x <= b``, ``x >= 0`` for every k.

    ``A`` has shape (B, rows, variables), the B programs share ``b`` and
    ``c`` has shape (B, variables), one row per program. Every entry of
    ``b`` must be nonnegative, so that the slack basis is feasible; the
    coefficients must be finite, which nothing here checks. Returns the
    outcomes as one :class:`LpBatch` of arrays indexed by program;
    ``duals`` price every row. Each program's entries are bit-identical to
    the ones it gets alone.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 3 or b.shape != A.shape[1:2] or c.shape != (A.shape[0], A.shape[2]):
        raise ValueError(
            f"need A of shape (B, rows, variables), b of (rows,) and c of (B, variables); "
            f"got {A.shape}, {b.shape} and {c.shape}"
        )
    if not (b >= 0.0).all():
        raise ValueError("every entry of b must be nonnegative")
    size, n_rows, n_var = A.shape

    # The tableaux are built in place: stacking them from temporaries of their
    # own size costs page faults once they exceed malloc's mmap threshold.
    T = np.zeros((size, n_rows, n_var + n_rows + 1))
    T[:, :, :n_var] = A
    T[:, :, n_var:-1] = np.eye(n_rows)
    T[:, :, -1] = b
    basis = np.repeat(n_var + np.arange(n_rows)[None], size, axis=0)
    # obj[k, j] = z_j - c_j at the slack basis, whose costs are all zero;
    # obj[k, -1] is the objective value.
    obj = np.full((size, n_var + n_rows + 1), -0.0)
    obj[:, :n_var] = -c
    obj[:, -1] = 0.0
    order, unbounded, pivots = _run_simplex(T, obj, basis)

    status = np.where(unbounded, UNBOUNDED, OPTIMAL).astype(object)
    optimal = ~unbounded[order]
    programs = order[optimal]
    y = np.zeros((size, n_var + n_rows))
    y[np.arange(size)[:, None], basis] = T[:, :, -1]
    x = np.full((size, n_var), np.nan)
    duals = np.full((size, n_rows), np.nan)
    # Adding 0.0 turns a -0.0 into 0.0, so no negative zero reaches the
    # witness weights that reports print.
    x[programs] = y[optimal, :n_var] + 0.0
    # Slack column i prices its own row: z_i - 0 = y . e_i, the row dual.
    duals[programs] = obj[optimal, n_var:-1]
    return LpBatch(status, x, duals, pivots)
