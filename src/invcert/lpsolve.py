"""Dense two-phase primal simplex for small linear programs, in lockstep batches.

Solves ``maximize c.x`` subject to ``A x <= b`` and ``x >= 0``. Every
row gets a slack variable, and rows with a negative right-hand side get
phase-1 artificials. Pricing follows Dantzig's rule (most negative
reduced cost, lowest index on ties; ratio ties leave by the lowest basis
index) and falls back to Bland's least-index rule, which cannot cycle,
after a run of degenerate pivots until the objective improves again.
Termination is guaranteed and the solve deterministic: identical inputs
take the identical pivot path and return bit-identical solutions. Row
duals are read from the final objective row.

The kernel pivots a stack of tableaux in lockstep, with one ``einsum``
forming the rank-one update of the whole stack at each step.
:func:`solve_batch`, the only entry point, takes B programs ``maximize
c.x`` s.t. ``A[k] x <= b``, ``x >= 0`` that share ``b`` and ``c``, so
their slack and artificial columns are the same, and returns their
outcomes as one :class:`LpBatch` of arrays indexed by program. Every
member keeps its own pricing rule, degenerate-run counter and iteration
limit, and leaves the active set when it stops. Its arithmetic is
exactly that of solving it alone, so a batch returns the same bits,
signed zeros included, and pivot counts as its members solved one at a
time.

Problem sizes here are tiny (a margin LP has 2n + 1 rows and one column
per generator plus n), so the dense tableau is the right tool; batching
spreads numpy's per-call overhead over a family's sign patterns. There
is no sparse storage and no warm starting.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "FEASIBILITY_TOL",
    "INFEASIBLE",
    "LpBatch",
    "OPTIMAL",
    "PIVOT_TOL",
    "REDUCED_COST_TOL",
    "UNBOUNDED",
    "solve_batch",
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


class LpBatch(NamedTuple):
    """Outcomes of a batch of programs; entry k belongs to program ``A[k]``.

    ``status[k]`` is :data:`OPTIMAL`, :data:`INFEASIBLE` or
    :data:`UNBOUNDED`. ``x[k]`` is program k's optimal point and
    ``duals[k, i]`` the nonnegative multiplier of its row ``i`` (zero on
    slack rows); both rows are NaN unless the program is optimal.
    ``pivots[k]`` counts the simplex pivots of both phases.
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


def _init_objective(T: np.ndarray, basis: np.ndarray, costs: np.ndarray) -> np.ndarray:
    # obj[k, j] = z_j - c_j for member k's basis; obj[k, -1] accumulates the
    # value. Basic rows are added in order, as for one LP. Where a member's
    # basic cost is zero its row adds -0.0, which leaves every number as it
    # is, exactly as skipping the row would.
    obj = np.empty((T.shape[0], T.shape[2]))
    obj[:, :-1] = -costs
    obj[:, -1] = 0.0
    basic = costs[basis]
    rows = np.nonzero(basic.any(axis=0))[0]
    if rows.size:
        cost = basic[:, rows, None]
        terms = T[:, rows]
        terms *= cost
        np.copyto(terms, -0.0, where=cost == 0.0)
        for i in range(rows.size):
            obj += terms[:, i]
    return obj


def _run_simplex(T: np.ndarray, obj: np.ndarray, basis: np.ndarray,
                 n_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot a stack of tableaux to optimality in lockstep.

    ``T[k]``, ``obj[k]`` and ``basis[k]`` are member k's tableau, objective
    row and basic columns; only the first ``n_cols`` columns may enter.
    Members stop on their own and move behind the active ones as they do,
    so the three stacks are reordered in place. Returns ``(order,
    unbounded, pivots)``: the member now at position p was at position
    ``order[p]`` on entry, and ``unbounded`` and ``pivots`` are indexed by
    entry position.
    """
    size, n_rows, width = T.shape
    max_iter = 10_000 + 50 * (n_rows + n_cols)
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
        reduced = obj[:active, :n_cols]
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
    """Solve ``maximize c.x`` s.t. ``A[k] x <= b``, ``x >= 0`` for every k.

    ``A`` has shape (B, rows, variables) and the B programs share ``b`` and
    ``c``. Every coefficient must be finite; nothing here checks, so the
    caller validates its input. Returns the outcomes as one
    :class:`LpBatch` of arrays indexed by program; ``duals`` price every
    row. Each program's entries are bit-identical to the ones it gets
    alone.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 3 or b.shape != A.shape[1:2] or c.shape != A.shape[2:]:
        raise ValueError(
            f"need A of shape (B, rows, variables), b of (rows,) and c of (variables,); "
            f"got {A.shape}, {b.shape} and {c.shape}"
        )
    size, n_rows, n_var = A.shape
    n_total = n_var + n_rows
    negated = b < 0.0
    art_rows = np.nonzero(negated)[0]
    n_art = art_rows.size

    # The tableaux are built in place: stacking them from temporaries of their
    # own size costs page faults once they exceed malloc's mmap threshold.
    # Phase 2 keeps the artificial columns but never prices them; a pivot
    # updates each column from itself and the pivot column alone, so they
    # change no other entry.
    eye = np.eye(n_rows)
    T = np.zeros((size, n_rows, n_total + n_art + 1))
    T[:, :, :n_var] = A
    T[:, :, n_var:n_total] = eye
    T[:, art_rows, :n_total] *= -1.0  # rows with b < 0 flip to get b >= 0
    T[:, :, -1] = np.where(negated, -b, b)
    T[:, :, n_total:-1] = eye[:, negated]
    start = n_var + np.arange(n_rows)
    start[art_rows] = n_total + np.arange(n_art)
    basis = np.repeat(start[None], size, axis=0)
    costs = np.zeros(n_total + n_art)

    # members[p] is the program whose tableau sits at position p.
    members = np.arange(size)
    pivots = np.zeros(size, dtype=int)
    feasible = size
    if n_art:
        costs[n_total:] = -1.0
        obj = _init_objective(T, basis, costs)
        # Phase 1 maximizes minus the artificials' sum, which is bounded by
        # zero, so an unbounded exit is round-off in the objective row (a
        # reduced cost just past tolerance on a column with no pivot entry).
        # Either way the basis reached is judged by its objective value.
        members, _, pivots = _run_simplex(T, obj, basis, n_total + n_art)
        ok = obj[:, -1] >= -FEASIBILITY_TOL
        # Pivot leftover artificials out; the slack block keeps every row
        # nonzero over the real columns, so a pivot entry always exists.
        for p, i in np.argwhere(ok[:, None] & (basis >= n_total)):
            row = np.abs(T[p, i, :n_total])
            candidates = np.nonzero(row > PIVOT_TOL)[0]
            col = int(candidates[0]) if candidates.size else int(np.argmax(row))
            one = slice(p, p + 1)
            _pivot(T[one], obj[one], basis[one], np.zeros(1, dtype=int), np.array([i]),
                   np.array([col]), T[one, :, col].copy(), np.empty_like(T[one]))
        feasible = _compact(ok, T, basis, members)
        costs[n_total:] = 0.0

    status = np.full(size, INFEASIBLE, dtype=object)
    x = np.full((size, n_var), np.nan)
    duals = np.full((size, n_rows), np.nan)
    costs[:n_var] = c
    T, basis = T[:feasible], basis[:feasible]
    obj = _init_objective(T, basis, costs)
    moved, unbounded, phase2 = _run_simplex(T, obj, basis, n_total)
    pivots[members[:feasible]] += phase2
    # programs[p] is the program whose tableau phase 2 left at position p.
    programs, optimal = members[moved], ~unbounded[moved]
    status[programs] = np.where(optimal, OPTIMAL, UNBOUNDED)
    programs = programs[optimal]
    y = np.zeros((feasible, n_total))
    y[np.arange(feasible)[:, None], basis] = T[:, :, -1]
    # Adding 0.0 turns a -0.0 into 0.0, so no negative zero reaches the
    # witness weights that reports print.
    x[programs] = y[optimal, :n_var] + 0.0
    # Slack column i prices its own row: z_i - 0 = y . (+-e_i), so the sign
    # of a negated row cancels and the entry is the row dual itself.
    duals[programs] = obj[optimal, n_var:n_total]
    return LpBatch(status, x, duals, pivots)
