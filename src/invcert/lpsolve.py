"""Max-margin LPs of the certifier, by dense primal simplex on a lockstep stack.

:func:`margin_lps`, the only entry point, writes each sign pattern's
margin LP as its dictionary at a known feasible vertex straight into the
stack of tableaux the kernel pivots, and reads the direction, margin and
weights back from the final tableaux and objective rows. Pricing follows
Dantzig's rule (most negative reduced cost, lowest index on ties; ratio
ties leave by the lowest basis index) and falls back to Bland's
least-index rule, which cannot cycle, after a run of degenerate pivots
until the objective improves again, so every solve terminates and is
deterministic.

The kernel pivots the stack in lockstep, with one ``einsum`` forming the
rank-one update of every member at each step. Each member keeps its own
pricing rule, degenerate-run counter and iteration limit, and leaves the
active set when it stops. Its arithmetic is exactly that of solving it
alone, so a stack returns the same bits, signed zeros included, and
pivot counts as its members solved one at a time. The caller decides
how many programs share a stack.

Problem sizes here are tiny (a margin LP has 2n + 1 rows and one column
per generator plus n), so the dense tableau is the right tool; the stack
spreads numpy's per-call overhead over a family's sign patterns. There
is no sparse storage, and no warm starting beyond the known vertex.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PIVOT_TOL",
    "REDUCED_COST_TOL",
    "margin_lps",
]

PIVOT_TOL = 1e-10
REDUCED_COST_TOL = 1e-10
# Degenerate pivots in a row before Bland's rule takes over. Started at their
# closed-form vertex, margin LPs of Gaussian and near-identity families (n=6
# to 10, m=20 to 40) took no degenerate pivot, and those of small integer
# families runs of up to 5. The run must stay well above that so Bland's slow
# path is only a guard against cycling.
_DEGENERATE_RUN = 500

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


def margin_lps(W: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-margin LPs of B signings of one generator set; returns (a, t, weights).

    ``W`` holds the m unit generators as rows, and program k signs row
    r by ``signs[k, r]`` (+1 or -1); every program signs row 0 by +1.
    Each program maximizes ``t`` subject to ``a . w >= t`` for every
    signed generator ``w``, ``-1 <= a_j <= 1`` and ``t >= 0``. It is solved
    through its LP dual: minimize ``|W_s^T lam|_1`` over ``lam >= 0`` with
    ``sum(lam) >= 1``, written with ``u >= |W_s^T lam|`` as rows ``W_s^T lam
    - u <= 0`` (row i), ``-W_s^T lam - u <= 0`` (row n + i) and ``-sum(lam)
    <= -1`` (row 2n). That is ``2n + 1`` rows however many generators there
    are.

    The slack basis is infeasible for the last row, but a vertex is known:
    ``lam = e_0`` and ``u = |w_0|``. With ``s = sign(w_0)`` (+1 where
    ``w_0i`` is zero), coordinate i's "tight" row is row i if ``s_i = +1``
    and row n + i otherwise. The basis holds ``lam_0`` on row 2n, ``u_i`` on
    the tight row and the slack of the other, "loose", row; its primal
    reading is ``a = s``, ``t = |w_0|_1``. Each program is handed to the
    solver as its dictionary at that vertex, whose entries are closed-form:
    the variables are the nonbasic ``lam_1 .. lam_{m-1}``, the tight rows'
    slacks and row 2n's slack, the rows' own slacks are the basic
    variables, and with ``D_ik = |w_0i| - s_i W_s[k, i]`` the rows read

    * tight row of i: ``D_ik`` on ``lam_k``, -1 on its slack, ``-|w_0i|`` on
      row 2n's slack, right-hand side ``|w_0i|``;
    * loose row of i: twice the tight row's ``lam`` and row-2n entries, -1 on
      the tight slack, right-hand side ``2|w_0i|``;
    * row 2n: 1 on each ``lam_k``, -1 on its slack, right-hand side 1.

    The objective ``-sum(u)`` becomes ``-|w_0|_1`` plus costs ``|w_0|_1 -
    sum_i s_i W_s[k, i]`` on ``lam_k``, -1 on each tight slack and
    ``-|w_0|_1`` on row 2n's slack. The right-hand side is nonnegative and
    shared by every program, so the slack basis is feasible; each program's
    costs fill its own objective row. The dictionary lists the loose rows,
    then the tight rows, then row 2n, so a ratio tie lets a loose row's
    slack leave first; that took 10% to 30% fewer pivots than the tight
    rows first. All B programs are pivoted as one stack, and ``a . w_0``
    is formed one row at a time through stacked ``np.matmul``, so each
    program's results are the bits of solving it alone, whatever other
    programs share the stack.

    The original LP's row duals ``y`` give the primal optimum, ``a = y[:n]
    - y[n:2n]`` (dual feasibility gives ``|a_j| <= 1``) and ``t = y[2n]``.
    A loose row's dual is the solver's dual of that row; the tight rows'
    and row 2n's duals are the reduced costs of their slacks, formed from
    the solver's duals. The optimal ``lam``, scaled to sum to one, is the
    combination of generators that comes closest to cancelling. Optima
    whose ``t`` (by strong duality ``|W_s^T lam|_1``) is within the solver's
    pricing tolerance of zero are reported as ``t = 0``.

    The objective ``-sum(u)`` is at most 0, so a program the solver
    reports unbounded can only come from round-off, and raises
    ``RuntimeError``. Returns ``a`` of shape (B, n), ``t`` of shape (B,)
    and the optimal ``lam`` of shape (B, m).
    """
    m, n = W.shape
    w0 = W[0]
    s0 = np.where(w0 < 0.0, -1.0, 1.0)
    mag = np.abs(w0)
    norm1 = mag.sum()
    # Rows: the n loose rows, the n tight rows, row 2n. Columns: the
    # variables lam_1 .. lam_{m-1}, the n tight slacks and row 2n's slack,
    # then the rows' own slacks, then the right-hand side.
    k, n_var, n_rows = m - 1, m + n, 2 * n + 1
    b = np.concatenate([2.0 * mag, mag, [1.0]])
    fixed = np.zeros((n_rows, n_var + n_rows + 1))
    fixed[:n, k:n_var - 1] = fixed[n:2 * n, k:n_var - 1] = -np.eye(n)
    fixed[:, n_var - 1] = -b  # row 2n's slack enters each row as minus its right-hand side
    fixed[2 * n, :k] = 1.0
    fixed[:, n_var:-1] = np.eye(n_rows)
    fixed[:, -1] = b
    # s_i W[k, i] for the unsigned rows; program p multiplies by signs[p, k].
    oriented = s0[:, None] * W[1:].T
    along = W[1:] @ s0
    size = signs.shape[0]
    # The tableaux are written in place: stacking them from temporaries of
    # their own size costs page faults once they exceed malloc's mmap
    # threshold.
    T = np.empty((size,) + fixed.shape)
    T[:] = fixed
    D = T[:, n:2 * n, :k]
    np.multiply(oriented, signs[:, None, 1:], out=D)
    np.subtract(mag[:, None], D, out=D)
    np.add(D, D, out=T[:, :n, :k])
    # obj[p, j] = z_j - c_j at the slack basis, whose costs are all zero, so
    # it holds the negated costs (a zero cost as -0.0, whose sign can reach
    # the duals); obj[p, -1] is the objective value.
    obj = np.full((size, fixed.shape[1]), -0.0)
    obj[:, :k] = -(norm1 - signs[:, 1:] * along)
    obj[:, k:n_var - 1] = 1.0
    obj[:, n_var - 1] = norm1
    obj[:, -1] = 0.0
    basis = np.repeat(n_var + np.arange(n_rows)[None], size, axis=0)
    order, unbounded, _ = _run_simplex(T, obj, basis)
    if unbounded.any():
        raise RuntimeError("a margin LP was reported unbounded; its objective is at most 0")
    # The stacks come back reordered: program order[p] sits at p.
    y = np.zeros((size, n_var + n_rows))
    y[order[:, None], basis] = T[:, :, -1]
    # Adding 0.0 turns a -0.0 into 0.0, so no negative zero reaches the
    # witness weights that reports print.
    x = y[:, :n_var] + 0.0
    # Slack column i prices its own row: z_i - 0 = y . e_i, the row dual.
    duals = obj[np.argsort(order), n_var:-1]
    # The original LP's duals: a loose row's is the solver's, a tight row's
    # the reduced cost of its slack, 1 less the pair's two duals. Row i is
    # tight where s_i = +1, so a_i = y[i] - y[n+i] is s_i times (tight dual
    # - loose dual).
    loose = duals[:, :n]
    a = s0 * ((1.0 - duals[:, n:2 * n] - loose) - loose)
    # Row 2n's is the reduced cost of its slack, |w_0|_1 - sum_i |w_0i|
    # (tight dual + 2 loose dual) - row 2n's dual, that is a . w_0 less
    # row 2n's dual.
    margin = np.matmul(a[:, None, :], w0)[:, 0] - duals[:, 2 * n]
    weights = np.empty((size, m))
    weights[:, 1:] = x[:, :k]
    # lam_0 is row 2n's slack.
    weights[:, 0] = 1.0 + x[:, -1] - x[:, :k].sum(axis=1)
    return a, np.where(margin > REDUCED_COST_TOL, margin, 0.0), weights
