"""Strict V-family certification of matrix families and piecewise Bezier maps.

The test takes one generator set per Jacobian column and asks, for each
of the 2^(n-1) column sign patterns, whether a single direction ``a``
makes a strictly positive margin with every signed unit generator. Any
such ``a`` proves a pattern. Each pattern first tries ``a = C^-T s`` in
closed form (``C`` holds the mean unit generator of each column, ``s``
is the pattern's signs), all patterns with one solve; the patterns it
does not certify each get one small linear program for the max-margin
``a``, whose results are the bits of solving it alone, whatever other
patterns share its batch. Either way a margin ``t`` above the threshold
on the box scale ``|a|_inf = 1`` yields a certificate ``(a/|a|, t/|a|)``
that is re-verified against the generators before the pattern is
accepted. A pattern certified in closed form has no LP margin. If every
pattern passes, the family is a strict V-family and the underlying map
is globally invertible on its convex domain: along the segment between
any two domain points, the difference of map values integrates Jacobian
columns whose signed combination stays inside one certified cone, so it
cannot vanish.

For a piecewise Bezier map the column generators are the per-patch
derivative control points, rescaled by the cell widths so they live in
global coordinates, and aggregated by union across patches. The union is
enough: the test only sees cone hulls, which convex aggregation does not
enlarge. They are formed in one pass over the control points, with no
derivative net per cell, and exact duplicates are dropped once per
column. Coordinates may have any finite size: generators are normalized
before any LP sees them, and a derivative control point or generator
norm beyond the float range raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lpsolve
from .bernstein import PatchGrid, _as_grid, _derivative_points
from .cones import (
    DEFAULT_DELTA,
    Certificate,
    DegenerateColumn,
    GeneratorSet,
    SignPattern,
    _check_certificates,
    _readonly,
    _sign_patterns,
    dedup_exact,
    margin_holds,
    normalize_generators,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "CertificateReport",
    "CertificationError",
    "PatternResult",
    "Witness",
    "certify_map",
    "certify_matrix_family",
    "grid_column_generators",
]

# A pattern is accepted only when its margin on the box scale |a|_inf = 1
# clears this floor; smaller positive LP margins are reported as numerically
# marginal rather than strict.
DEFAULT_THRESHOLD = 1e-7

VERDICT_STRICT = "strict-v-family"
VERDICT_NOT_CERTIFIED = "not-certified"

STATUS_STRICT = "strict"
STATUS_NOT_STRICT = "not-strict"

PROVENANCE_SINGLE = "single-patch"
PROVENANCE_MULTI = "multi-patch"
PROVENANCE_MATRIX = "matrix-family"


class CertificationError(RuntimeError):
    """The certificate LP failed in a way that should be impossible."""


@dataclass(frozen=True)
class Witness:
    """Near-zero nonnegative combination of signed generators.

    Produced for patterns that fail: ``weights`` are convex coefficients
    over the pattern's signed unit generators and ``combination`` is the
    weighted sum, whose small norm shows which columns almost cancel.
    """

    weights: np.ndarray
    combination: np.ndarray
    residual_norm: float


@dataclass(frozen=True)
class PatternResult:
    """Outcome of one sign pattern.

    ``lp_margin`` is the pattern's max-margin LP value ``t``, or ``None``
    when the closed-form direction certified the pattern without an LP.
    """

    pattern: SignPattern
    status: str
    certificate: Certificate | None
    lp_margin: float | None
    witness: Witness | None = None
    note: str | None = None


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the full strict V-family test.

    ``verdict`` is strict only when no column is degenerate and every
    pattern is strict. A degenerate report names the lowest column with a
    generator shorter than ``delta`` and lists no patterns, since no
    margin can hold for any of them. ``min_generator_norms`` records, per
    column, how far the raw generators stay from the origin; together
    with each pattern's margin it quantifies the separation the
    certificates rest on.
    """

    dimension: int
    verdict: str
    pattern_results: tuple[PatternResult, ...]
    generator_counts: tuple[int, ...]
    min_generator_norms: tuple[float, ...] | None
    provenance: str
    delta: float
    threshold: float
    degenerate_column: int | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_STRICT


# Pattern LPs are solved this many at a time. A chunk's tableaux bound the
# memory; at n=10 a whole family at once ran about 40% slower than chunks
# of 32. Per near-identity family (m=20), chunks of 16 / 32 / 64 took
# 0.052 / 0.040 / 0.047 s at n=8 and 0.319 / 0.296 / 0.327 s at n=10
# (medians of 11 rounds, 2-core Xeon VM, BLAS on one thread).
_CHUNK = 32


def _margin_lps(W: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    ``w_0i`` is zero),
    coordinate i's "tight" row is row i if ``s_i = +1`` and row n + i
    otherwise. The basis holds ``lam_0`` on row 2n, ``u_i`` on the tight row
    and the slack of the other, "loose", row; its primal reading is ``a = s``,
    ``t = |w_0|_1``. Each program is handed to the solver as its dictionary
    at that vertex, whose entries are closed-form: the variables are the
    nonbasic ``lam_1 .. lam_{m-1}``, the tight rows' slacks and row 2n's
    slack, the rows' own slacks are the basic variables, and with ``D_ik =
    |w_0i| - s_i W_s[k, i]`` the rows read

    * tight row of i: ``D_ik`` on ``lam_k``, -1 on its slack, ``-|w_0i|`` on
      row 2n's slack, right-hand side ``|w_0i|``;
    * loose row of i: twice the tight row's ``lam`` and row-2n entries, -1 on
      the tight slack, right-hand side ``2|w_0i|``;
    * row 2n: 1 on each ``lam_k``, -1 on its slack, right-hand side 1.

    The objective ``-sum(u)`` becomes ``-|w_0|_1`` plus costs ``|w_0|_1 -
    sum_i s_i W_s[k, i]`` on ``lam_k``, -1 on each tight slack and
    ``-|w_0|_1`` on row 2n's slack. The right-hand side is nonnegative and
    shared by every program, as the solver needs; the costs differ per
    program and go to it as one row each. The
    dictionary lists the loose rows, then the tight rows, then row 2n, so a
    ratio tie lets a loose row's slack leave first; that took 10% to 30%
    fewer pivots than the tight rows first. Programs are solved as batches
    of ``_CHUNK``, and ``a . w_0`` is formed one row at a time through
    stacked ``np.matmul``, so each program's results are the bits of
    solving it alone, whatever other programs share its batch.

    The original LP's row duals ``y`` give the primal optimum, ``a = y[:n]
    - y[n:2n]`` (dual feasibility gives ``|a_j| <= 1``) and ``t = y[2n]``.
    A loose row's dual is the solver's dual of that row; the tight rows'
    and row 2n's duals are the reduced costs of their slacks, formed from
    the solver's duals. The optimal ``lam``, scaled to sum to one, is the
    combination of generators that comes closest to cancelling. Optima
    whose ``t`` (by strong duality ``|W_s^T lam|_1``) is within the solver's
    pricing tolerance of zero are reported as ``t = 0``.

    Returns ``a`` of shape (B, n), ``t`` of shape (B,) and the optimal
    ``lam`` of shape (B, m).
    """
    m, n = W.shape
    w0 = W[0]
    s0 = np.where(w0 < 0.0, -1.0, 1.0)
    mag = np.abs(w0)
    norm1 = mag.sum()
    # Rows: the n loose rows, the n tight rows, row 2n. Variables: lam_1 ..
    # lam_{m-1}, the n tight slacks, row 2n's slack.
    k = m - 1
    fixed = np.zeros((2 * n + 1, m + n))
    fixed[:n, k:-1] = fixed[n:2 * n, k:-1] = -np.eye(n)
    fixed[:n, -1] = -2.0 * mag
    fixed[n:2 * n, -1] = -mag
    fixed[2 * n, :k] = 1.0
    fixed[2 * n, -1] = -1.0
    b = np.concatenate([2.0 * mag, mag, [1.0]])
    # s_i W[k, i] for the unsigned rows; program p multiplies by signs[p, k].
    oriented = s0[:, None] * W[1:].T
    along = W[1:] @ s0
    size = signs.shape[0]
    a, t, weights = np.empty((size, n)), np.empty(size), np.empty((size, m))
    for start in range(0, size, _CHUNK):
        chunk = signs[start:start + _CHUNK]
        stop = start + chunk.shape[0]
        rows = np.empty((chunk.shape[0],) + fixed.shape)
        rows[:] = fixed
        D = rows[:, n:2 * n, :k]
        np.multiply(oriented, chunk[:, None, 1:], out=D)
        np.subtract(mag[:, None], D, out=D)
        np.add(D, D, out=rows[:, :n, :k])
        c = np.empty((chunk.shape[0], m + n))
        c[:, :k] = norm1 - chunk[:, 1:] * along
        c[:, k:-1] = -1.0
        c[:, -1] = -norm1
        batch = lpsolve.solve_batch(rows, b, c)
        failed = batch.status != lpsolve.OPTIMAL
        if failed.any():
            raise CertificationError(
                f"certificate LP terminated with status {batch.status[failed][0]}")
        duals, x = batch.duals, batch.x
        # The original LP's duals: a loose row's is the solver's, a tight
        # row's the reduced cost of its slack, 1 less the pair's two duals.
        # Row i is tight where s_i = +1, so a_i = y[i] - y[n+i] is s_i times
        # (tight dual - loose dual).
        loose = duals[:, :n]
        a[start:stop] = s0 * ((1.0 - duals[:, n:2 * n] - loose) - loose)
        # Row 2n's is the reduced cost of its slack, |w_0|_1 - sum_i |w_0i|
        # (tight dual + 2 loose dual) - row 2n's dual, that is a . w_0 less
        # row 2n's dual.
        margin = np.matmul(a[start:stop, None, :], w0)[:, 0] - duals[:, 2 * n]
        lam = weights[start:stop]
        lam[:, 1:] = x[:, :k]
        # lam_0 is row 2n's slack.
        lam[:, 0] = 1.0 + x[:, -1] - x[:, :k].sum(axis=1)
        t[start:stop] = np.where(margin > lpsolve.REDUCED_COST_TOL, margin, 0.0)
    return a, t, weights


def _judge(W: np.ndarray, norms: np.ndarray, signs: np.ndarray, threshold: float,
           a_raw: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Judge candidate directions; returns (strict, a_unit, epsilon), one row each.

    Row k of ``a_raw`` lies in the box ``|a_j| <= 1`` and claims the margin
    ``t[k]`` on the signed unit generators ``W * signs[k, :, None]``, as an
    LP optimum does; it is live when the claim clears ``threshold``, and
    only a live row can be strict. It is strict when ``a_unit[k] =
    a_raw[k] / |a_raw[k]|`` verifiably meets ``epsilon[k]`` on every
    generator; a row that is not live is all zeros. Rows are stacked
    through ``np.matmul`` so each gets the bits of judging it alone. A
    failing row is checked again one ulp lower, in at most three checks,
    which stop once every row passes. The caller checks the strict rows'
    certificates once, as one stack.
    """
    size = t.shape[0]
    strict = np.zeros(size, dtype=bool)
    a_unit, epsilon = np.zeros((size, W.shape[1])), np.zeros(size)
    live = np.flatnonzero(t > threshold)
    for start in range(0, live.size, _CHUNK):
        rows = live[start:start + _CHUNK]
        a = a_raw[rows]
        # |a| as np.linalg.norm takes it, one dot product per row.
        scale = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
        unit = a / scale[:, None]
        # Negation is exact, so these are the signed generators' products with
        # the unit direction bit for bit (a zero may change sign, which no
        # comparison below can see), and ``norms`` are their norms.
        projections = np.matmul(W, unit[:, :, None])[:, :, 0] * signs[rows]
        # A claimed margin is only accurate to round-off; certify no more than
        # the margin the generators verifiably meet.
        eps = np.minimum(t[rows] / scale, (projections / norms).min(axis=1))
        ok = np.zeros(rows.size, dtype=bool)
        for _ in range(3):
            ok |= (eps > 0.0) & margin_holds(projections, norms, eps)
            if ok.all():
                break
            eps = np.where(ok, eps, np.nextafter(eps, 0.0))
        strict[rows], a_unit[rows], epsilon[rows] = ok, unit, eps
    return strict, a_unit, epsilon


def _witnesses(W: np.ndarray, signs: np.ndarray, lam: np.ndarray) -> list[Witness | None]:
    """Witness of each failing pattern from its LP weights ``lam[k]``.

    The clipped weights are scaled to sum to one, and pattern k combines
    its signed unit generators ``W * signs[k, :, None]`` with them; a row
    with no positive weight gets ``None``.
    """
    lam = np.clip(lam, 0.0, None)
    total = lam.sum(axis=1)
    weights = np.divide(lam, total[:, None], out=np.zeros_like(lam), where=total[:, None] > 0.0)
    combination = np.empty((lam.shape[0], W.shape[1]))
    for start in range(0, lam.shape[0], _CHUNK):
        stop = start + _CHUNK
        combination[start:stop] = np.matmul(weights[start:stop, None, :],
                                            W * signs[start:stop, :, None])[:, 0]
    residual = np.sqrt(np.matmul(combination[:, None, :], combination[:, :, None])[:, 0, 0])
    # Each witness owns copies: views would keep the stacks alive, and 600
    # retained random-family reports then raised peak RSS by about 8%.
    return [Witness(weights[k].copy(), combination[k].copy(), float(residual[k]))
            if total[k] > 0.0 else None for k in range(lam.shape[0])]


def _screen(units: list[np.ndarray], W: np.ndarray, column_signs: np.ndarray,
            signs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Closed-form direction ``a = C^-T s`` of every pattern, with its box margin.

    Column j of ``C`` is the mean of column j's unit generators, and ``s``
    a pattern's column signs, so ``a . (s_j c_j) = 1`` for every column
    centre. Each ``a`` is scaled to ``|a|_inf = 1`` and returned with
    ``min_w a . w`` over its signed unit generators, the scale of an LP
    optimum. Returns ``None`` when ``C`` is singular or ``a`` not finite.
    """
    C = np.stack([u.mean(axis=0) for u in units], axis=1)
    try:
        A = np.linalg.solve(C.T, column_signs.T)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(A).all():
        return None
    box = np.abs(A).max(axis=0)
    return (A / box).T, ((W @ A).T * signs).min(axis=1) / box


def certify_matrix_family(
    columns: list[GeneratorSet],
    delta: float = DEFAULT_DELTA,
    threshold: float = DEFAULT_THRESHOLD,
) -> CertificateReport:
    """Certify a matrix family given by one generator set per column.

    The caller owns the hypothesis that the generators enclose every
    matrix column of interest over a convex domain. Every sign pattern
    first tries the closed-form direction ``a = C^-T s`` (column j of ``C``
    is the mean of column j's unit generators, ``s`` the pattern's column
    signs); the patterns it does not certify get their own max-margin LP.
    Either way a pattern is strict only if its margin on the box scale
    ``|a|_inf = 1`` (the LP's ``t``) clears ``threshold`` and the rescaled
    certificate passes the same generator-wise re-check. A pattern
    certified in closed form reports ``lp_margin`` as ``None``, and its
    epsilon is the verified margin of that direction, not the largest
    one. Failing patterns carry a witness combination whose weights are
    the dual LP's optimal convex weights. A column with a generator
    shorter than ``delta`` touches the origin: the report names the
    lowest such column, solves no LP and lists no patterns. ``delta``
    and ``threshold`` must be finite and positive.
    """
    for name, value in (("delta", delta), ("threshold", threshold)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    columns = list(columns)
    n = len(columns)
    if n == 0:
        raise ValueError("need at least one column")
    for j, col in enumerate(columns):
        if col.column != j:
            raise ValueError(
                f"the generator set at position {j} is labelled column {col.column}"
            )
        if col.dimension != n:
            raise ValueError(
                f"column {col.column} has vectors of length {col.dimension}, "
                f"but {n} columns were supplied"
            )
    counts = tuple(int(col.vectors.shape[0]) for col in columns)
    degenerate_column = min_norms = None
    results = []
    try:
        normalized = [normalize_generators(col, delta) for col in columns]
    except DegenerateColumn as exc:
        degenerate_column = exc.column
    else:
        units, min_norms = zip(*normalized)
        W = np.vstack(units)
        patterns, column_signs = _sign_patterns(n)
        signs = np.repeat(column_signs, [u.shape[0] for u in units], axis=1)
        norms = np.linalg.norm(W, axis=1)
        screen = _screen(units, W, column_signs, signs)
        if screen is None:
            # No closed-form direction: zero claims, none of them live.
            screen = np.zeros((len(patterns), n)), np.zeros(len(patterns))
        strict, a_unit, epsilon = _judge(W, norms, signs, threshold, *screen)
        # Patterns certified in closed form get no LP; when that is all of
        # them, no LP batch is built.
        todo = np.flatnonzero(~strict)
        lp_margin = [None] * len(patterns)
        if todo.size:
            a, t, lam = _margin_lps(W, signs[todo])
            lp_strict, a_unit[todo], epsilon[todo] = _judge(W, norms, signs[todo], threshold,
                                                            a, t)
            strict[todo] = lp_strict
            witnesses = iter(_witnesses(W, signs[todo[~lp_strict]], lam[~lp_strict]))
            for k, margin in zip(todo.tolist(), t.tolist()):
                lp_margin[k] = margin
        # The certificates are checked once, as one read-only stack of rows.
        stack = _readonly(a_unit[strict])
        _check_certificates(stack, epsilon[strict])
        certificates = map(Certificate, stack, epsilon[strict].tolist())
        for pattern, ok, margin in zip(patterns, strict.tolist(), lp_margin):
            if ok:
                results.append(PatternResult(pattern, STATUS_STRICT, next(certificates), margin))
            else:
                if margin > threshold:
                    note = "certificate failed post-hoc verification"
                else:
                    note = "numerically marginal" if margin > 0.0 else None
                results.append(PatternResult(pattern, STATUS_NOT_STRICT, None, margin,
                                             witness=next(witnesses), note=note))

    strict = degenerate_column is None and all(r.status == STATUS_STRICT for r in results)
    return CertificateReport(
        dimension=n,
        verdict=VERDICT_STRICT if strict else VERDICT_NOT_CERTIFIED,
        pattern_results=tuple(results),
        generator_counts=counts,
        min_generator_norms=min_norms,
        provenance=PROVENANCE_MATRIX,
        delta=delta,
        threshold=threshold,
        degenerate_column=degenerate_column,
    )


def grid_column_generators(grid: PatchGrid, cells) -> list[GeneratorSet]:
    """Union of the given cells' scaled generators, one set per column.

    ``cells`` holds index tuples, as :meth:`PatchGrid.cells` lists them.
    A cell's derivative control points along axis ``j`` are divided by
    its width along ``j`` (chain rule), so they live in global
    coordinates; the factor is positive, so cone hulls are unchanged.
    A degree-0 axis contributes the zero generator, so the column touches
    the origin. Cells are stacked in the given order and exact duplicates
    are dropped once, keeping first occurrences. Raises
    :class:`ValueError` unless ``cells`` is a non-empty list of the grid's
    cell tuples.
    """
    if not cells or not all(isinstance(c, tuple) and c in grid.patches for c in cells):
        raise ValueError(f"cells must be a non-empty list of the grid's cells, got {cells!r}")
    n = grid.dimension
    rows: list[list[np.ndarray]] = [[] for _ in range(n)]
    for cell in cells:
        net = grid.patches[cell]
        widths = grid.cell_widths(cell)
        for j in range(n):
            rows[j].append(_derivative_points(net, j, widths[j]).reshape(-1, n))
    return [GeneratorSet(j, dedup_exact(np.concatenate(blocks)))
            for j, blocks in enumerate(rows)]


def _certify_cells(grid: PatchGrid, cells, delta: float, threshold: float) -> CertificateReport:
    """Certify the map on the union of the given cells of a grid.

    One cell is a single patch, several a multi-patch map, and the report
    says which. A degree-0 axis in any of the cells gives its column a
    zero generator, so the report is degenerate like any other column
    that touches the origin.
    """
    report = certify_matrix_family(grid_column_generators(grid, cells), delta, threshold)
    provenance = PROVENANCE_SINGLE if len(cells) == 1 else PROVENANCE_MULTI
    return replace(report, provenance=provenance)


def certify_map(
    map_like,
    delta: float = DEFAULT_DELTA,
    threshold: float = DEFAULT_THRESHOLD,
) -> CertificateReport:
    """Certify global invertibility of a Bezier map on the unit cube.

    Accepts a single :class:`ControlNet` or a :class:`PatchGrid`. Column
    generators are aggregated across all patches, so a strict verdict
    certifies the whole piecewise map at once (continuity across patch
    faces is assumed, not checked). ``delta`` and ``threshold`` must be
    finite and positive.
    """
    grid = _as_grid(map_like)
    return _certify_cells(grid, grid.cells(), delta, threshold)
