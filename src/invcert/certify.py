"""Strict V-family certification of matrix families and piecewise Bezier maps.

The test takes one generator set per Jacobian column and asks, for each
of the 2^(n-1) column sign patterns, whether a single direction ``a``
makes a strictly positive margin with every signed unit generator. Each
pattern question is one small linear program; a positive optimal margin
``t`` yields a certificate ``(a/|a|, t/|a|)`` that is re-verified against
the generators before the pattern is accepted. If every pattern passes,
the family is a strict V-family and the underlying map is globally
invertible on its convex domain: along the segment between any two domain
points, the difference of map values integrates Jacobian columns whose
signed combination stays inside one certified cone, so it cannot vanish.

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
from dataclasses import dataclass

import numpy as np

from . import lpsolve
from .bernstein import ConstantAxis, PatchGrid, _as_grid, _derivative_points
from .cones import (
    DEFAULT_DELTA,
    Certificate,
    DegenerateColumn,
    GeneratorSet,
    SignPattern,
    dedup_exact,
    enumerate_sign_patterns,
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

# A pattern is accepted only when its LP margin clears this floor; smaller
# positive margins are reported as numerically marginal rather than strict.
DEFAULT_THRESHOLD = 1e-7

VERDICT_STRICT = "strict-v-family"
VERDICT_NOT_CERTIFIED = "not-certified"

STATUS_STRICT = "strict"
STATUS_NOT_STRICT = "not-strict"
STATUS_DEGENERATE = "degenerate"

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
    pattern: SignPattern
    status: str
    certificate: Certificate | None
    lp_margin: float | None
    witness: Witness | None = None
    note: str | None = None


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the full strict V-family test.

    ``verdict`` is strict only when every pattern result is strict.
    ``min_generator_norms`` records, per column, how far the raw
    generators stay from the origin; together with each pattern's margin
    it quantifies the separation the certificates rest on.
    """

    dimension: int
    verdict: str
    pattern_results: tuple[PatternResult, ...]
    generator_counts: tuple[int, ...] | None
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
    of ``_CHUNK``.

    The original LP's row duals ``y`` give the primal optimum, ``a = y[:n]
    - y[n:2n]`` (dual feasibility gives ``|a_j| <= 1``) and ``t = y[2n]``.
    A loose row's dual is the solver's dual of that row; the tight rows'
    and row 2n's duals are the reduced costs of their slacks, formed from
    the solver's duals. The optimal ``lam``, scaled to sum to one, is the
    combination of generators that comes closest to cancelling. Optima
    whose ``|W_s^T lam|_1`` is within the solver's pricing tolerance of zero
    are reported as ``t = 0``.

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
    size = signs.shape[0]
    c = np.empty((size, m + n))
    c[:, :k] = norm1 - signs[:, 1:] * (W[1:] @ s0)
    c[:, k:-1] = -1.0
    c[:, -1] = -norm1
    a = np.empty((size, n))
    t = np.empty(size)
    weights = np.empty((size, m))
    for start in range(0, size, _CHUNK):
        chunk = signs[start:start + _CHUNK]
        stop = start + chunk.shape[0]
        rows = np.empty((chunk.shape[0],) + fixed.shape)
        rows[:] = fixed
        D = rows[:, n:2 * n, :k]
        np.multiply(oriented, chunk[:, None, 1:], out=D)
        np.subtract(mag[:, None], D, out=D)
        np.add(D, D, out=rows[:, :n, :k])
        batch = lpsolve.solve_batch(rows, b, c[start:stop])
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
        margin = a[start:stop] @ w0 - duals[:, 2 * n]
        lam = weights[start:stop]
        lam[:, 1:] = x[:, :k]
        # lam_0 is row 2n's slack.
        lam[:, 0] = 1.0 + x[:, -1] - x[:, :k].sum(axis=1)
        residual = np.abs((lam * chunk) @ W).sum(axis=1)
        t[start:stop] = np.where(residual > lpsolve.REDUCED_COST_TOL, margin, 0.0)
    return a, t, weights


def _witness_from_weights(lam: np.ndarray, signed: np.ndarray) -> Witness | None:
    lam = np.clip(lam, 0.0, None)
    total = lam.sum()
    if total <= 0.0:
        return None
    weights = lam / total
    combination = weights @ signed
    return Witness(weights, combination, float(np.linalg.norm(combination)))


def _pattern_result(pattern: SignPattern, W: np.ndarray, norms: np.ndarray,
                    signs: np.ndarray, threshold: float, a_raw: np.ndarray, t: float,
                    weights: np.ndarray) -> PatternResult:
    """Judge one pattern; its signed unit generators are ``W * signs[:, None]``."""
    if t > threshold:
        scale = np.linalg.norm(a_raw)
        a_unit = a_raw / scale
        # Negation is exact, so these are the signed generators' products with
        # a_unit bit for bit (a zero may change sign, which no comparison
        # below can see), and ``norms`` are their norms.
        projections = (W @ a_unit) * signs
        # The LP optimum is only accurate to round-off; certify no more than
        # the margin the generators verifiably meet.
        achieved = float((projections / norms).min())
        epsilon = min(t / scale, achieved)
        for _ in range(3):
            if epsilon > 0.0 and margin_holds(projections, norms, epsilon):
                return PatternResult(pattern, STATUS_STRICT,
                                     Certificate(a_unit, epsilon), t)
            epsilon = float(np.nextafter(epsilon, 0.0))
        note = "certificate failed post-hoc verification"
    else:
        note = "numerically marginal" if t > 0.0 else None
    return PatternResult(
        pattern,
        STATUS_NOT_STRICT,
        None,
        t,
        witness=_witness_from_weights(weights, W * signs[:, None]),
        note=note,
    )


def _check_tolerances(delta: float, threshold: float) -> None:
    for name, value in (("delta", delta), ("threshold", threshold)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _degenerate_report(
    n: int,
    column: int,
    counts: tuple[int, ...] | None,
    provenance: str,
    delta: float,
    threshold: float,
) -> CertificateReport:
    results = tuple(
        PatternResult(p, STATUS_DEGENERATE, None, None)
        for p in enumerate_sign_patterns(n)
    )
    return CertificateReport(
        dimension=n,
        verdict=VERDICT_NOT_CERTIFIED,
        pattern_results=results,
        generator_counts=counts,
        min_generator_norms=None,
        provenance=provenance,
        delta=delta,
        threshold=threshold,
        degenerate_column=column,
    )


def certify_matrix_family(
    columns: list[GeneratorSet],
    delta: float = DEFAULT_DELTA,
    threshold: float = DEFAULT_THRESHOLD,
    provenance: str = PROVENANCE_MATRIX,
) -> CertificateReport:
    """Certify a matrix family given by one generator set per column.

    The caller owns the hypothesis that the generators enclose every
    matrix column of interest over a convex domain. Every sign pattern
    gets its own max-margin LP; a pattern is strict only if the LP margin
    clears ``threshold`` and the rescaled certificate passes an
    independent generator-wise re-check. Failing patterns carry a witness
    combination whose weights are the dual LP's optimal convex weights.
    ``provenance`` labels the report with where the generators came from.
    ``delta`` and ``threshold`` must be finite and positive.
    """
    _check_tolerances(delta, threshold)
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
    try:
        normalized = [normalize_generators(col, delta) for col in columns]
    except DegenerateColumn as exc:
        return _degenerate_report(n, exc.column, counts, provenance, delta, threshold)
    units = [u for u, _ in normalized]
    min_norms = tuple(mn for _, mn in normalized)

    W = np.vstack(units)
    patterns = enumerate_sign_patterns(n)
    signs = np.repeat(np.array([p.signs for p in patterns], dtype=float),
                      [u.shape[0] for u in units], axis=1)
    norms = np.linalg.norm(W, axis=1)
    a, t, weights = _margin_lps(W, signs)
    results = [
        _pattern_result(pattern, W, norms, signs[k], threshold, a[k], float(t[k]), weights[k])
        for k, pattern in enumerate(patterns)
    ]

    verdict = (
        VERDICT_STRICT
        if all(r.status == STATUS_STRICT for r in results)
        else VERDICT_NOT_CERTIFIED
    )
    return CertificateReport(
        dimension=n,
        verdict=verdict,
        pattern_results=tuple(results),
        generator_counts=counts,
        min_generator_norms=min_norms,
        provenance=provenance,
        delta=delta,
        threshold=threshold,
    )


def grid_column_generators(grid: PatchGrid, cells) -> list[GeneratorSet]:
    """Union of the given cells' scaled generators, one set per column.

    ``cells`` holds index tuples, as :meth:`PatchGrid.cells` lists them.
    A cell's derivative control points along axis ``j`` are divided by
    its width along ``j`` (chain rule), so they live in global
    coordinates; the factor is positive, so cone hulls are unchanged.
    Cells are stacked in the given order and exact duplicates are dropped
    once, keeping first occurrences. Raises :class:`ValueError` unless
    ``cells`` is a non-empty list of the grid's cell tuples, and
    :class:`ConstantAxis` for the first cell, in that order, with a
    degree-0 axis.
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

    One cell is a single patch, several a multi-patch map. A degree-0
    axis in any of the cells means a zero Jacobian column, so the report
    is degenerate in that column without any LP.
    """
    provenance = PROVENANCE_SINGLE if len(cells) == 1 else PROVENANCE_MULTI
    try:
        columns = grid_column_generators(grid, cells)
    except ConstantAxis as exc:
        return _degenerate_report(
            grid.dimension, exc.axis, None, provenance, delta, threshold
        )
    return certify_matrix_family(columns, delta, threshold, provenance)


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
    _check_tolerances(delta, threshold)
    grid = _as_grid(map_like)
    return _certify_cells(grid, grid.cells(), delta, threshold)
