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
enlarge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lpsolve
from .bernstein import ConstantAxis, ControlNet, PatchGrid, column_generators
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
    "certificate_lp",
    "certify_map",
    "certify_matrix_family",
    "grid_column_generators",
    "patch_column_generators",
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
    r by ``signs[k, r]`` (+1 or -1). Each program maximizes ``t`` subject
    to ``a . w >= t`` for every signed generator ``w``, ``-1 <= a_j <= 1``
    and ``t >= 0``. It is solved through its LP dual: minimize
    ``|W^T lam|_1`` over ``lam >= 0`` with ``sum(lam) >= 1``, written as
    maximize ``-sum(u)`` subject to ``W^T lam - u <= 0``, ``-W^T lam - u <=
    0`` and ``-sum(lam) <= -1``. That is ``2n + 1`` rows however many
    generators there are, and the programs differ only in the signs of
    their ``W^T`` blocks, so they are solved as batches of ``_CHUNK``. The
    primal optimum is read from the row duals, ``a = y[:n] - y[n:2n]``
    (dual feasibility gives ``|a_j| <= 1``) and ``t = y[2n]``; the optimal
    ``lam``, scaled to sum to one, is the combination of generators that
    comes closest to cancelling. Optima within the solver's pricing
    tolerance of zero are reported as ``t = 0``.

    Returns ``a`` of shape (B, n), ``t`` of shape (B,) and the optimal
    ``lam`` of shape (B, m).
    """
    m, n = W.shape
    size = signs.shape[0]
    # Variables: lam (m), u (n), all nonnegative.
    c = np.concatenate([np.zeros(m), -np.ones(n)])
    b = np.concatenate([np.zeros(2 * n), [-1.0]])
    a = np.empty((size, n))
    t = np.empty(size)
    weights = np.empty((size, m))
    for start in range(0, size, _CHUNK):
        chunk = signs[start:start + _CHUNK]
        rows = np.zeros((chunk.shape[0], 2 * n + 1, m + n))
        rows[:, :n, :m] = W.T * chunk[:, None, :]
        rows[:, n:2 * n, :m] = -rows[:, :n, :m]
        rows[:, :n, m:] = rows[:, n:2 * n, m:] = -np.eye(n)
        rows[:, 2 * n, :m] = -1.0
        batch = lpsolve.solve_batch(rows, b, c)
        failed = batch.status != lpsolve.OPTIMAL
        if failed.any():
            raise CertificationError(
                f"certificate LP terminated with status {batch.status[failed][0]}")
        y, stop = batch.duals, start + chunk.shape[0]
        a[start:stop] = y[:, :n] - y[:, n:2 * n]
        # One c @ x per program: a matrix-vector product may round differently.
        value = np.array([c @ x for x in batch.x])
        t[start:stop] = np.where(-value > lpsolve.REDUCED_COST_TOL, y[:, 2 * n], 0.0)
        weights[start:stop] = batch.x[:, :m]
    return a, t, weights


def certificate_lp(unit_generators) -> tuple[np.ndarray, float]:
    """Best certificate direction over a set of unit generators.

    Returns ``(a_star, t_star)`` with ``a_star`` in the unit box; a strict
    certificate exists over these generators exactly when ``t_star > 0``,
    and then ``(a_star/|a_star|, t_star/|a_star|)`` is one. The generators
    must form a non-empty (m, n) array of finite numbers.
    """
    W = np.atleast_2d(np.asarray(unit_generators, dtype=float))
    if W.ndim != 2 or W.size == 0:
        raise ValueError(f"need a non-empty (m, n) array of generators, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError("generators must be finite")
    a, t, _ = _margin_lps(W, np.ones((1, W.shape[0])))
    return a[0], float(t[0])


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
    for col in columns:
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


def patch_column_generators(grid: PatchGrid, cell: tuple[int, ...]) -> list[GeneratorSet]:
    """Column generators of one cell, rescaled to global coordinates.

    Local derivative control points are divided by the cell width along
    the column's axis (chain rule). The factor is positive, so cone hulls
    are unchanged; it is applied so margins refer to global derivatives.
    """
    net = grid.patches[tuple(cell)]
    widths = grid.cell_widths(tuple(cell))
    return [
        GeneratorSet(j, column_generators(net, j).vectors / widths[j])
        for j in range(grid.dimension)
    ]


def grid_column_generators(grid: PatchGrid) -> list[GeneratorSet]:
    """Union of the scaled per-patch generators, one set per column."""
    n = grid.dimension
    stacked: list[list[np.ndarray]] = [[] for _ in range(n)]
    for cell in grid.cells():
        for j, gens in enumerate(patch_column_generators(grid, cell)):
            stacked[j].append(gens.vectors)
    return [
        GeneratorSet(j, dedup_exact(np.vstack(stacked[j]))) for j in range(n)
    ]


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
    if isinstance(map_like, ControlNet):
        grid = PatchGrid.single(map_like)
    elif isinstance(map_like, PatchGrid):
        grid = map_like
    else:
        raise TypeError(f"expected ControlNet or PatchGrid, got {type(map_like)!r}")
    provenance = PROVENANCE_SINGLE if len(grid.patches) == 1 else PROVENANCE_MULTI
    try:
        columns = grid_column_generators(grid)
    except ConstantAxis as exc:
        # A constant axis means a zero Jacobian column: degenerate by definition.
        return _degenerate_report(
            grid.dimension, exc.axis, None, provenance, delta, threshold
        )
    return certify_matrix_family(columns, delta, threshold, provenance)
