"""Strict V-family certification of matrix families and piecewise Bezier maps.

The test takes one generator set per Jacobian column and asks, for each
of the 2^(n-1) column sign patterns, whether a single direction ``a``
makes a strictly positive margin with every signed unit generator. Any
such ``a`` proves a pattern. Each pattern first tries ``a = C^-T s`` in
closed form (``C`` holds the mean unit generator of each column, ``s``
is the pattern's signs), all patterns with one solve; the patterns it
does not certify each get one small linear program for the max-margin
``a``. Patterns are decided ``CHUNK`` at a time, in closed form and then
by LP, each with the bits of deciding it alone. Either way a margin
``t`` above the threshold on the box scale ``|a|_inf = 1`` yields a
certificate ``(a/|a|, t/|a|)`` that is re-verified against the
generators before the pattern is accepted. A pattern certified in
closed form has no LP margin. If every pattern passes, the family is a
strict V-family and the underlying map is globally invertible on its
convex domain: along the segment between any two domain points, the
difference of map values integrates Jacobian columns whose signed
combination stays inside one certified cone, so it cannot vanish.

For a piecewise Bezier map the column generators are each cell's
derivative control points in global coordinates, as
:mod:`invcert.bernstein` forms them, aggregated by union across patches.
The union is enough: the test only sees cone hulls, which convex
aggregation does not enlarge. Exact duplicates are dropped once per
column. Coordinates may have any finite size: generators are normalized
before any LP sees them, and a derivative control point or generator
norm beyond the float range raises ``ValueError``.

Each call makes one stacked pass: the raw generators of all columns, a
map's straight from :mod:`invcert.bernstein`, sit in one array that is
normalised at once and then decided pattern by pattern as above.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import lpsolve
from .bernstein import PatchGrid, _as_grid, _cell_derivatives, _is_integer

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_THRESHOLD",
    "CertificateReport",
    "GeneratorSet",
    "PatternResult",
    "Witness",
    "certify_map",
    "certify_matrix_family",
    "dedup_exact",
    "margin_holds",
]

# Default separation threshold: generators with Euclidean norm below this
# are treated as touching the origin, which makes the column uncertifiable.
DEFAULT_DELTA = 1e-12

# Below this sum-of-squares norm a row's squares may have underflowed and
# lost bits (each square of a larger entry is at least 2**-1000, a normal
# float), so _rescued_norms recomputes such norms by rescaling.
_TINY_NORM = 2.0 ** -500

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

# Patterns are decided this many at a time, so a chunk's signs, margins and
# LP tableaux bound the memory. At n=10 a whole family's LPs at once ran
# about 40% slower than chunks of 32. Per near-identity family (m=20),
# chunks of 16 / 32 / 64 took 0.052 / 0.040 / 0.047 s at n=8 and 0.319 /
# 0.296 / 0.327 s at n=10 (medians of 11 rounds, 2-core Xeon VM, one BLAS thread).
CHUNK = 32


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GeneratorSet:
    """Finite set of vectors generating one column cone.

    ``column`` is the 0-based index of the Jacobian column the set
    over-approximates; ``vectors`` has shape (m, n) with m, n >= 1, and
    one vector of shape (n,) is one generator.
    """

    column: int
    vectors: np.ndarray

    def __post_init__(self):
        if not _is_integer(self.column):
            raise ValueError(f"the column label must be an integer, got {self.column!r}")
        vectors = np.atleast_2d(np.array(self.vectors, dtype=float))
        if vectors.ndim != 2 or 0 in vectors.shape:
            raise ValueError("generator set must be a 2-D array of at least one vector "
                             f"of at least one coordinate, got shape {np.shape(self.vectors)}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError(f"column {self.column}: generators must be finite")
        object.__setattr__(self, "column", int(self.column))
        object.__setattr__(self, "vectors", _readonly(vectors))

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SignPattern:
    """Signs (+1/-1) applied to the column cones; the first sign is fixed +1.

    Flipping every sign asks the same question with ``a`` negated, so only
    patterns with a leading +1 are enumerated. ``signs`` holds Python ints.
    """

    signs: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """Unit direction ``a`` and margin ``epsilon > 0`` for one signed cone.

    It states that ``a . x >= epsilon * |x|`` for every ``x`` in the cone.
    ``a`` is a read-only row of the report's one stack of certificates,
    which only the judge that verified them builds, and ``epsilon`` a
    Python float with ``0 < epsilon < inf``.
    """

    a: np.ndarray
    epsilon: float


def dedup_exact(rows: np.ndarray) -> np.ndarray:
    """Drop exactly equal duplicate rows, keeping first occurrences in order."""
    rows = np.ascontiguousarray(rows, dtype=float)
    seen: set[bytes] = set()
    keep = []
    for k in range(rows.shape[0]):
        key = rows[k].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(k)
    return rows.take(keep, axis=0)


def _rescued_norms(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Sum-of-squares ``norms`` of ``rows``, recomputed where the squares may have failed.

    A finite row whose norm is inf or below ``_TINY_NORM`` (squares that
    overflowed or may have underflowed) gets ``s * |row / s|`` instead,
    ``s`` its largest absolute entry, whose squares do neither; a zero
    row gets 0 and a row whose true norm exceeds the float range inf. A
    row that holds an inf or a NaN keeps its norm. ``norms`` is updated
    in place and returned; overflow warnings are the caller's to silence,
    as they are for the squares.
    """
    if np.fmin.reduce(norms) >= _TINY_NORM and np.fmax.reduce(norms) < np.inf:
        return norms
    redo = ~((norms >= _TINY_NORM) & (norms < np.inf)) & np.isfinite(rows).all(axis=1)
    redone = rows[redo]
    scale = np.abs(redone).max(axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    norms[redo] = scale[:, 0] * np.linalg.norm(redone / scale, axis=1)
    return norms


def _unit_columns(raw: np.ndarray, starts, delta: float):
    """Unit generators of a stack of finite columns, as ``(units, lows, None)``.

    Column j starts at row ``starts[j]`` and has at least one row.
    ``lows`` are the columns' least norms, by :func:`_rescued_norms`
    accurate at any finite size. The lowest column j with a norm below
    ``delta`` gives ``(None, None, j)`` instead, unless a column below it
    has a norm beyond the float range, which raises ``ValueError``.
    """
    with np.errstate(over="ignore"):
        # The sum of squares np.linalg.norm takes, bit for bit, without its wrapper.
        norms = _rescued_norms(raw, np.sqrt(np.add.reduce(raw * raw, axis=1)))
    lows, highs = np.minimum.reduceat(norms, starts), np.maximum.reduceat(norms, starts)
    bad = (lows < delta) | (highs == np.inf)
    if bad.any():
        j = int(bad.argmax())
        if lows[j] < delta:
            return None, None, j
        raise ValueError(f"column {j} has a generator whose norm exceeds the float range")
    return raw / norms[:, None], lows, None


# All 2^(n-1) patterns with leading +1, in binary-counting order. Patterns are
# frozen, so every report of dimension n shares one set, and one read-only
# float matrix whose row k holds pattern k's signs. Only n <= 12 is cached: an
# entry holds 0.4 MB at n=12 and 1.1 MB at n=13, and would stay for good.
def _sign_patterns(n: int) -> tuple[tuple[SignPattern, ...], np.ndarray]:
    return _enumerate_patterns(n) if n <= 12 else _enumerate_patterns.__wrapped__(n)


@functools.lru_cache(maxsize=16)
def _enumerate_patterns(n: int) -> tuple[tuple[SignPattern, ...], np.ndarray]:
    too_many = ValueError(f"{n} columns need 2^{n - 1} sign patterns, too many to enumerate")
    if n - 1 >= 63:
        raise too_many
    try:
        signs = 1 - 2 * ((np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        patterns = tuple(SignPattern(tuple(row)) for row in signs.tolist())
        return patterns, _readonly(signs.astype(float))
    except MemoryError:
        raise too_many from None


def margin_holds(projections: np.ndarray, norms: np.ndarray, epsilon):
    """Check ``a . v >= epsilon * |v|`` from every generator's ``a . v`` and ``|v|``.

    A pass extends to the full cone hull: for ``x = sum(lambda_k v_k)``
    with ``lambda_k >= 0``, ``a . x >= epsilon * sum(lambda_k |v_k|) >=
    epsilon * |x|`` by the triangle inequality. A caller that tries
    several ``a`` or ``epsilon`` on one generator set passes the norms it
    has: ``projections`` may stack one row per direction, with one
    ``epsilon`` each, and then gets one verdict per row.
    """
    return (projections >= np.multiply.outer(epsilon, norms)).all(axis=-1)


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


def _judge(W: np.ndarray, norms: np.ndarray, signs: np.ndarray, threshold: float,
           a_raw: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Judge candidate directions; returns (strict, a_unit, epsilon), one row each.

    Row k of ``a_raw`` lies in the box ``|a_j| <= 1`` and claims the margin
    ``t[k]`` on the signed unit generators ``W * signs[k, :, None]``, as an
    LP optimum does; it is live when the claim clears ``threshold``, and
    only a live row can be strict. It is strict when ``a_unit[k] =
    a_raw[k] / |a_raw[k]|`` verifiably meets ``epsilon[k]`` on every
    generator; a row that is not live is all zeros. Rows are stacked
    through ``np.matmul`` so each gets the bits of judging it alone,
    whichever other rows are live and whatever the layout of ``a_raw``. A
    failing row is checked again one ulp lower, in at most three checks,
    which stop once every row passes. So a strict row's ``a_unit`` has
    unit norm and its ``epsilon`` is positive and finite: a live row has
    some ``|a_j|`` equal to 1, and its products with the generators are
    finite.
    """
    size = t.shape[0]
    live = (t > threshold).nonzero()[0]
    if live.size == 0:
        return np.zeros(size, dtype=bool), np.zeros((size, W.shape[1])), np.zeros(size)
    # With every row live nothing is gathered, but the rows are still made
    # C-contiguous: np.matmul gives a row of a transposed a_raw other last bits.
    every = live.size == size
    if every:
        a = np.ascontiguousarray(a_raw)
    else:
        a, t, signs = a_raw.take(live, axis=0), t.take(live), signs.take(live, axis=0)
    # |a| as np.linalg.norm takes it, one dot product per row.
    scale = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    unit = a / scale[:, None]
    # Negation is exact, so these are the signed generators' products with
    # the unit direction bit for bit (a zero may change sign, which no
    # comparison below can see), and ``norms`` are their norms.
    projections = np.matmul(W, unit[:, :, None])[:, :, 0] * signs
    # A claimed margin is only accurate to round-off; certify no more than
    # the margin the generators verifiably meet.
    eps = np.minimum(t / scale, (projections / norms).min(axis=1))
    ok = np.zeros(live.size, dtype=bool)
    for _ in range(3):
        ok |= (eps > 0.0) & margin_holds(projections, norms, eps)
        if ok.all():
            break
        eps = np.where(ok, eps, np.nextafter(eps, 0.0))
    if every:
        return ok, unit, eps
    strict = np.zeros(size, dtype=bool)
    a_unit, epsilon = np.zeros((size, W.shape[1])), np.zeros(size)
    strict[live], a_unit[live], epsilon[live] = ok, unit, eps
    return strict, a_unit, epsilon


def _witnesses(W: np.ndarray, signs: np.ndarray, lam: np.ndarray) -> list[Witness]:
    """Witness of each failing pattern from its LP weights ``lam[k]``.

    The clipped weights are scaled to sum to one, and pattern k combines
    its signed unit generators ``W * signs[k, :, None]`` with them. The
    LP's weights sum to at least one, and clipping only raises the sum.
    """
    lam = np.clip(lam, 0.0, None)
    weights = lam / lam.sum(axis=1)[:, None]
    combination = np.matmul(weights[:, None, :], W * signs[:, :, None])[:, 0]
    residual = np.sqrt(np.matmul(combination[:, None, :], combination[:, :, None])[:, 0, 0])
    # Each witness owns copies: views would keep the stacks alive, and 600
    # retained random-family reports then raised peak RSS by about 8%.
    return [Witness(weights[k].copy(), combination[k].copy(), float(residual[k]))
            for k in range(lam.shape[0])]


def _closed_form(units: list[np.ndarray], column_signs: np.ndarray) -> np.ndarray | None:
    """Closed-form direction ``a = C^-T s`` of every pattern, one column each.

    Column j of ``C`` is the mean of column j's unit generators, and ``s``
    a pattern's column signs, so ``a . (s_j c_j) = 1`` for every column
    centre. Returns ``None`` when ``C`` is singular or ``a`` not finite.
    """
    # Row j of C^T, summed as mean(axis=0) sums; a reduceat on W changes bits.
    CT = np.array([np.add.reduce(u, axis=0) / len(u) for u in units])
    try:
        A = np.linalg.solve(CT, column_signs.T)
    except np.linalg.LinAlgError:
        return None
    return A if np.isfinite(A).all() else None


def _check_parameters(delta: float, threshold: float) -> None:
    for name, value in (("delta", delta), ("threshold", threshold)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def _certify_stack(raw: np.ndarray, counts: tuple[int, ...], delta: float, threshold: float,
                   provenance: str) -> CertificateReport:
    """:func:`certify_matrix_family` on checked columns, column j the next ``counts[j]`` rows."""
    n = len(counts)
    starts = list(itertools.accumulate(counts[:-1], initial=0))
    W, lows, degenerate = _unit_columns(raw, starts, delta)
    if degenerate is not None:
        return CertificateReport(n, VERDICT_NOT_CERTIFIED, (), counts, None, provenance,
                                 delta, threshold, degenerate_column=degenerate)
    norms = np.sqrt(np.add.reduce(W * W, axis=1))
    patterns, column_signs = _sign_patterns(n)
    size = len(patterns)
    strict = np.zeros(size, dtype=bool)
    a_unit, epsilon = np.zeros((size, n)), np.zeros(size)
    # Python floats and Witness records of the patterns that have them.
    lp_margin, witnesses = [None] * size, {}
    A = _closed_form([W[a:a + c] for a, c in zip(starts, counts)], column_signs)
    # Without a closed-form direction every pattern goes to the LP.
    for start in range(0, size if A is not None else 0, CHUNK):
        rows = slice(start, start + CHUNK)
        # Each generator takes the sign of its column.
        signs = column_signs[rows].repeat(counts, axis=1)
        # Each a is scaled to |a|_inf = 1 and claims its least product
        # with a signed unit generator: the scale of an LP optimum.
        a = A[:, rows]
        box = np.abs(a).max(axis=0)
        t = ((W @ a).T * signs).min(axis=1) / box
        strict[rows], a_unit[rows], epsilon[rows] = _judge(W, norms, signs, threshold,
                                                           (a / box).T, t)
    # Only the patterns the closed form leaves undecided get an LP.
    todo = (~strict).nonzero()[0]
    for start in range(0, todo.size, CHUNK):
        rows = todo[start:start + CHUNK]
        signs = column_signs[rows].repeat(counts, axis=1)
        a, t, lam = lpsolve.margin_lps(W, signs)
        ok, a_unit[rows], epsilon[rows] = _judge(W, norms, signs, threshold, a, t)
        strict[rows] = ok
        for k, margin in zip(rows.tolist(), t.tolist()):
            lp_margin[k] = margin
        witnesses.update(zip(rows[~ok].tolist(), _witnesses(W, signs[~ok], lam[~ok])))
    every = strict.all()
    # The report keeps its certificates' directions and no failed pattern's.
    certificates = iter(_readonly(a_unit if every else a_unit[strict]))
    results = []
    for k, (pattern, ok, e, margin) in enumerate(zip(patterns, strict.tolist(),
                                                     epsilon.tolist(), lp_margin)):
        if ok:
            certificate = Certificate(next(certificates), e)
            results.append(PatternResult(pattern, STATUS_STRICT, certificate, margin))
        else:
            if margin > threshold:
                note = "certificate failed post-hoc verification"
            else:
                note = "numerically marginal" if margin > 0.0 else None
            results.append(PatternResult(pattern, STATUS_NOT_STRICT, None, margin,
                                         witness=witnesses.get(k), note=note))
    verdict = VERDICT_STRICT if every else VERDICT_NOT_CERTIFIED
    return CertificateReport(n, verdict, tuple(results), counts, tuple(lows.tolist()),
                             provenance, delta, threshold)


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
    _check_parameters(delta, threshold)
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
    return _certify_stack(np.concatenate([col.vectors for col in columns]), counts,
                          delta, threshold, PROVENANCE_MATRIX)


def _grid_columns(grid: PatchGrid, cells) -> list[np.ndarray]:
    """Each column's derivative control points over ``cells``, stacked and deduplicated.

    Cells stack in the given order, and exact duplicates go once, first ones kept.
    """
    n = grid.dimension
    blocks: list[list[np.ndarray]] = [[] for _ in range(n)]
    for cell in cells:
        for j, points in enumerate(_cell_derivatives(grid, cell)):
            blocks[j].append(points.reshape(-1, n))
    return [dedup_exact(b[0] if len(b) == 1 else np.concatenate(b)) for b in blocks]


def _certify_cells(grid: PatchGrid, cells, delta: float, threshold: float) -> CertificateReport:
    """Certify the map on the union of the given cells of a grid.

    ``cells`` is a non-empty list of the grid's cells. One cell is a
    single patch, several a multi-patch map, and the report says which.
    A degree-0 axis in any of the cells gives its column a zero
    generator, so the report is degenerate like any other column that
    touches the origin. The report is that of ``certify_matrix_family``
    on the columns of :func:`_grid_columns` apart from its provenance.
    """
    columns = _grid_columns(grid, cells)
    _check_parameters(delta, threshold)
    provenance = PROVENANCE_SINGLE if len(cells) == 1 else PROVENANCE_MULTI
    return _certify_stack(np.concatenate(columns), tuple(map(len, columns)),
                          delta, threshold, provenance)


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
