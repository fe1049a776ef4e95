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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import lpsolve
from .bernstein import PatchGrid, _as_grid, _derivative_points

__all__ = [
    "DEFAULT_DELTA",
    "DEFAULT_THRESHOLD",
    "CertificateReport",
    "DegenerateColumn",
    "GeneratorSet",
    "PatternResult",
    "Witness",
    "certify_map",
    "certify_matrix_family",
    "dedup_exact",
    "grid_column_generators",
    "margin_holds",
    "normalize_generators",
]

# Default separation threshold: generators with Euclidean norm below this
# are treated as touching the origin, which makes the column uncertifiable.
DEFAULT_DELTA = 1e-12

# Below this sum-of-squares norm a row's squares may have underflowed and
# lost bits (each square of a larger entry is at least 2**-1000, a normal
# float), so _generator_norms recomputes such norms by rescaling.
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


class DegenerateColumn(ValueError):
    """A column's generators are not separated from the origin."""

    def __init__(self, column: int, norm: float):
        super().__init__(
            f"column {column} has a generator of norm {norm:.6g} "
            "below the separation threshold"
        )
        self.column = column
        self.norm = norm


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


def _check_certificates(a: np.ndarray, epsilon: np.ndarray) -> None:
    """Check a stack of certificates: row k of ``a`` is a unit vector, ``epsilon[k]`` positive."""
    if a.ndim != 2:
        raise ValueError("certificate vector must be one-dimensional")
    if not np.all(np.abs(np.linalg.norm(a, axis=1) - 1.0) <= 1e-12):
        raise ValueError("certificate vector must have unit Euclidean norm")
    bad = ~((epsilon > 0.0) & np.isfinite(epsilon))
    if bad.any():
        raise ValueError(f"certificate margin must be positive, got {epsilon[bad][0]}")


@dataclass(frozen=True)
class Certificate:
    """Unit direction ``a`` and margin ``epsilon > 0`` for one signed cone.

    It states that ``a . x >= epsilon * |x|`` for every ``x`` in the cone.
    ``a`` is a read-only row of a stack that passed
    :func:`_check_certificates`, and ``epsilon`` a Python float.
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
    return rows[keep]


def _generator_norms(vectors: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Euclidean norm of each row of a non-empty stack, with the smallest and largest.

    Rows get ``np.linalg.norm``'s sum-of-squares norm, except where that
    overflows or falls below ``_TINY_NORM``, where squares may have
    underflowed: those rows are recomputed as ``s * |row / s|`` with ``s``
    their largest absolute entry, whose squares do neither. So the norms
    are accurate for entries of any finite size; zero rows get 0 and rows
    whose true norm exceeds the float range get inf.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
        low, high = norms.min(), norms.max()
        if not (low >= _TINY_NORM and high < np.inf):
            redo = ~((norms >= _TINY_NORM) & (norms < np.inf))
            rows = vectors[redo]
            scale = np.abs(rows).max(axis=1)
            nonzero = scale > 0.0
            scale = scale[nonzero, None]
            fixed = np.zeros(rows.shape[0])
            fixed[nonzero] = scale[:, 0] * np.linalg.norm(rows[nonzero] / scale, axis=1)
            norms[redo] = fixed
            low, high = norms.min(), norms.max()
    return norms, low, high


def normalize_generators(gens: GeneratorSet, delta: float = DEFAULT_DELTA) -> tuple[np.ndarray, float]:
    """Scale every generator to unit norm.

    Returns ``(units, min_norm)`` where ``min_norm`` is the smallest
    original generator norm (see :func:`_generator_norms`), kept for
    reporting alongside the margin. Raises :class:`DegenerateColumn` if
    any generator has norm below ``delta``: the cone then touches the
    origin and no margin can hold. Raises ``ValueError`` if a generator's
    norm exceeds the float range.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    norms, low, high = _generator_norms(gens.vectors)
    if low < delta:
        raise DegenerateColumn(gens.column, float(low))
    if high == np.inf:
        raise ValueError(
            f"column {gens.column} has a generator whose norm exceeds the float range")
    return gens.vectors / norms[:, None], float(low)


# All 2^(n-1) patterns with leading +1, in binary-counting order. Patterns are
# frozen, so every report of dimension n shares one set, and one read-only
# float matrix whose row k holds pattern k's signs.
@functools.lru_cache(maxsize=16)
def _sign_patterns(n: int) -> tuple[tuple[SignPattern, ...], np.ndarray]:
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
    return np.all(projections >= np.multiply.outer(epsilon, norms), axis=-1)


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
    through ``np.matmul`` so each gets the bits of judging it alone. A
    failing row is checked again one ulp lower, in at most three checks,
    which stop once every row passes. The caller checks the strict rows'
    certificates once, as one stack.
    """
    size = t.shape[0]
    strict = np.zeros(size, dtype=bool)
    a_unit, epsilon = np.zeros((size, W.shape[1])), np.zeros(size)
    live = np.flatnonzero(t > threshold)
    if live.size == 0:
        return strict, a_unit, epsilon
    a = a_raw[live]
    # |a| as np.linalg.norm takes it, one dot product per row.
    scale = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    unit = a / scale[:, None]
    # Negation is exact, so these are the signed generators' products with
    # the unit direction bit for bit (a zero may change sign, which no
    # comparison below can see), and ``norms`` are their norms.
    projections = np.matmul(W, unit[:, :, None])[:, :, 0] * signs[live]
    # A claimed margin is only accurate to round-off; certify no more than
    # the margin the generators verifiably meet.
    eps = np.minimum(t[live] / scale, (projections / norms).min(axis=1))
    ok = np.zeros(live.size, dtype=bool)
    for _ in range(3):
        ok |= (eps > 0.0) & margin_holds(projections, norms, eps)
        if ok.all():
            break
        eps = np.where(ok, eps, np.nextafter(eps, 0.0))
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
    C = np.stack([u.mean(axis=0) for u in units], axis=1)
    try:
        A = np.linalg.solve(C.T, column_signs.T)
    except np.linalg.LinAlgError:
        return None
    return A if np.isfinite(A).all() else None


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
        norms = np.linalg.norm(W, axis=1)
        # Generator r is signed by the sign of its column, column_of[r].
        column_of = np.repeat(np.arange(n), counts)
        patterns, column_signs = _sign_patterns(n)
        size = len(patterns)
        strict = np.zeros(size, dtype=bool)
        a_unit, epsilon = np.zeros((size, n)), np.zeros(size)
        # Python floats and Witness records, None where a pattern has none.
        lp_margin, witnesses = np.full(size, None), np.full(size, None)
        A = _closed_form(units, column_signs)
        # Without a closed-form direction every pattern goes to the LP.
        for start in range(0, size if A is not None else 0, CHUNK):
            rows = slice(start, start + CHUNK)
            signs = column_signs[rows][:, column_of]
            # Each a is scaled to |a|_inf = 1 and claims its least product
            # with a signed unit generator: the scale of an LP optimum.
            a = A[:, rows]
            box = np.abs(a).max(axis=0)
            t = ((W @ a).T * signs).min(axis=1) / box
            strict[rows], a_unit[rows], epsilon[rows] = _judge(W, norms, signs, threshold,
                                                               (a / box).T, t)
        # Only the patterns the closed form leaves undecided get an LP.
        todo = np.flatnonzero(~strict)
        for start in range(0, todo.size, CHUNK):
            rows = todo[start:start + CHUNK]
            signs = column_signs[rows][:, column_of]
            a, t, lam = lpsolve.margin_lps(W, signs)
            ok, a_unit[rows], epsilon[rows] = _judge(W, norms, signs, threshold, a, t)
            strict[rows] = ok
            lp_margin[rows] = t.tolist()
            witnesses[rows[~ok]] = _witnesses(W, signs[~ok], lam[~ok])
        # The certificates are checked once, as one read-only stack of rows.
        stack = _readonly(a_unit[strict])
        _check_certificates(stack, epsilon[strict])
        certificates = map(Certificate, stack, epsilon[strict].tolist())
        for pattern, ok, margin, witness in zip(patterns, strict.tolist(), lp_margin,
                                                witnesses):
            if ok:
                results.append(PatternResult(pattern, STATUS_STRICT, next(certificates), margin))
            else:
                if margin > threshold:
                    note = "certificate failed post-hoc verification"
                else:
                    note = "numerically marginal" if margin > 0.0 else None
                results.append(PatternResult(pattern, STATUS_NOT_STRICT, None, margin,
                                             witness=witness, note=note))

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
