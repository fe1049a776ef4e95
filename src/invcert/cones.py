"""Column generator sets, sign patterns, and cone-margin certificates.

Everything here works with finitely generated cones: a column of a matrix
family is represented by the finite set of vectors whose nonnegative
combinations cover every value that column can take. A certificate
``(a, epsilon)`` for such a cone states that ``a . x >= epsilon * |x|``
for every ``x`` in the cone, which is checked on the generators alone and
extends to the whole cone by positive combination. Sign patterns and
certificates are plain report records: the certifier builds them from
its own arrays and checks a report's certificates once, as one stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_DELTA",
    "DegenerateColumn",
    "GeneratorSet",
    "dedup_exact",
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
