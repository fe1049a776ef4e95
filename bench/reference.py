"""Independent correctness gate: reference margins and certificate re-checks.

Nothing here uses invcert. Column generators of a map are the derivative
control points ``p * (P[..i+1..] - P[..i..]) / width`` of each cell; a
degree-0 axis or a generator shorter than ``delta`` makes the map
degenerate. Each sign pattern's margin is the optimum of

    maximize t  subject to  a . w >= t  for every signed unit generator w,
                            -1 <= a_j <= 1,  t free,

solved by scipy's HiGHS. Many patterns go into one call as independent
diagonal blocks, whose optima are the optima of the separate programs.
A margin of at least ``CLEAR * threshold`` is a clear "certifiable", one of
at most ``threshold / CLEAR`` a clear "not certifiable"; anything between
is left unjudged.

A strict certificate ``(a, eps)`` is re-checked against the raw signed
generators: ``a . v >= eps * (1 - RECHECK_SLACK) * |v|`` for all ``v``.
The slack absorbs round-off in this check alone; a certificate inside it
still proves the pattern with margin ``eps * (1 - RECHECK_SLACK)``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

CLEAR = 10.0
RECHECK_SLACK = 1e-9
DEFAULT_DELTA = 1e-12
DEFAULT_THRESHOLD = 1e-7
_PATTERNS_PER_CALL = 64
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def map_columns(spec) -> list[np.ndarray] | None:
    """Raw column generators of a map, or ``None`` if an axis is constant."""
    n = spec.dimension
    columns = [[] for _ in range(n)]
    for points, widths in spec.cells:
        for axis in range(n):
            degree = points.shape[axis] - 1
            if degree == 0:
                return None
            diff = degree * np.diff(points, axis=axis) / widths[axis]
            columns[axis].append(diff.reshape(-1, n))
    return [np.vstack(c) for c in columns]


def is_degenerate(columns, delta: float = DEFAULT_DELTA) -> bool:
    return columns is None or any(np.linalg.norm(c, axis=1).min() < delta for c in columns)


def sign_patterns(n: int) -> list[tuple[int, ...]]:
    return [(1,) + rest for rest in itertools.product((1, -1), repeat=n - 1)]


def signed(columns, signs) -> np.ndarray:
    return np.vstack([s * c for s, c in zip(signs, columns)])


def _solve_blocks(blocks: list[np.ndarray]) -> list[float]:
    matrices, costs, bounds = [], [], []
    for W in blocks:
        m, n = W.shape
        matrices.append(sparse.csr_matrix(np.hstack([-W, np.ones((m, 1))])))
        costs.append(np.append(np.zeros(n), -1.0))
        bounds += [(-1.0, 1.0)] * n + [(None, None)]
    A = sparse.block_diag(matrices, format="csr")
    res = linprog(np.concatenate(costs), A_ub=A, b_ub=np.zeros(A.shape[0]),
                  bounds=bounds, method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    ends = np.cumsum([W.shape[1] + 1 for W in blocks])
    return [float(res.x[e - 1]) for e in ends]


def margins(families) -> list[dict[tuple[int, ...], float]]:
    """Reference margin of every pattern of every non-degenerate family."""
    jobs = []
    for f, columns in enumerate(families):
        for signs in sign_patterns(len(columns)):
            W = signed(columns, signs)
            jobs.append((f, signs, W / np.linalg.norm(W, axis=1)[:, None]))
    out = [{} for _ in families]
    for start in range(0, len(jobs), _PATTERNS_PER_CALL):
        batch = jobs[start:start + _PATTERNS_PER_CALL]
        for (f, signs, _), value in zip(batch, _solve_blocks([W for _, _, W in batch])):
            out[f][signs] = value
    return out


def recheck(a, eps: float, columns, signs) -> bool:
    V = signed(columns, signs)
    a = np.asarray(a, dtype=float)
    return bool(np.all(V @ a >= eps * (1.0 - RECHECK_SLACK) * np.linalg.norm(V, axis=1)))


class Tally:
    """Outcome counts of one run against the reference."""

    def __init__(self, threshold: float = DEFAULT_THRESHOLD):
        self.threshold = threshold
        self.attempted = 0
        self.failed_items: set[int] = set()  # raised, wrong exit code, unsound, ...
        self.disagreements = 0  # not certified although the reference clearly certifies
        self.unsound = 0
        self.clear_patterns = 0
        self.false_rejects = 0
        self.notes: list[str] = []

    @property
    def hard_failures(self) -> int:
        return len(self.failed_items)

    def fail(self, item: int, why: str) -> None:
        self.failed_items.add(item)
        if len(self.notes) < 10:
            self.notes.append(f"item {item}: {why}")

    def check_report(self, item: int, record: dict, columns, ref: dict | None) -> bool:
        """Judge one report record; returns False on a hard failure."""
        if ref is None:
            if record["degenerate_column"] is None:
                self.fail(item, "reference finds a degenerate column, invcert does not")
                return False
            return True
        if record["degenerate_column"] is not None:
            self.fail(item, "invcert reports a degenerate column, the reference does not")
            return False
        patterns = {tuple(p[0]): p for p in record["patterns"]}
        if set(patterns) != set(ref):
            self.fail(item, "pattern set differs from the 2^(n-1) sign patterns")
            return False
        ok = True
        high, low = CLEAR * self.threshold, self.threshold / CLEAR
        for signs, (_, status, _, a, eps) in patterns.items():
            margin = ref[signs]
            self.clear_patterns += margin >= high or margin <= low
            if status == "strict":
                if not recheck(a, eps, columns, signs):
                    self.unsound += 1
                    self.fail(item, f"certificate for {signs} fails the re-check")
                    ok = False
                elif margin <= low:
                    self.fail(item, f"pattern {signs} certified, reference margin {margin:.3g}")
                    ok = False
            elif margin >= high:
                self.false_rejects += 1
        all_strict = all(p[1] == "strict" for p in patterns.values())
        if (record["verdict"] == "strict-v-family") != all_strict:
            self.fail(item, "verdict does not match the pattern statuses")
            return False
        if ok and not all_strict and min(ref.values()) >= high:
            self.disagreements += 1
        return ok

    def check_verdict(self, item: int, verdict: str | None, degenerate: bool,
                      ref: dict | None) -> bool:
        """Judge a text-format CLI report, which shows only the verdict."""
        if (ref is None) != degenerate:
            self.fail(item, "degenerate verdict disagrees with the reference")
            return False
        if ref is None:
            return True
        certified = verdict == "STRICT-V-FAMILY"
        if certified and min(ref.values()) <= self.threshold / CLEAR:
            self.fail(item, "certified, but the reference clearly rejects a pattern")
            return False
        if not certified and min(ref.values()) >= CLEAR * self.threshold:
            self.disagreements += 1
        return True
