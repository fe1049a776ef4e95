"""Near-identity matrix families checked against an independent LP solver.

Columns ``e_j + 0.05 N(0, 1)`` are certifiable, so every pattern LP must
reach a strictly positive margin, and they take the most pivots. The
families are drawn from ``default_rng(1)`` at n = 4, 6 and 8 in that
order; at n = 8 round-off once made four patterns fail post-hoc
verification although their LP margins are about 0.65.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from invcert import certify_matrix_family, lpsolve
from invcert.certify import normalize_generators

from helpers import near_identity_columns
from oracles import lp_pattern_results, reference_margin_lps


@pytest.fixture(scope="module")
def families():
    rng = np.random.default_rng(1)
    out = {}
    for n in (4, 6, 8):
        columns = near_identity_columns(rng, n)
        out[n] = (columns, certify_matrix_family(columns))
    return out


def highs_margin(signed: np.ndarray) -> float:
    """max t s.t. a . w >= t for every row w, |a_j| <= 1, t >= 0, by HiGHS."""
    m, n = signed.shape
    res = linprog(
        c=np.concatenate([np.zeros(n), [-1.0]]),
        A_ub=np.hstack([-signed, np.ones((m, 1))]),
        b_ub=np.zeros(m),
        bounds=[(-1.0, 1.0)] * n + [(0.0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return -res.fun


def test_roundoff_reproducer_is_strict(families):
    _, report = families[8]
    assert report.verdict == "strict-v-family"
    assert len(report.pattern_results) == 128


@pytest.mark.parametrize("n", [4, 6, 8])
def test_margins_match_highs(families, n):
    # Every pattern's own LP margin matches HiGHS; the report, which decides
    # patterns in closed form, certifies every pattern HiGHS finds separated.
    columns, report = families[n]
    units = [normalize_generators(col)[0] for col in columns]
    lp_only = lp_pattern_results(columns)
    for res, lp in zip(report.pattern_results, lp_only, strict=True):
        signed = np.vstack([s * u for s, u in zip(res.pattern.signs, units)])
        reference = highs_margin(signed)
        assert lp.lp_margin == pytest.approx(reference, abs=1e-8)
        if reference >= 1e-6:
            assert lp.status == "strict", lp.note
            assert res.status == "strict", res.note


def test_phase1_roundoff_is_not_infeasibility(monkeypatch):
    # Family 104 of the seed-91 near-identity stream of bench/workloads.py.
    # Round-off in the phase-1 objective row of one pattern LP left a reduced
    # cost of -2.3e-10 on a column with no pivot entry; the solver took that
    # for an unbounded phase 1 and reported the LP infeasible. The margin LPs
    # now start at a known vertex and the solver has no phase 1; HiGHS
    # certifies the family too.
    rng = np.random.default_rng([91, 2])
    for k in range(105):
        columns = near_identity_columns(rng, 4 if k % 5 == 0 else 6)
    assert certify_matrix_family(columns).certified
    monkeypatch.setattr(lpsolve, "margin_lps", reference_margin_lps)
    assert certify_matrix_family(columns).certified
