"""Tests for the dense two-phase simplex solver."""

import numpy as np
import pytest

from invcert import certify_matrix_family, lpsolve
from invcert.lpsolve import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve

from helpers import near_identity_columns
from oracles import lp_vertex_oracle

# Beale (1955): cycles under most-negative-reduced-cost pricing. Optimum 1.25
# at x = (1, 0, 1, 0).
BEALE = LinearProgram(
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def reproducer_columns():
    """The n=8 near-identity family, drawn after n=4 and n=6 from default_rng(1)."""
    rng = np.random.default_rng(1)
    for n in (4, 6):
        near_identity_columns(rng, n)
    return near_identity_columns(rng, 8)


def random_bounded_lp(rng, n_vars, n_rows):
    """Random LP with a known feasible point and a bounding box."""
    G = rng.normal(size=(n_rows, n_vars))
    box = rng.uniform(1.0, 5.0, size=n_vars)
    x0 = rng.random(n_vars) * box
    h = G @ x0 + rng.uniform(0.1, 2.0, size=n_rows)
    c = rng.normal(size=n_vars)
    bounds = tuple((0.0, float(b)) for b in box)
    return c, G, h, bounds


class TestExamples:
    def test_single_variable(self):
        sol = solve(LinearProgram([1.0], [[1.0]], [1.0]))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0])
        assert sol.objective_value == pytest.approx(1.0)

    def test_two_variable_vertex(self):
        # max x+y s.t. x+2y <= 4, 3x+y <= 6; best vertex from pairwise
        # constraint intersections is (1.6, 1.2) with value 2.8.
        lp = LinearProgram([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.6, 1.2], atol=1e-9)
        assert sol.objective_value == pytest.approx(2.8, abs=1e-9)
        oracle = lp_vertex_oracle([1, 1], lp.constraint_matrix, lp.constraint_bounds,
                                  [(0.0, 10.0), (0.0, 10.0)])
        assert sol.objective_value == pytest.approx(oracle, abs=1e-9)

    def test_infeasible(self):
        sol = solve(LinearProgram([1.0], [[1.0]], [-1.0]))
        assert sol.status == INFEASIBLE
        assert sol.x is None

    def test_unbounded(self):
        sol = solve(LinearProgram([1.0], np.zeros((0, 1)), []))
        assert sol.status == UNBOUNDED

    def test_free_variable_split(self):
        sol = solve(LinearProgram([-1.0], [[-1.0]], [3.0], bounds=((None, None),)))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [-3.0], atol=1e-9)

    def test_upper_bound_only_variable(self):
        sol = solve(LinearProgram([1.0], np.zeros((0, 1)), [], bounds=((None, 2.0),)))
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [2.0])

    def test_crossed_bounds_infeasible(self):
        sol = solve(LinearProgram([1.0], np.zeros((0, 1)), [], bounds=((1.0, 0.0),)))
        assert sol.status == INFEASIBLE

    def test_phase1_negative_rhs(self):
        lp = LinearProgram([1.0, 1.0], [[-1.0, -1.0], [1.0, 1.0]], [-2.0, 5.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(ValueError, match="bounds"):
            LinearProgram([1.0], [[1.0], [2.0]], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LinearProgram([np.inf], [[1.0]], [1.0])


class TestRandomSuite:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n_vars = int(rng.integers(2, 4))
            n_rows = int(rng.integers(1, 9))
            c, G, h, bounds = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve(LinearProgram(c, G, h, bounds))
            assert sol.status == OPTIMAL
            oracle = lp_vertex_oracle(c, G, h, bounds)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-8)

    def test_reported_optimum_is_feasible(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            n_vars = int(rng.integers(2, 6))
            n_rows = int(rng.integers(1, 13))
            c, G, h, bounds = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve(LinearProgram(c, G, h, bounds))
            assert sol.status == OPTIMAL
            assert np.all(G @ sol.x <= h + 1e-9)
            for xj, (lo, hi) in zip(sol.x, bounds):
                assert lo - 1e-9 <= xj <= hi + 1e-9

    def test_weak_duality_on_sampled_points(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(40):
            n_vars = int(rng.integers(2, 5))
            c, G, h, bounds = random_bounded_lp(rng, n_vars, int(rng.integers(1, 9)))
            sol = solve(LinearProgram(c, G, h, bounds))
            assert sol.status == OPTIMAL
            box = np.array([hi for _, hi in bounds])
            samples = rng.random((200, n_vars)) * box
            feasible = samples[np.all(G @ samples.T <= h[:, None], axis=0)]
            if feasible.size:
                checked += 1
                assert (feasible @ c).max() <= sol.objective_value + 1e-8
        assert checked > 10

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            c, G, h, bounds = random_bounded_lp(rng, 3, 6)
            lp = LinearProgram(c, G, h, bounds)
            first, second = solve(lp), solve(lp)
            assert first.status == second.status
            assert first.x.tobytes() == second.x.tobytes()
            assert first.objective_value == second.objective_value
            assert first.duals.tobytes() == second.duals.tobytes()


class TestPricing:
    def test_beale_reaches_optimum(self):
        sol = solve(BEALE)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_beale_cycles_without_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "_DEGENERATE_RUN", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve(BEALE)

    @pytest.mark.parametrize("columns, patterns, mean_pivots", [
        # Bland's least-index rule took about 290 pivots per LP on this family.
        (near_identity_columns(np.random.default_rng(6), 6), 32, 80),
        # The n=8 family of tests/test_near_identity.py: about 48 pivots per
        # LP through the primal margin LP, about 21 through its dual.
        (reproducer_columns(), 128, 35),
    ], ids=["n6", "n8-reproducer"])
    def test_near_identity_margin_lps_take_few_pivots(self, monkeypatch, columns,
                                                      patterns, mean_pivots):
        pivots = []
        exact = lpsolve.solve

        def counting(lp):
            sol = exact(lp)
            pivots.append(sol.pivots)
            return sol

        monkeypatch.setattr(lpsolve, "solve", counting)
        report = certify_matrix_family(columns)
        assert report.certified
        assert len(pivots) == patterns
        assert np.mean(pivots) < mean_pivots


class TestDuals:
    def test_strong_duality_simple(self):
        # max x+y s.t. x <= 1, y <= 2: duals (1, 1) and value 3.
        sol = solve(LinearProgram([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0]))
        np.testing.assert_allclose(sol.duals, [1.0, 1.0], atol=1e-12)

    def test_duals_price_the_constraints(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            n_vars = int(rng.integers(2, 5))
            n_rows = int(rng.integers(2, 9))
            G = rng.normal(size=(n_rows, n_vars))
            x0 = rng.random(n_vars)
            h = G @ x0 + rng.uniform(0.1, 1.0, size=n_rows)
            c = rng.normal(size=n_vars)
            bounds = tuple((0.0, 3.0) for _ in range(n_vars))
            sol = solve(LinearProgram(c, G, h, bounds))
            assert sol.status == OPTIMAL
            assert np.all(sol.duals >= -1e-9)
            # Complementary slackness: positive duals sit on tight rows.
            slack = h - G @ sol.x
            assert np.all(slack[sol.duals > 1e-7] <= 1e-7)

    def test_strong_duality_with_negated_rows(self):
        # Rows with a negative right-hand side are negated inside the solver;
        # their duals must still price the rows as given: y >= 0,
        # G^T y >= c and h . y equal to the optimal value.
        rng = np.random.default_rng(127)
        negated = 0
        for _ in range(40):
            n_vars = int(rng.integers(2, 5))
            n_rows = int(rng.integers(2, 7))
            G = np.vstack([rng.normal(size=(n_rows, n_vars)), np.eye(n_vars)])
            h = G @ rng.random(n_vars) + rng.uniform(0.1, 1.0, size=n_rows + n_vars)
            c = rng.normal(size=n_vars)
            negated += int(np.any(h < 0.0))
            sol = solve(LinearProgram(c, G, h))
            assert sol.status == OPTIMAL
            assert np.all(sol.duals >= -1e-9)
            assert np.all(G.T @ sol.duals >= c - 1e-9)
            assert h @ sol.duals == pytest.approx(sol.objective_value, abs=1e-9)
        assert negated > 10
