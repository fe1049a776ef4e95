"""Tests for the dense simplex solver.

The kernel's general-LP tests write each program as a tableau at its
slack basis (``helpers.tableaux``); every LP there has ``b >= 0``, so it
starts feasible. The margin-LP tests record the tableaux that
``lpsolve.margin_lps`` hands the kernel.
"""

import numpy as np
import pytest

from invcert import GeneratorSet, certify_matrix_family, lpsolve

from helpers import (
    integer_families,
    near_identity_columns,
    pivots_per_lp,
    record_batches,
    solve_one,
    solve_tableaux,
    tableaux,
)
from oracles import lp_vertex_oracle, margin_lp_inputs, multiply_pivot

# Beale (1955): cycles under most-negative-reduced-cost pricing. Optimum 1.25
# at x = (1, 0, 1, 0). Given as (c, G, h).
BEALE = (
    [0.75, -20.0, 0.5, -6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def near_identity_families():
    """The n=4, 6 and 8 near-identity families, drawn in turn from default_rng(1)."""
    rng = np.random.default_rng(1)
    return [near_identity_columns(rng, n) for n in (4, 6, 8)]


def reproducer_columns():
    """The n=8 family of tests/test_near_identity.py."""
    return near_identity_families()[2]


def random_bounded_lp(rng, n_vars, n_rows):
    """Random LP with ``h > 0``, a known interior point and a box ``0 <= x <= box``."""
    G = rng.normal(size=(n_rows, n_vars))
    box = rng.uniform(1.0, 5.0, size=n_vars)
    x0 = rng.random(n_vars) * box
    h = np.abs(G @ x0) + rng.uniform(0.1, 2.0, size=n_rows)
    c = rng.normal(size=n_vars)
    return c, G, h, box


class TestExamples:
    def test_single_variable(self):
        sol = solve_one([1.0], [[1.0]], [1.0])
        assert not sol.unbounded
        np.testing.assert_allclose(sol.x, [1.0])
        assert sol.objective_value == pytest.approx(1.0)

    def test_two_variable_vertex(self):
        # max x+y s.t. x+2y <= 4, 3x+y <= 6; best vertex from pairwise
        # constraint intersections is (1.6, 1.2) with value 2.8.
        G, h = [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]
        sol = solve_one([1.0, 1.0], G, h)
        assert not sol.unbounded
        np.testing.assert_allclose(sol.x, [1.6, 1.2], atol=1e-9)
        assert sol.objective_value == pytest.approx(2.8, abs=1e-9)
        oracle = lp_vertex_oracle([1, 1], G, h, [(0.0, 10.0), (0.0, 10.0)])
        assert sol.objective_value == pytest.approx(oracle, abs=1e-9)

    def test_unbounded(self):
        sol = solve_one([1.0], np.zeros((0, 1)), [])
        assert sol.unbounded

    def test_slack_basis_is_the_start(self):
        # No cost is positive, so the slack basis is already optimal.
        sol = solve_one([-1.0, -2.0], [[1.0, 1.0]], [1.0])
        assert not sol.unbounded
        assert sol.pivots == 0
        np.testing.assert_array_equal(sol.x, [0.0, 0.0])
        np.testing.assert_array_equal(sol.duals, [0.0])

    def test_negative_rhs_via_a_vertex_dictionary(self):
        # max x+y s.t. -x-y <= -2, x+y <= 5 has optimum 5, but its slack
        # basis is infeasible. At the vertex (x, y) = (2, 0) the nonbasic
        # variables are y and the first row's slack s; then x = 2 - y + s
        # and the second slack is 3 - s, so the dictionary is max 2 + s
        # s.t. y - s <= 2, s <= 3.
        sol = solve_one([0.0, 1.0], [[1.0, -1.0], [0.0, 1.0]], [2.0, 3.0])
        assert not sol.unbounded
        y, s = sol.x
        x = 2.0 - y + s
        assert 2.0 + sol.objective_value == pytest.approx(5.0, abs=1e-12)
        assert x >= 0.0 and x + y == pytest.approx(5.0, abs=1e-12)


class TestRandomSuite:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n_vars = int(rng.integers(2, 4))
            n_rows = int(rng.integers(1, 9))
            c, G, h, box = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve_one(c, G, h, box)
            assert not sol.unbounded
            oracle = lp_vertex_oracle(c, G, h, [(0.0, hi) for hi in box])
            assert sol.objective_value == pytest.approx(oracle, abs=1e-8)

    def test_reported_optimum_is_feasible(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            n_vars = int(rng.integers(2, 6))
            n_rows = int(rng.integers(1, 13))
            c, G, h, box = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve_one(c, G, h, box)
            assert not sol.unbounded
            assert np.all(G @ sol.x <= h + 1e-9)
            assert np.all(sol.x >= -1e-9)
            assert np.all(sol.x <= box + 1e-9)

    def test_weak_duality_on_sampled_points(self):
        rng = np.random.default_rng(107)
        checked = 0
        for _ in range(40):
            n_vars = int(rng.integers(2, 5))
            c, G, h, box = random_bounded_lp(rng, n_vars, int(rng.integers(1, 9)))
            sol = solve_one(c, G, h, box)
            assert not sol.unbounded
            samples = rng.random((200, n_vars)) * box
            feasible = samples[np.all(G @ samples.T <= h[:, None], axis=0)]
            if feasible.size:
                checked += 1
                assert (feasible @ c).max() <= sol.objective_value + 1e-8
        assert checked > 10

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            c, G, h, box = random_bounded_lp(rng, 3, 6)
            first, second = solve_one(c, G, h, box), solve_one(c, G, h, box)
            assert first.unbounded == second.unbounded
            assert first.x.tobytes() == second.x.tobytes()
            assert first.objective_value == second.objective_value
            assert first.duals.tobytes() == second.duals.tobytes()


class TestPricing:
    def test_beale_reaches_optimum(self):
        sol = solve_one(*BEALE)
        assert not sol.unbounded
        assert sol.objective_value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_beale_cycles_without_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "_DEGENERATE_RUN", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_one(*BEALE)

    @pytest.mark.parametrize("columns, patterns, mean_pivots", [
        # Bland's least-index rule took about 290 pivots per LP on this family,
        # Dantzig's 8.5 from the known vertex.
        (near_identity_columns(np.random.default_rng(6), 6), 32, 10),
        # The n=8 family of tests/test_near_identity.py: about 48 pivots per
        # LP through the primal margin LP and 12.4 through its dual from the
        # known vertex.
        (reproducer_columns(), 128, 15),
    ], ids=["n6", "n8-reproducer"])
    def test_near_identity_margin_lps_take_few_pivots(self, monkeypatch, columns,
                                                      patterns, mean_pivots):
        # Every pattern's LP, although certify_matrix_family decides these
        # patterns in closed form.
        assert certify_matrix_family(columns).certified
        calls = record_batches(monkeypatch)
        lpsolve.margin_lps(*margin_lp_inputs(columns))
        pivots = pivots_per_lp(calls)
        assert len(pivots) == patterns
        assert np.mean(pivots) < mean_pivots


class TestDuals:
    def test_strong_duality_simple(self):
        # max x+y s.t. x <= 1, y <= 2: duals (1, 1) and value 3.
        sol = solve_one([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        np.testing.assert_allclose(sol.duals, [1.0, 1.0], atol=1e-12)

    def test_duals_price_the_constraints(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            n_vars = int(rng.integers(2, 5))
            n_rows = int(rng.integers(2, 9))
            G = rng.normal(size=(n_rows, n_vars))
            x0 = rng.random(n_vars)
            h = np.abs(G @ x0) + rng.uniform(0.1, 2.0, size=n_rows)
            c = rng.normal(size=n_vars)
            box = np.full(n_vars, 3.0)
            sol = solve_one(c, G, h, box)
            assert not sol.unbounded
            assert np.all(sol.duals >= -1e-9)
            # Complementary slackness: positive duals sit on tight rows.
            slack = h - G @ sol.x
            assert np.all(slack[sol.duals[:n_rows] > 1e-7] <= 1e-7)
            # Strong duality over the rows of G and the box: G^T y + z >= c
            # and h . y + box . z equal to the optimal value.
            y, z = sol.duals[:n_rows], sol.duals[n_rows:]
            assert np.all(G.T @ y + z >= c - 1e-9)
            assert h @ y + box @ z == pytest.approx(sol.objective_value, abs=1e-9)


def margin_lp_batches(monkeypatch, families) -> list[tuple]:
    """The ``(T, obj, basis, pivots)`` of every batch of each family's pattern LPs."""
    with monkeypatch.context() as patch:
        calls = record_batches(patch)
        for columns in families:
            inputs = margin_lp_inputs(columns)
            if inputs is not None:  # a degenerate family solves no LP
                lpsolve.margin_lps(*inputs)
    return calls


def random_families():
    rng = np.random.default_rng(5)
    return [[GeneratorSet(j, rng.normal(size=(m, 6))) for j in range(6)] for m in (20, 40)]


def assert_same_solution(got, alone):
    assert got.unbounded == alone.unbounded
    assert got.pivots == alone.pivots
    assert got.objective_value == alone.objective_value
    for field in ("x", "duals"):
        a, b = getattr(got, field), getattr(alone, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


def assert_batch_matches_members(T, obj, basis) -> list[int]:
    """Solve the stack and each member alone, on copies; returns the pivots."""
    batch = solve_tableaux(T, obj, basis)
    assert len(batch) == T.shape[0]
    for k, got in enumerate(batch):
        assert_same_solution(got, solve_tableaux(T[k:k + 1], obj[k:k + 1], basis[k:k + 1])[0])
    return [sol.pivots for sol in batch]


class TestBatch:
    """A batch returns exactly what each member returns in a batch of one."""

    @pytest.mark.parametrize("families", [near_identity_families, random_families],
                             ids=["near-identity-n4-n6-n8", "random-n6"])
    def test_margin_lps(self, monkeypatch, families):
        batches = margin_lp_batches(monkeypatch, families())
        spread = 0
        for T, obj, basis, recorded in batches:
            pivots = assert_batch_matches_members(T, obj, basis)
            assert pivots == recorded.tolist()
            spread = max(spread, max(pivots) - min(pivots))
        # Members leave the batch at different pivot counts.
        assert spread > 0

    def test_members_switch_to_bland_mid_batch(self, monkeypatch):
        # Exact zeros in integer generators give these margin LPs runs of
        # degenerate pivots; in Gaussian families' batches no member reaches
        # a run of 2.
        (T, obj, basis, dantzig), = margin_lp_batches(monkeypatch, [integer_families()[18]])
        monkeypatch.setattr(lpsolve, "_DEGENERATE_RUN", 2)
        bland = assert_batch_matches_members(T, obj, basis)
        # Some members reach a degenerate run of 2 and change their path,
        # others never do and keep Dantzig's.
        changed = sum(p != q for p, q in zip(dantzig.tolist(), bland))
        assert 0 < changed < len(bland)

    def test_mixed_statuses(self):
        # Random rows make some members unbounded and some optimal, and each
        # must leave the batch with its own status.
        rng = np.random.default_rng(131)
        A = rng.normal(size=(60, 3, 3))
        b = np.array([1.0, 2.0, 0.5])
        c = np.tile([1.0, 0.5, -0.25], (60, 1))
        stacks = tableaux(A, b, c)
        assert_batch_matches_members(*stacks)
        batch = solve_tableaux(*stacks)
        assert {sol.unbounded for sol in batch} == {False, True}
        assert all(sol.x is None and sol.duals is None for sol in batch if sol.unbounded)
        assert all(np.isfinite(sol.x).all() for sol in batch if not sol.unbounded)

    def test_per_program_costs(self):
        # Members stop in their own order; each must still be priced by its
        # own costs.
        rng = np.random.default_rng(149)
        A = rng.normal(size=(60, 3, 3))
        b = np.array([1.0, 2.0, 0.5])
        c = rng.normal(size=(60, 3))
        stacks = tableaux(A, b, c)
        assert_batch_matches_members(*stacks)
        assert {sol.unbounded for sol in solve_tableaux(*stacks)} == {False, True}


def integer_lps():
    """Batches of integer LPs with ``b >= 0``; zeros in ``b`` make them degenerate."""
    rng = np.random.default_rng(137)
    lps = []
    for _ in range(40):
        n_rows, n_vars = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        lps.append(tableaux(rng.integers(-2, 3, size=(16, n_rows, n_vars)).astype(float),
                            rng.integers(0, 3, size=n_rows).astype(float),
                            rng.integers(-2, 3, size=(16, n_vars)).astype(float)))
    return lps


def test_rank_one_update_matches_np_multiply(monkeypatch):
    # einsum writes every zero product as 0.0 where np.multiply keeps its
    # sign; status, pivots, x and duals, signed zeros included, must not
    # show it.
    negative_zeros = 0
    stacks = [batch[:3] for batch in margin_lp_batches(monkeypatch, integer_families())]
    for T, obj, basis in stacks + integer_lps():
        got = solve_tableaux(T, obj, basis)
        with monkeypatch.context() as patch:
            patch.setattr(lpsolve, "_pivot", multiply_pivot)
            want = solve_tableaux(T, obj, basis)
        for mine, theirs in zip(got, want, strict=True):
            assert_same_solution(mine, theirs)
            if mine.duals is not None:
                negative_zeros += np.count_nonzero((mine.duals == 0.0) & np.signbit(mine.duals))
    assert negative_zeros > 0


class TestMarginLps:
    """``lpsolve.margin_lps`` solves the max-margin LP its docstring states."""

    def test_single_generator_is_its_own_vertex(self):
        # One generator: the known vertex a = sign(w_0), t = |w_0|_1 is optimal.
        a, t, weights = lpsolve.margin_lps(np.array([[0.6, -0.8]]), np.ones((1, 1)))
        np.testing.assert_array_equal(a, [[1.0, -1.0]])
        assert t[0] == pytest.approx(1.4, abs=1e-15)
        np.testing.assert_array_equal(weights, [[1.0]])

    def test_opposed_pair_has_zero_margin(self):
        # Signed by (+1, -1), the pair is w and -w: no direction separates
        # them, and equal weights cancel them exactly.
        w = np.array([0.6, 0.0, -0.8])
        a, t, weights = lpsolve.margin_lps(np.array([w, w]), np.array([[1.0, -1.0]]))
        assert t[0] == 0.0
        np.testing.assert_allclose(weights, [[0.5, 0.5]], atol=1e-15)
        assert np.all(np.abs(a) <= 1.0)

    def test_no_programs_give_empty_results(self):
        a, t, weights = lpsolve.margin_lps(np.eye(3), np.ones((0, 3)))
        assert (a.shape, t.shape, weights.shape) == ((0, 3), (0,), (0, 3))

    def test_negative_zero_in_generators_is_zero(self):
        # A -0.0 entry is zero: its coordinate takes sign +1, as 0.0 does,
        # and every program takes the same path to the same bits.
        solved = 0
        for columns in integer_families():
            inputs = margin_lp_inputs(columns)
            if inputs is None:
                continue
            W, signs = inputs
            if not np.any(W == 0.0):
                continue
            negated = np.where(W == 0.0, -0.0, W)
            assert np.signbit(negated[W == 0.0]).all()
            got, want = lpsolve.margin_lps(negated, signs), lpsolve.margin_lps(W, signs)
            for mine, theirs in zip(got, want, strict=True):
                assert mine.tobytes() == theirs.tobytes()
            solved += len(signs)
        assert solved > 0

    @pytest.mark.parametrize("families", [near_identity_families, random_families,
                                          integer_families],
                             ids=["near-identity-n4-n6-n8", "random-n6", "integer"])
    def test_results_meet_the_program(self, families):
        # a and t are feasible, lam is feasible for the dual, and the two
        # objectives agree, so both are optimal.
        checked = 0
        for columns in families():
            inputs = margin_lp_inputs(columns)
            if inputs is None:
                continue
            W, signs = inputs
            a, t, weights = lpsolve.margin_lps(W, signs)
            assert np.all(np.abs(a) <= 1.0 + 1e-12)
            assert np.all(t >= 0.0)
            assert np.all(weights >= -1e-12)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
            for k in range(len(signs)):
                signed = W * signs[k, :, None]
                assert np.all(signed @ a[k] >= t[k] - 1e-9)
                assert np.abs(signed.T @ weights[k]).sum() == pytest.approx(t[k], abs=1e-9)
            checked += len(signs)
        assert checked > 0
