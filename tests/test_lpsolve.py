"""Tests for the dense two-phase simplex solver."""

import numpy as np
import pytest

from invcert import GeneratorSet, certify_matrix_family, lpsolve
from invcert.lpsolve import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_batch

from helpers import member, near_identity_columns, pivots_per_lp, record_batches, solve_one
from oracles import lp_vertex_oracle, multiply_pivot

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
    """Random LP with a known feasible point and a bounding box ``0 <= x <= box``."""
    G = rng.normal(size=(n_rows, n_vars))
    box = rng.uniform(1.0, 5.0, size=n_vars)
    x0 = rng.random(n_vars) * box
    h = G @ x0 + rng.uniform(0.1, 2.0, size=n_rows)
    c = rng.normal(size=n_vars)
    return c, G, h, box


class TestExamples:
    def test_single_variable(self):
        sol = solve_one([1.0], [[1.0]], [1.0])
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0])
        assert sol.objective_value == pytest.approx(1.0)

    def test_two_variable_vertex(self):
        # max x+y s.t. x+2y <= 4, 3x+y <= 6; best vertex from pairwise
        # constraint intersections is (1.6, 1.2) with value 2.8.
        G, h = [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0]
        sol = solve_one([1.0, 1.0], G, h)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.x, [1.6, 1.2], atol=1e-9)
        assert sol.objective_value == pytest.approx(2.8, abs=1e-9)
        oracle = lp_vertex_oracle([1, 1], G, h, [(0.0, 10.0), (0.0, 10.0)])
        assert sol.objective_value == pytest.approx(oracle, abs=1e-9)

    def test_infeasible(self):
        sol = solve_one([1.0], [[1.0]], [-1.0])
        assert sol.status == INFEASIBLE
        assert sol.x is None

    def test_unbounded(self):
        sol = solve_one([1.0], np.zeros((0, 1)), [])
        assert sol.status == UNBOUNDED

    def test_phase1_negative_rhs(self):
        sol = solve_one([1.0, 1.0], [[-1.0, -1.0], [1.0, 1.0]], [-2.0, 5.0])
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(5.0, abs=1e-9)


class TestRandomSuite:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            n_vars = int(rng.integers(2, 4))
            n_rows = int(rng.integers(1, 9))
            c, G, h, box = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve_one(c, G, h, box)
            assert sol.status == OPTIMAL
            oracle = lp_vertex_oracle(c, G, h, [(0.0, hi) for hi in box])
            assert sol.objective_value == pytest.approx(oracle, abs=1e-8)

    def test_reported_optimum_is_feasible(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            n_vars = int(rng.integers(2, 6))
            n_rows = int(rng.integers(1, 13))
            c, G, h, box = random_bounded_lp(rng, n_vars, n_rows)
            sol = solve_one(c, G, h, box)
            assert sol.status == OPTIMAL
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
            assert sol.status == OPTIMAL
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
            assert first.status == second.status
            assert first.x.tobytes() == second.x.tobytes()
            assert first.objective_value == second.objective_value
            assert first.duals.tobytes() == second.duals.tobytes()


class TestPricing:
    def test_beale_reaches_optimum(self):
        sol = solve_one(*BEALE)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(1.25, abs=1e-12)
        np.testing.assert_allclose(sol.x, [1.0, 0.0, 1.0, 0.0], atol=1e-12)

    def test_beale_cycles_without_bland_fallback(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "_DEGENERATE_RUN", 10**9)
        with pytest.raises(RuntimeError, match="iteration limit"):
            solve_one(*BEALE)

    @pytest.mark.parametrize("columns, patterns, mean_pivots", [
        # Bland's least-index rule took about 290 pivots per LP on this family.
        (near_identity_columns(np.random.default_rng(6), 6), 32, 80),
        # The n=8 family of tests/test_near_identity.py: about 48 pivots per
        # LP through the primal margin LP, about 21 through its dual.
        (reproducer_columns(), 128, 35),
    ], ids=["n6", "n8-reproducer"])
    def test_near_identity_margin_lps_take_few_pivots(self, monkeypatch, columns,
                                                      patterns, mean_pivots):
        calls = record_batches(monkeypatch)
        report = certify_matrix_family(columns)
        assert report.certified
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
            h = G @ x0 + rng.uniform(0.1, 1.0, size=n_rows)
            c = rng.normal(size=n_vars)
            sol = solve_one(c, G, h, np.full(n_vars, 3.0))
            assert sol.status == OPTIMAL
            assert np.all(sol.duals >= -1e-9)
            # Complementary slackness: positive duals sit on tight rows.
            slack = h - G @ sol.x
            assert np.all(slack[sol.duals[:n_rows] > 1e-7] <= 1e-7)

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
            sol = solve_one(c, G, h)
            assert sol.status == OPTIMAL
            assert np.all(sol.duals >= -1e-9)
            assert np.all(G.T @ sol.duals >= c - 1e-9)
            assert h @ sol.duals == pytest.approx(sol.objective_value, abs=1e-9)
        assert negated > 10


def margin_lp_batches(monkeypatch, families) -> list[tuple]:
    """The ``(A, b, c)`` stacks that certifying each family passes to the solver."""
    with monkeypatch.context() as patch:
        calls = record_batches(patch)
        for columns in families:
            certify_matrix_family(columns)
    return [(A, b, c) for A, b, c, _ in calls]


def random_families():
    rng = np.random.default_rng(5)
    return [[GeneratorSet(j, rng.normal(size=(m, 6))) for j in range(6)] for m in (20, 40)]


def assert_same_solution(got, alone):
    assert got.status == alone.status
    assert got.pivots == alone.pivots
    assert got.objective_value == alone.objective_value
    for field in ("x", "duals"):
        a, b = getattr(got, field), getattr(alone, field)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == b.tobytes()


def assert_batch_matches_members(A, b, c) -> list[int]:
    batch = solve_batch(A, b, c)
    assert all(len(field) == A.shape[0] for field in batch)
    for k in range(A.shape[0]):
        assert_same_solution(member(batch, k, c), member(solve_batch(A[k:k + 1], b, c), 0, c))
    return batch.pivots.tolist()


class TestBatch:
    """A batch returns exactly what each member returns in a batch of one."""

    @pytest.mark.parametrize("families", [near_identity_families, random_families],
                             ids=["near-identity-n4-n6-n8", "random-n6"])
    def test_margin_lps(self, monkeypatch, families):
        batches = margin_lp_batches(monkeypatch, families())
        spread = 0
        for A, b, c in batches:
            pivots = assert_batch_matches_members(A, b, c)
            spread = max(spread, max(pivots) - min(pivots))
        # Members leave the batch at different pivot counts.
        assert spread > 0

    def test_members_switch_to_bland_mid_batch(self, monkeypatch):
        (A, b, c), = margin_lp_batches(monkeypatch, [random_families()[1]])
        dantzig = solve_batch(A, b, c).pivots.tolist()
        monkeypatch.setattr(lpsolve, "_DEGENERATE_RUN", 2)
        bland = assert_batch_matches_members(A, b, c)
        # Some members reach a degenerate run of 2 and change their path,
        # others never do and keep Dantzig's.
        changed = sum(p != q for p, q in zip(dantzig, bland))
        assert 0 < changed < len(bland)

    def test_mixed_statuses(self):
        # Shared b with a negative entry gives every member a phase 1;
        # random rows make some members infeasible, some unbounded and
        # some optimal, and each must leave the batch with its own status.
        rng = np.random.default_rng(131)
        A = rng.normal(size=(60, 3, 3))
        b = np.array([1.0, 2.0, -0.5])
        c = np.array([1.0, 0.5, -0.25])
        assert_batch_matches_members(A, b, c)
        batch = solve_batch(A, b, c)
        assert set(batch.status) == {OPTIMAL, INFEASIBLE, UNBOUNDED}
        stopped = batch.status != OPTIMAL
        assert np.isnan(batch.x[stopped]).all() and np.isnan(batch.duals[stopped]).all()
        assert not np.isnan(batch.x[~stopped]).any()

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="shape"):
            solve_batch(np.zeros((2, 3)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            solve_batch(np.zeros((1, 2, 3)), np.zeros(3), np.zeros(3))


def integer_families():
    """Small families with integer generators: exact zeros everywhere."""
    rng = np.random.default_rng(139)
    families = []
    for _ in range(60):
        n = int(rng.integers(2, 6))
        families.append([GeneratorSet(j, rng.integers(-2, 3, size=(int(rng.integers(1, 4)), n)))
                         for j in range(n)])
    return families


def integer_lps():
    """Batches of integer LPs; a negative entry of ``b`` gives them a phase 1."""
    rng = np.random.default_rng(137)
    lps = []
    for _ in range(40):
        n_rows, n_vars = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        lps.append((rng.integers(-2, 3, size=(16, n_rows, n_vars)).astype(float),
                    rng.integers(-2, 3, size=n_rows).astype(float),
                    rng.integers(-2, 3, size=n_vars).astype(float)))
    return lps


def test_rank_one_update_matches_np_multiply(monkeypatch):
    # einsum writes every zero product as 0.0 where np.multiply keeps its
    # sign; status, pivots, x and duals, signed zeros included, must not
    # show it.
    negative_zeros = 0
    for A, b, c in margin_lp_batches(monkeypatch, integer_families()) + integer_lps():
        got = solve_batch(A, b, c)
        with monkeypatch.context() as patch:
            patch.setattr(lpsolve, "_pivot", multiply_pivot)
            want = solve_batch(A, b, c)
        assert got.status.tolist() == want.status.tolist()
        assert got.pivots.tolist() == want.pivots.tolist()
        assert got.x.tobytes() == want.x.tobytes()
        assert got.duals.tobytes() == want.duals.tobytes()
        negative_zeros += np.count_nonzero((got.duals == 0.0) & np.signbit(got.duals))
    assert negative_zeros > 0
