"""Tests for the sampling, angle, finite-difference, and hull oracles."""

import numpy as np
import pytest

from invcert import (
    ControlNet,
    eval_many,
    normalize_generators,
    sampled_injectivity,
)
from invcert import oracle
from invcert.cones import GeneratorSet
from invcert.oracle import COLLISION_TOL, MAX_TRIALS, SEPARATION_FLOOR

from helpers import (
    certificate_lp,
    collapsed_net,
    folded_net,
    identity_grid_2x2,
    identity_net,
    perturbed_identity_net,
    quad_net,
    random_grid_2x2,
    random_net,
    rotation_net,
)
from oracles import (
    acute_2d,
    fd_jacobian,
    hull_membership,
    reference_candidate_runs,
    reference_sampled_injectivity,
)


def same_report(a, b) -> bool:
    """Equal ``CollisionReport``s, the witness arrays compared byte for byte."""
    if (a.collided, a.trials, a.seed) != (b.collided, b.trials, b.seed):
        return False
    if a.witness is None or b.witness is None:
        return a.witness is None and b.witness is None
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a.witness, b.witness))


def reference_corpus():
    """(map, trials, seed) runs: bilinear-sweep-like nets, grids, n = 3 nets,
    folding maps at few trials, fewer trials than candidates, and one run
    above the evaluation block size."""
    rng = np.random.default_rng(909)
    runs = []
    for k in range(60):
        amplitude = 1.2 * ((k * 0.6180339887) % 1.0)
        runs.append((perturbed_identity_net(rng, amplitude), 2000, k))
    runs += [(random_grid_2x2(rng), 500, k) for k in range(20)]
    runs.append((identity_grid_2x2(), 1000, 1))
    runs += [(random_net(rng, 3, max_degree=2, min_degree=1), 300, k) for k in range(15)]
    runs += [(folded_net(), 50, k) for k in range(16)]
    runs += [(folded_net(), 1, 0), (folded_net(), 3, 2), (folded_net(), 7, 4),
             (collapsed_net(), 2, 1), (identity_net(2), 5, 0), (quad_net(), 6, 3)]
    runs.append((perturbed_identity_net(rng, 0.3), 40_000, 5))
    return runs


class TestSampledInjectivity:
    def test_identity_finds_no_collision(self):
        report = sampled_injectivity(identity_net(2), 1000, seed=1)
        assert not report.collided
        assert report.trials == 1000
        assert report.seed == 1

    def test_collapsed_map_collides(self):
        report = sampled_injectivity(collapsed_net(), 1000, seed=2)
        assert report.collided
        u, v, fu, fv = report.witness
        assert np.linalg.norm(fu - fv) <= COLLISION_TOL
        assert np.linalg.norm(u - v) >= SEPARATION_FLOOR

    def test_folded_quad_collides(self):
        report = sampled_injectivity(folded_net(), 10_000, seed=3)
        assert report.collided
        u, v, fu, fv = report.witness
        assert np.linalg.norm(fu - fv) <= COLLISION_TOL
        assert np.linalg.norm(u - v) >= SEPARATION_FLOOR

    def test_rotations_alone_are_injective(self):
        for angle in (0.0, 2 * np.pi / 3):
            report = sampled_injectivity(rotation_net(angle), 2000, seed=4)
            assert not report.collided

    def test_deterministic_for_fixed_seed(self):
        first = sampled_injectivity(folded_net(), 2000, seed=5)
        second = sampled_injectivity(folded_net(), 2000, seed=5)
        assert first.collided == second.collided
        if first.collided:
            for a, b in zip(first.witness, second.witness):
                assert np.array_equal(a, b)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            sampled_injectivity(identity_net(2), 0)

    def test_trials_above_the_cap_are_rejected_before_sampling(self):
        for trials in (MAX_TRIALS + 1, 10**12):
            with pytest.raises(ValueError, match=f"between 1 and {MAX_TRIALS}"):
                sampled_injectivity(identity_net(2), trials)

    @pytest.mark.parametrize("trials", [2.5, 1000.0, True, "10", None])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            sampled_injectivity(identity_net(2), trials)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sampled_injectivity(identity_net(2), 10, seed=seed)

    def test_numpy_integers_are_accepted(self):
        report = sampled_injectivity(identity_net(2), np.int64(20), seed=np.uint8(3))
        assert not report.collided


class TestLockstepMatchesSequential:
    """Lockstep refinement against the one-candidate-at-a-time reference."""

    def test_reports_are_byte_identical(self):
        runs = reference_corpus()
        collided = 0
        for map_like, trials, seed in runs:
            report = sampled_injectivity(map_like, trials, seed)
            assert same_report(report, reference_sampled_injectivity(map_like, trials, seed)), \
                (trials, seed)
            collided += report.collided
        assert 0 < collided < len(runs)

    def test_corpus_has_collisions_that_finish_out_of_order(self):
        # In lockstep these candidates stop in a different order than the
        # sequential loop visits them.
        later_collides_sooner = earlier_runs_longer = 0
        for map_like, trials, seed in reference_corpus():
            runs = reference_candidate_runs(map_like, trials, seed)
            hits = [i for i, (collided, _) in enumerate(runs) if collided]
            if not hits:
                continue
            first, steps = hits[0], runs[hits[0]][1]
            later_collides_sooner += any(runs[j][1] < steps for j in hits[1:])
            earlier_runs_longer += any(runs[i][1] > steps for i in range(first))
        assert later_collides_sooner >= 3
        assert earlier_runs_longer >= 3

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        for map_like, seed in ((folded_net(), 3), (random_grid_2x2(np.random.default_rng(4)), 1)):
            assert same_report(sampled_injectivity(map_like, 100, seed),
                               reference_sampled_injectivity(map_like, 100, seed))

    def test_candidates_are_the_first_of_a_stable_argsort(self):
        rng = np.random.default_rng(17)
        for size in list(range(1, 20)) + [100, 1000]:
            values = rng.integers(0, 4, size=size).astype(float)
            values[rng.random(size) < 0.1] = np.nan
            values[rng.random(size) < 0.1] = np.inf
            for k in (1, 8):
                assert np.array_equal(oracle._smallest(values, k),
                                      np.argsort(values, kind="stable")[:k])

    def test_row_norms_match_numpy_byte_for_byte(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 4):
            d = rng.normal(size=(5000, n)) * 10.0 ** rng.uniform(-5, 5, size=(5000, 1))
            assert oracle._row_norms(d).tobytes() == np.linalg.norm(d, axis=1).tobytes()
            one_by_one = np.array([np.linalg.norm(row) for row in d])
            assert oracle._dot_norms(d).tobytes() == one_by_one.tobytes()

    def test_stacked_steps_match_one_system_at_a_time(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            M = rng.normal(size=(64, n, 2 * n)) * 10.0 ** rng.uniform(-4, 2, size=(64, 1, 1))
            r = rng.normal(size=(64, n))
            M[3] = 0.0  # zero system: damping 1e-12 and a zero step
            steps, solved = oracle._gauss_newton_steps(M, r)
            assert solved.all()
            for k in range(64):
                Mk = np.array(M[k])
                MMt = Mk @ Mk.T
                damping = 1e-12 * max(1.0, float(np.trace(MMt)))
                alone = -Mk.T @ np.linalg.solve(MMt + damping * np.eye(n), r[k])
                assert steps[k].tobytes() == alone.tobytes()

    def test_a_failed_solve_stops_only_its_own_candidate(self, monkeypatch):
        # Damping keeps the systems nonsingular, so the failure is simulated:
        # a NaN right-hand side marks a system the solver rejects.
        real_solve = np.linalg.solve

        def solve(a, b):
            if np.isnan(b).any():
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        rng = np.random.default_rng(31)
        M, r = rng.normal(size=(5, 2, 4)), rng.normal(size=(5, 2))
        expected, _ = oracle._gauss_newton_steps(M, r)
        r[2] = np.nan
        monkeypatch.setattr(np.linalg, "solve", solve)
        steps, solved = oracle._gauss_newton_steps(M, r)
        assert solved.tolist() == [True, True, False, True, True]
        assert steps[solved].tobytes() == expected[solved].tobytes()

    def test_all_evaluation_goes_through_the_module_global(self, monkeypatch):
        calls = []

        def counting(map_like, xs):
            calls.append(len(xs))
            return eval_many(map_like, xs)

        monkeypatch.setattr(oracle, "eval_many", counting)
        report = sampled_injectivity(quad_net(), 10_000, seed=0)
        assert not report.collided
        # Two sample blocks, one call to start refining, then one line search
        # per lockstep round; Jacobians reduce derivative control points
        # without going through eval_many.
        assert calls[:2] == [10_000, 10_000]
        assert len(calls) <= 60


class TestAcute2d:
    def test_quarter_turn_is_acute(self):
        assert acute_2d([[1.0, 0.0], [0.0, 1.0]])

    def test_opposite_rays_are_not(self):
        assert not acute_2d([[1.0, 0.0], [-1.0, 0.0]])

    def test_three_spread_directions_are_not(self):
        # Angles 0, 135, 270 degrees: largest gap 135 < 180.
        assert not acute_2d([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])

    def test_single_generator_is_acute(self):
        assert acute_2d([[0.3, -0.2]])

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            acute_2d([[0.0, 0.0], [1.0, 0.0]])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            acute_2d([[1.0, 0.0, 0.0]])

    def test_agrees_with_lp_margin(self):
        rng = np.random.default_rng(59)
        disagreements = 0
        for _ in range(100):
            m = int(rng.integers(1, 7))
            gens = rng.normal(size=(m, 2))
            gens = gens[np.linalg.norm(gens, axis=1) > 1e-6]
            if gens.shape[0] == 0:
                continue
            units, _ = normalize_generators(GeneratorSet(0, gens))
            _, t = certificate_lp(units)
            strict = t > 1e-7
            if strict != acute_2d(gens) and not (1e-8 <= t <= 1e-6):
                disagreements += 1
        assert disagreements == 0


class TestFdJacobian:
    def test_identity(self):
        J = fd_jacobian(identity_net(2), [0.5, 0.5], 1e-5)
        np.testing.assert_allclose(J, np.eye(2), atol=1e-10)

    def test_quad_near_origin(self):
        J = fd_jacobian(quad_net(), [1e-3, 1e-3], 1e-4)
        np.testing.assert_allclose(J, np.eye(2), atol=1e-2)

    def test_univariate_square(self):
        net = ControlNet((2,), np.array([[0.0], [0.0], [1.0]]))
        J = fd_jacobian(net, [0.5], 1e-5)
        assert J[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            fd_jacobian(identity_net(2), [0.0, 0.5], 1e-5)


class TestHullMembership:
    SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

    def test_interior_point(self):
        assert hull_membership([0.5, 0.5], self.SQUARE)

    def test_exterior_point(self):
        assert not hull_membership([2.0, 2.0], self.SQUARE)

    def test_quad_center_value(self):
        # eval at (0.5, 0.5) is the equal-weight combination of the corners.
        corners = quad_net().points.reshape(-1, 2)
        assert hull_membership([0.75, 0.75], corners)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            hull_membership([0.5, 0.5, 0.5], self.SQUARE)

    def test_vertex_is_member(self):
        assert hull_membership([1.0, 1.0], self.SQUARE)
