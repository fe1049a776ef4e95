"""Tests for the sampling, angle, finite-difference, and hull oracles."""

import numpy as np
import pytest

from invcert import (
    ControlNet,
    certificate_lp,
    normalize_generators,
    sampled_injectivity,
)
from invcert.cones import GeneratorSet
from invcert.oracle import COLLISION_TOL, SEPARATION_FLOOR

from helpers import collapsed_net, folded_net, identity_net, quad_net, rotation_net
from oracles import acute_2d, fd_jacobian, hull_membership


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
