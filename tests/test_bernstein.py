"""Tests for control-net evaluation, derivative control points, and cell lookup."""

import itertools

import numpy as np
import pytest

from invcert import (
    ControlNet,
    PatchGrid,
    eval_many,
)
from invcert.bernstein import _cell_groups, _derivative_points, _reduce_batch
from invcert.certify import _grid_columns

from helpers import identity_net, quad_net, random_net
from oracles import (
    derivative_net,
    direct_bb_eval,
    fd_jacobian,
    hull_membership,
    locate_patch,
    reference_reduce_batch,
)


def uniform_grid_2x2(net_for_cell):
    breaks = np.array([0.0, 0.5, 1.0])
    patches = {cell: net_for_cell(cell) for cell in itertools.product(range(2), range(2))}
    return PatchGrid((breaks, breaks), patches)


class TestEval:
    def test_identity_net_interior_point(self):
        np.testing.assert_allclose(
            eval_many(identity_net(2), [0.5, 0.25])[0], [0.5, 0.25], atol=0.0
        )

    def test_corner_interpolation_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_net(rng, int(rng.integers(1, 4)))
            top = eval_many(net, np.ones(net.dimension))[0]
            corner = net.points[tuple(p for p in net.degrees)]
            assert np.array_equal(top, corner)
            for vertex in itertools.product(*(range(2) for _ in range(net.dimension))):
                value = eval_many(net, np.array(vertex, dtype=float))[0]
                expected = net.points[tuple(v * p for v, p in zip(vertex, net.degrees))]
                assert np.array_equal(value, expected)

    def test_quad_net_center(self):
        # 0.25 * ((0,0) + (1,0) + (0,1) + (2,2)) = (0.75, 0.75)
        value = eval_many(quad_net(), [0.5, 0.5])[0]
        np.testing.assert_allclose(value, [0.75, 0.75], atol=1e-15)
        np.testing.assert_allclose(value, direct_bb_eval(quad_net(), [0.5, 0.5]), atol=1e-14)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            net = random_net(rng, int(rng.integers(1, 4)))
            xs = rng.random((10, net.dimension))
            got = eval_many(net, xs)
            want = np.array([direct_bb_eval(net, x) for x in xs])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_codomain_innermost_reduction_byte_for_byte(self):
        rng = np.random.default_rng(71)
        for n in (1, 2, 3):
            for count in (1, 2, 7, 300):
                for _ in range(8):
                    net = random_net(rng, n)
                    xs = rng.random((count, n))
                    got = eval_many(net, xs)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == reference_reduce_batch(net.points, xs).tobytes()

    def test_no_points(self):
        assert eval_many(quad_net(), np.empty((0, 2))).shape == (0, 2)

    def test_domain_violation(self):
        with pytest.raises(ValueError, match="outside the unit cube"):
            eval_many(identity_net(2), [1.5, 0.5])
        with pytest.raises(ValueError, match="outside the unit cube"):
            eval_many(identity_net(2), [-0.1, 0.5])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                eval_many(identity_net(2), [0.5, bad])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coordinates"):
            eval_many(identity_net(2), [0.5, 0.5, 0.5])


def lowered(net: ControlNet, axis: int) -> tuple[int, ...]:
    return tuple(d - 1 if k == axis else d for k, d in enumerate(net.degrees))


def column_generators(net: ControlNet, axis: int):
    """The runtime's generators of one column of a single net."""
    return _grid_columns(PatchGrid.single(net), [(0,) * net.dimension])[axis]


class TestDerivativePoints:
    def test_identity_axis0_is_constant(self):
        points = _derivative_points(identity_net(2), 0, 1.0)
        assert points.shape == (1, 2, 2)
        np.testing.assert_array_equal(points.reshape(-1, 2), [[1, 0], [1, 0]])

    def test_quad_axis0_first_differences(self):
        points = _derivative_points(quad_net(), 0, 1.0)
        np.testing.assert_array_equal(points.reshape(-1, 2), [[1, 0], [2, 1]])

    def test_univariate_square(self):
        # B-form of xi^2 has coefficients (0, 0, 1); derivative is 2*xi, B-form (0, 2).
        net = ControlNet((2,), np.array([[0.0], [0.0], [1.0]]))
        points = _derivative_points(net, 0, 1.0)
        np.testing.assert_array_equal(points.reshape(-1), [0.0, 2.0])
        for t in np.linspace(0.05, 0.95, 10):
            fd = (eval_many(net, [t + 1e-6])[0, 0] - eval_many(net, [t - 1e-6])[0, 0]) / 2e-6
            assert abs(_reduce_batch(points, np.array([[t]]))[0, 0] - fd) < 1e-8

    @pytest.mark.parametrize("width", [1.0, 0.25])
    def test_degree_zero_axis_gives_zeros(self, width):
        # The map is constant along the axis: the derivative is zero, as a
        # net of the original's shape.
        net = ControlNet((0, 1), np.arange(4.0).reshape(1, 2, 2) + 1.0)
        points = _derivative_points(net, 0, width)
        assert points.shape == net.points.shape
        assert points.tobytes() == np.zeros((1, 2, 2)).tobytes()
        assert derivative_net(net, 0).points.tobytes() == points.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            net = random_net(rng, n, min_degree=1)
            xs = 1e-4 + (1.0 - 2e-4) * rng.random((20, n))
            dvals = [_reduce_batch(_derivative_points(net, j, 1.0), xs) for j in range(n)]
            for x, *cols in zip(xs, *dvals):
                J = fd_jacobian(net, x, 1e-5)
                np.testing.assert_allclose(np.column_stack(cols), J, atol=1e-6)

    def test_mixed_partials_commute(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            net = random_net(rng, n, min_degree=1)
            axes = rng.choice(n, size=2, replace=False)
            ab = _derivative_points(ControlNet(lowered(net, axes[0]),
                                               _derivative_points(net, axes[0], 1.0)), axes[1], 1.0)
            ba = _derivative_points(ControlNet(lowered(net, axes[1]),
                                               _derivative_points(net, axes[1], 1.0)), axes[0], 1.0)
            np.testing.assert_allclose(ab, ba, atol=1e-12)

    def test_matches_reference_derivative_net(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            net = random_net(rng, int(rng.integers(1, 4)), min_degree=1)
            for axis in range(net.dimension):
                want = derivative_net(net, axis)
                assert _derivative_points(net, axis, 1.0).tobytes() == want.points.tobytes()


class TestColumnGenerators:
    def test_identity_axis1_dedup(self):
        gens = column_generators(identity_net(2), 1)
        np.testing.assert_array_equal(gens, [[0, 1]])

    def test_quad_columns(self):
        np.testing.assert_array_equal(
            column_generators(quad_net(), 0), [[1, 0], [2, 1]]
        )
        np.testing.assert_array_equal(
            column_generators(quad_net(), 1), [[0, 1], [1, 2]]
        )

    def test_constant_axis_gives_the_zero_generator(self):
        net = ControlNet((1, 0), np.arange(4.0).reshape(2, 1, 2))
        assert column_generators(net, 1).tolist() == [[0.0, 0.0]]
        assert column_generators(net, 0).tolist() == [[2.0, 2.0]]

    def test_hull_encloses_realized_columns(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            net = random_net(rng, 2, min_degree=1)
            for axis in range(2):
                gens = column_generators(net, axis)
                for x in rng.random((10, 2)):
                    J = fd_jacobian(net, 0.01 + 0.98 * x, 1e-5)
                    assert hull_membership(J[:, axis], gens, tol=1e-4)


class TestConvexHullProperty:
    def test_values_inside_control_point_hull(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            net = random_net(rng, int(rng.integers(1, 4)))
            hull_points = net.points.reshape(-1, net.dimension)
            for x in rng.random((100, net.dimension)):
                assert hull_membership(eval_many(net, x)[0], hull_points, tol=1e-8)


class TestCellGroups:
    """The runtime lookup of the cell, and the local coordinates, of each point."""

    @pytest.fixture
    def grid(self):
        return uniform_grid_2x2(lambda cell: identity_net(2))

    @staticmethod
    def locate(grid, x):
        ((cell, _, local),) = _cell_groups(grid, np.array([x], dtype=float))
        return cell, local[0]

    def test_interior_point(self, grid):
        cell, xi = self.locate(grid, [0.25, 0.75])
        assert cell == (0, 1)
        np.testing.assert_allclose(xi, [0.5, 0.5])

    def test_origin(self, grid):
        cell, xi = self.locate(grid, [0.0, 0.0])
        assert cell == (0, 0)
        np.testing.assert_array_equal(xi, [0.0, 0.0])

    def test_shared_corner_resolves_to_smallest_cell(self, grid):
        cell, xi = self.locate(grid, [0.5, 0.5])
        assert cell == (0, 0)
        np.testing.assert_array_equal(xi, [1.0, 1.0])

    def test_outside_cube_rejected(self, grid):
        with pytest.raises(ValueError, match="outside the unit cube"):
            eval_many(grid, [1.2, 0.0])

    def test_matches_reference_lookup(self):
        # Unequal cells; faces, corners and the cube's boundary included.
        breaks = (np.array([0.0, 0.3, 0.7, 1.0]), np.array([0.0, 0.55, 1.0]))
        grid = PatchGrid(breaks, {cell: identity_net(2)
                                  for cell in itertools.product(range(3), range(2))})
        rng = np.random.default_rng(43)
        pts = np.vstack([rng.random((200, 2)),
                         list(itertools.product(breaks[0], breaks[1]))])
        for cell, rows, local in _cell_groups(grid, pts):
            for x, xi in zip(pts[rows], local):
                want_cell, want_xi = locate_patch(grid, x)
                assert cell == want_cell
                assert xi.tobytes() == want_xi.tobytes()


class TestGridEvaluation:
    def test_piecewise_identity_evaluates_to_identity(self):
        from helpers import identity_grid_2x2

        grid = identity_grid_2x2()
        xs = np.random.default_rng(43).random((50, 2))
        np.testing.assert_allclose(eval_many(grid, xs), xs, atol=1e-14)

    def test_one_cell_grid_matches_net_byte_for_byte(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3):
            for _ in range(10):
                net = random_net(rng, n)
                grid = PatchGrid.single(net)
                xs = rng.random((20, n))
                xs[:2] = np.round(xs[:2])  # domain vertices
                assert eval_many(grid, xs).tobytes() == eval_many(net, xs).tobytes()
                assert eval_many(grid, xs[3]).tobytes() == eval_many(net, xs[3]).tobytes()


def test_grid_copies_the_callers_breakpoints():
    cuts = np.array([0.0, 0.5, 1.0])
    grid = PatchGrid((cuts,), {(0,): identity_net(1), (1,): identity_net(1)})
    cuts[1] = 0.25
    assert grid.breakpoints[0].tolist() == [0.0, 0.5, 1.0]
    assert not grid.breakpoints[0].flags.writeable


class TestValidation:
    def test_points_shape_must_match_degrees(self):
        with pytest.raises(ValueError, match="does not match degrees"):
            ControlNet((1, 1), np.zeros((2, 3, 2)))

    def test_points_must_be_finite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ControlNet((1, 1), bad)

    def test_grid_needs_every_cell(self):
        breaks = np.array([0.0, 0.5, 1.0])
        patches = {(0, 0): identity_net(2)}
        with pytest.raises(ValueError, match="one patch per cell"):
            PatchGrid((breaks, breaks), patches)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_breakpoints_must_be_finite(self, bad):
        net = ControlNet((1,), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="axis 0: breakpoints must be finite"):
            PatchGrid((np.array([0.0, bad, 1.0]),), {(0,): net, (1,): net})

    def test_grid_breakpoints_must_span_unit_interval(self):
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            PatchGrid((np.array([0.0, 0.5]),), {(0,): ControlNet((1,), np.zeros((2, 1)))})

    def test_net_needs_an_axis(self):
        with pytest.raises(ValueError, match="^a net needs at least one axis$"):
            ControlNet((), np.zeros((0,)))

    def test_degrees_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=r"^degrees must be nonnegative, got \(1, -1\)$"):
            ControlNet((1, -1), np.zeros((2, 0, 2)))

    def test_grid_axis_needs_two_breakpoints(self):
        net = ControlNet((1,), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="^axis 0: need at least two breakpoints$"):
            PatchGrid((np.array([0.0]),), {(0,): net})

    def test_grid_breakpoints_must_increase(self):
        net = ControlNet((1,), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="^axis 0: breakpoints must be strictly increasing$"):
            PatchGrid((np.array([0.0, 0.5, 0.5, 1.0]),), {(0,): net, (1,): net, (2,): net})

    def test_grid_needs_an_axis(self):
        with pytest.raises(ValueError, match="^a grid needs at least one axis$"):
            PatchGrid((), {})

    def test_patch_dimension_must_match_the_grid(self):
        breaks = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match=r"^patch \(0, 0\) has dimension 1, grid has 2$"):
            PatchGrid((breaks, breaks), {(0, 0): ControlNet((1,), np.zeros((2, 1)))})

    def test_cell_keys_become_tuples_of_python_ints(self):
        breaks = np.array([0.0, 0.5, 1.0])
        net = ControlNet((1,), np.zeros((2, 1)))
        grid = PatchGrid((breaks,), {(np.int64(0),): net, (np.int32(1),): net})
        assert list(grid.patches) == [(0,), (1,)]
        assert all(type(i) is int for cell in grid.patches for i in cell)

    @pytest.mark.parametrize("cells", [[(0.2, 0), (1.9, 0)], [(0, 0), ("1", 0)],
                                       [(0, False), (1, 0)], [(0, 0), (np.float64(1.0), 0)]])
    def test_cell_keys_must_be_integers(self, cells):
        # int() would truncate each of these to a valid cell key.
        breaks = (np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="^cell indices must be integers, got "):
            PatchGrid(breaks, {cell: identity_net(2) for cell in cells})

    @pytest.mark.parametrize("degrees", [(1.9, 1), (1, 1.0), (True, 1), ("1", 1)])
    def test_degrees_must_be_integers(self, degrees):
        with pytest.raises(ValueError, match="^degrees must be integers, got "):
            ControlNet(degrees, np.zeros((2, 2, 2)))

    def test_numpy_integer_degrees_become_python_ints(self):
        net = ControlNet((np.int64(1), np.uint8(1)), np.zeros((2, 2, 2)))
        assert net.degrees == (1, 1) and all(type(p) is int for p in net.degrees)
