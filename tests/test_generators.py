"""Column generators taken straight from the control points, and generators of extreme size.

The one-pass extraction must give the very generators, and so the very
reports, of the reference that builds a derivative net per cell and axis
(``tests/oracles.py``).
"""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from invcert import (
    ControlNet,
    DegenerateColumn,
    GeneratorSet,
    PatchGrid,
    certify_map,
    certify_matrix_family,
    grid_column_generators,
    normalize_generators,
)
from invcert.bernstein import _as_grid as as_grid, _derivative_points
from invcert.certify import (
    DEFAULT_DELTA,
    DEFAULT_THRESHOLD,
    PROVENANCE_MULTI,
    PROVENANCE_SINGLE,
    _certify_cells,
)

from oracles import (
    reference_column_generators,
    reference_grid_column_generators,
    reference_patch_column_generators,
)
from test_certify import result_bytes


def unit_square_points(degrees) -> np.ndarray:
    axes = [np.linspace(0.0, 1.0, p + 1) for p in degrees]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def bilinear_sweep_nets(count: int = 120) -> list[ControlNet]:
    """Identity corners plus uniform noise of amplitude 0 to 1.2."""
    rng = np.random.default_rng(10)
    base = unit_square_points((1, 1))
    return [ControlNet((1, 1), base + rng.uniform(-a, a, size=base.shape))
            for a in np.linspace(0.0, 1.2, count)]


def unequal_grids(count: int = 30) -> list[PatchGrid]:
    """2x2 grids of random bilinear patches with unequal cell widths."""
    rng = np.random.default_rng(11)
    grids = []
    for _ in range(count):
        breaks = [np.array([0.0, rng.uniform(0.15, 0.85), 1.0]) for _ in range(2)]
        patches = {cell: ControlNet((1, 1), rng.uniform(-1.0, 1.0, size=(2, 2, 2)))
                   for cell in itertools.product(range(2), range(2))}
        grids.append(PatchGrid(tuple(breaks), patches))
    return grids


def shared_generator_grids() -> list[PatchGrid]:
    """The identity and a shear split into cells: every cell has the same generators."""
    grids = []
    for cut in (0.5, 0.3, 0.71):
        for shear in (0.0, 0.4):
            breaks = np.array([0.0, cut, 1.0])
            patches = {}
            for cx, cy in itertools.product(range(2), range(2)):
                lo = np.array([breaks[cx], breaks[cy]])
                width = np.array([breaks[cx + 1] - lo[0], breaks[cy + 1] - lo[1]])
                points = lo + width * unit_square_points((1, 1))
                points = points + shear * points[..., ::-1]
                patches[(cx, cy)] = ControlNet((1, 1), points)
            grids.append(PatchGrid((breaks, breaks), patches))
    return grids


def mixed_degree_nets(count: int = 40) -> list[ControlNet]:
    """n=3 nets of degrees 1 to 3 per axis near the identity, and random ones."""
    rng = np.random.default_rng(12)
    nets = []
    for k in range(count):
        degrees = tuple(int(d) for d in rng.integers(1, 4, size=3))
        points = unit_square_points(degrees)
        noise = 0.1 if k % 2 else 1.0
        nets.append(ControlNet(degrees, points + rng.uniform(-noise, noise, size=points.shape)))
    return nets


def reference_report(map_like):
    """certify_map's report, from the reference generators."""
    grid = as_grid(map_like)
    provenance = PROVENANCE_SINGLE if len(grid.patches) == 1 else PROVENANCE_MULTI
    report = certify_matrix_family(reference_grid_column_generators(grid))
    return dataclasses.replace(report, provenance=provenance)


def assert_same_generators(got, want):
    assert [g.column for g in got] == [w.column for w in want]
    for g, w in zip(got, want):
        assert g.vectors.shape == w.vectors.shape
        assert g.vectors.tobytes() == w.vectors.tobytes()


def assert_same_report(got, want):
    assert got.verdict == want.verdict
    assert got.provenance == want.provenance
    assert got.generator_counts == want.generator_counts
    assert np.asarray(got.min_generator_norms).tobytes() == \
        np.asarray(want.min_generator_norms).tobytes()
    assert got.degenerate_column == want.degenerate_column
    assert [result_bytes(r) for r in got.pattern_results] == \
        [result_bytes(r) for r in want.pattern_results]


MAPS = {
    "bilinear-sweep": bilinear_sweep_nets(),
    "unequal-2x2-grids": unequal_grids(),
    "shared-generator-grids": shared_generator_grids(),
    "n3-mixed-degree": mixed_degree_nets(),
}


class TestOnePassExtraction:
    @pytest.mark.parametrize("name", list(MAPS))
    def test_generators_match_reference(self, name):
        for map_like in MAPS[name]:
            grid = as_grid(map_like)
            assert_same_generators(grid_column_generators(grid, grid.cells()),
                                   reference_grid_column_generators(grid))

    @pytest.mark.parametrize("name", list(MAPS))
    def test_reports_match_reference(self, name):
        for map_like in MAPS[name]:
            assert_same_report(certify_map(map_like), reference_report(map_like))

    @pytest.mark.parametrize("name", ["unequal-2x2-grids", "shared-generator-grids"])
    def test_per_patch_generators_match_reference(self, name):
        for grid in MAPS[name]:
            for cell in grid.cells():
                assert_same_generators(grid_column_generators(grid, [cell]),
                                       reference_patch_column_generators(grid, cell))

    def test_duplicates_across_cells_are_dropped_once(self):
        # Every cell of a split identity has the generators e_j / width_j
        # times its width: one generator per column survives.
        grid = shared_generator_grids()[0]
        assert [g.vectors.shape[0] for g in grid_column_generators(grid, grid.cells())] == [1, 1]

    @pytest.mark.parametrize("cells", [[], "outside", [[0, 0]]])
    def test_bad_cells_rejected(self, cells):
        grid = shared_generator_grids()[0]
        if cells == "outside":
            cells = [grid.shape]
        with pytest.raises(ValueError, match="cells must be a non-empty list of the grid's cells"):
            grid_column_generators(grid, cells)

    def test_provenance_follows_the_cell_count(self):
        grid = shared_generator_grids()[0]
        cell = grid.cells()[0]
        single = _certify_cells(grid, [cell], DEFAULT_DELTA, DEFAULT_THRESHOLD)
        multi = _certify_cells(grid, grid.cells(), DEFAULT_DELTA, DEFAULT_THRESHOLD)
        assert (single.provenance, multi.provenance) == (PROVENANCE_SINGLE, PROVENANCE_MULTI)

    def test_column_generators_match_reference(self):
        # One cell of width 1: the generators of the net itself.
        for net in mixed_degree_nets(10) + bilinear_sweep_nets(10):
            cell = (0,) * net.dimension
            assert_same_generators(
                grid_column_generators(PatchGrid.single(net), [cell]),
                [reference_column_generators(net, axis) for axis in range(net.dimension)])

    @pytest.mark.parametrize("degrees,axis", [((1, 0), 1), ((0, 2), 0), ((0, 0, 1), 0)])
    def test_degree_zero_axis(self, degrees, axis):
        # A degree-0 axis is a zero generator like any other: the reference
        # gives the same generators, and the report names the lowest such
        # column and lists no patterns.
        rng = np.random.default_rng(13)
        net = ControlNet(degrees, rng.uniform(size=tuple(p + 1 for p in degrees)
                                              + (len(degrees),)))
        grid = PatchGrid.single(net)
        got = grid_column_generators(grid, [(0,) * len(degrees)])
        assert_same_generators(got, reference_grid_column_generators(grid))
        assert got[axis].vectors.tolist() == [[0.0] * len(degrees)]
        report = certify_map(net)
        assert report.degenerate_column == axis
        assert report.pattern_results == ()
        assert report.generator_counts == tuple(g.vectors.shape[0] for g in got)
        assert report.provenance == PROVENANCE_SINGLE

    def test_degree_zero_axes_in_two_cells_name_the_lowest_column(self):
        # Cell (0, 0) is constant along axis 1 and cell (1, 0) along axis 0:
        # both columns touch the origin, and the report names column 0.
        rng = np.random.default_rng(14)
        grid = PatchGrid((np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])), {
            (0, 0): ControlNet((1, 0), rng.uniform(size=(2, 1, 2))),
            (1, 0): ControlNet((0, 1), rng.uniform(size=(1, 2, 2))),
        })
        report = certify_map(grid)
        assert report.degenerate_column == 0
        assert report.pattern_results == ()
        assert_same_report(report, reference_report(grid))

    def test_degree_zero_axis_in_a_later_cell(self):
        grid = unequal_grids(1)[0]
        patches = dict(grid.patches)
        patches[(1, 0)] = ControlNet((1, 0), np.zeros((2, 1, 2)) + [[[0.5, 0.5]], [[1.0, 0.5]]])
        grid = PatchGrid(grid.breakpoints, patches)
        report = certify_map(grid)
        assert report.degenerate_column == 1
        assert report.provenance == PROVENANCE_MULTI


class TestExtremeGenerators:
    def test_huge_linear_map_is_certified(self):
        net = ControlNet((1, 1), [[[0, 0], [0, 1e200]], [[1e200, 0], [1e200, 1e200]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = certify_map(net)
        assert report.certified
        assert report.min_generator_norms == (1e200, 1e200)

    def test_tiny_generator_clears_a_tiny_delta(self):
        columns = [GeneratorSet(0, [[1e-170, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
        report = certify_matrix_family(columns, delta=1e-200)
        assert report.degenerate_column is None
        assert report.certified
        assert report.min_generator_norms == (1e-170, 1.0)

    def test_only_extreme_rows_are_rescaled(self):
        vectors = np.array([[3.0, 4.0], [1e200, -1e200], [0.0, 1e-170], [0.1, 0.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            units, low = normalize_generators(GeneratorSet(0, vectors), delta=1e-300)
        plain = np.linalg.norm(vectors[[0, 3]], axis=1)
        assert units[[0, 3]].tobytes() == (vectors[[0, 3]] / plain[:, None]).tobytes()
        np.testing.assert_allclose(units[1], [2 ** -0.5, -(2 ** -0.5)], rtol=1e-15)
        assert units[2].tolist() == [0.0, 1.0]
        assert low == 1e-170

    def test_norm_beyond_float_range_raises(self):
        gens = GeneratorSet(0, [[1.0, 0.0], [1.5e308, -1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exceeds the float range"):
                normalize_generators(gens)
            with pytest.raises(ValueError, match="exceeds the float range"):
                certify_matrix_family([gens, GeneratorSet(1, [[0.0, 1.0]])])

    def test_zero_row_stays_degenerate(self):
        with pytest.raises(DegenerateColumn):
            normalize_generators(GeneratorSet(0, [[1e200, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("map_like", [
        ControlNet((1, 1), [[[-1e308, 0.0], [-1e308, 1.0]], [[1e308, 0.0], [1e308, 1.0]]]),
        ControlNet((2, 1), [[[0.0, 0.0], [0.0, 1.0]], [[1e308, 0.0], [1e308, 1.0]],
                            [[1e308, 0.0], [1e308, 1.0]]]),
        # Finite differences that only the division by a cell width of 0.25 overflows.
        PatchGrid((np.array([0.0, 0.25, 1.0]), np.array([0.0, 1.0])), {
            (0, 0): ControlNet((1, 1), [[[0.0, 0.0], [0.0, 1.0]], [[1e308, 0.0], [1e308, 1.0]]]),
            (1, 0): ControlNet((1, 1), [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]),
        }),
    ], ids=["difference", "degree-factor", "cell-width"])
    def test_derivative_overflow_is_named(self, map_like):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^derivative control points overflow$"):
                certify_map(map_like)

    def test_derivative_points_overflow_is_named(self):
        net = ControlNet((1, 1), [[[-1e308, 0.0], [-1e308, 1.0]], [[1e308, 0.0], [1e308, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^derivative control points overflow$"):
                _derivative_points(net, 0)
            with pytest.raises(ValueError, match="^derivative control points overflow$"):
                grid_column_generators(PatchGrid.single(net), [(0, 0)])
        assert _derivative_points(net, 1).reshape(-1, 2).tolist() == [[0.0, 1.0]] * 2
