"""One stacked pass per certification call.

``certify_matrix_family``, ``certify_map`` and the per-patch reports all
normalise the stacked generators of every column at once and certify
them through one core. These tests pin that the stack gives each column
the bits of normalising it alone, that the judge gives each pattern the
bits of judging it alone, and that the grid path gives the report of
``certify_matrix_family`` on the reference generators of
``tests/oracles.py``.
"""

import itertools
import re

import numpy as np
import pytest

from invcert import (
    ControlNet,
    GeneratorSet,
    PatchGrid,
    certify_map,
    certify_matrix_family,
)
from invcert import certify, lpsolve
from invcert.certify import DEFAULT_DELTA, DEFAULT_THRESHOLD, _certify_cells, _judge, _unit_columns

from helpers import near_identity_columns
from oracles import margin_lp_inputs, reference_grid_column_generators
from test_certify import result_bytes


def report_fields(report) -> tuple:
    """Every field of a report but its provenance, floats as raw bytes."""
    norms = report.min_generator_norms
    return (report.dimension, report.verdict, report.generator_counts,
            None if norms is None else (type(norms), [type(v) for v in norms],
                                        np.asarray(norms).tobytes()),
            report.degenerate_column, report.delta, report.threshold,
            [result_bytes(r) for r in report.pattern_results])


def outcome(call, *args):
    """The report's fields, or the type and message of the error raised."""
    try:
        return report_fields(call(*args))
    except ValueError as exc:
        return (type(exc), str(exc))


def random_grid(rng, shape, degrees) -> PatchGrid:
    breaks = [np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, size=s - 1)), [1.0]])
              for s in shape]
    n = len(shape)
    patches = {}
    for cell in itertools.product(*(range(s) for s in shape)):
        points = np.stack(np.meshgrid(*(np.linspace(0.0, 1.0, p + 1) for p in degrees),
                                      indexing="ij"), axis=-1)
        patches[cell] = ControlNet(degrees, points + rng.uniform(-0.2, 0.2, size=points.shape))
    assert all(net.dimension == n for net in patches.values())
    return PatchGrid(tuple(breaks), patches)


GOLDEN = (5 ** 0.5 - 1) / 2


def direct_path_maps() -> dict:
    rng = np.random.default_rng(28)
    square = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    constant_axis = ControlNet((1, 0), [[[0.0, 0.0]], [[1.0, 0.2]]])
    mixed_zero = random_grid(rng, (2, 1), (1, 1))
    mixed_zero = PatchGrid(mixed_zero.breakpoints, {
        (0, 0): mixed_zero.patches[(0, 0)],
        (1, 0): ControlNet((1, 0), [[[0.5, 0.0]], [[1.0, 0.1]]]),
    })
    return {
        "single-nets": [ControlNet((1, 1), square + rng.uniform(-a, a, size=(2, 2, 2)))
                        for a in np.linspace(0.0, 1.2, 12)]
                       + [random_grid(rng, (1, 1), (2, 3)).patches[(0, 0)]],
        "2x2-grids": [random_grid(rng, (2, 2), (1, 1)) for _ in range(4)],
        "3d-grids": [random_grid(rng, (2, 1, 2), (1, 2, 1)),
                     random_grid(rng, (1, 2, 1), (2, 1, 1))],
        "degree-0-axes": [constant_axis, mixed_zero],
        "huge-and-tiny": [ControlNet((1, 1), square * 1e200), ControlNet((1, 1), square * 1e-200)],
        "overflowing": [
            # A derivative control point beyond the float range.
            ControlNet((1, 1), [[[-1e308, 0.0], [-1e308, 1.0]], [[1e308, 0.0], [1e308, 1.0]]]),
            # Finite derivative points whose norm is beyond it.
            ControlNet((1, 1), [[[0.0, 0.0], [0.0, 1.0]], [[1.5e308, 1.5e308], [1.5e308, 1.0]]]),
        ],
        # The benchmark's bilinear-sweep maps: noise amplitudes over 0 to 1.2
        # by the golden-ratio sequence. Most are decided in closed form, the
        # rest by LPs that certify them or reject them with zero margins;
        # the last net's first column has a zero generator.
        "bilinear-sweep": [ControlNet((1, 1), square + rng.uniform(-a, a, size=(2, 2, 2)))
                           for k in range(300) for a in [1.2 * (k * GOLDEN % 1.0)]]
                          + [ControlNet((1, 1), [[[0.0, 0.0], [0.0, 1.0]],
                                                 [[0.0, 0.0], [1.0, 1.0]]])],
    }


class TestStackedNormalisation:
    def test_overflowing_column_before_a_degenerate_one_raises(self):
        columns = [GeneratorSet(0, [[1.5e308, -1.5e308]]), GeneratorSet(1, [[0.0, 0.0]])]
        message = "column 0 has a generator whose norm exceeds the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _unit_columns(np.array([[1.5e308, -1.5e308], [0.0, 0.0]]), (0, 1), DEFAULT_DELTA)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            certify_matrix_family(columns)

    def test_degenerate_column_before_an_overflowing_one_is_reported(self):
        columns = [GeneratorSet(0, [[1.0, 0.0], [0.0, 0.0]]),
                   GeneratorSet(1, [[1.5e308, -1.5e308]])]
        report = certify_matrix_family(columns)
        assert report.degenerate_column == 0
        assert report.pattern_results == () and report.min_generator_norms is None

    def test_degenerate_and_overflowing_in_one_column_is_degenerate(self):
        columns = [GeneratorSet(0, [[1.0, 0.0]]),
                   GeneratorSet(1, [[1.5e308, -1.5e308], [0.0, 0.0]])]
        assert certify_matrix_family(columns).degenerate_column == 1

    @pytest.mark.parametrize("name", ["near-identity", "gaussian", "extreme-rows"])
    def test_min_norms_are_those_of_each_column_alone(self, name):
        rng = np.random.default_rng(5)
        if name == "near-identity":
            columns = near_identity_columns(rng, 6)
        elif name == "gaussian":
            columns = [GeneratorSet(j, rng.normal(size=(7 + j, 4))) for j in range(4)]
        else:
            columns = [GeneratorSet(0, [[3.0, 4.0, 0.0], [1e200, -1e200, 0.0]]),
                       GeneratorSet(1, [[0.0, 1e-170, 0.0], [0.1, 0.7, 0.2]]),
                       GeneratorSet(2, [[1e-300, 0.0, 1e-300]])]
        delta = 1e-310 if name == "extreme-rows" else DEFAULT_DELTA
        report = certify_matrix_family(columns, delta=delta)
        want = [_unit_columns(col.vectors, (0,), delta)[1][0] for col in columns]
        assert all(type(v) is float for v in report.min_generator_norms)
        assert np.array(report.min_generator_norms).tobytes() == np.array(want).tobytes()


def judge_candidates(columns) -> tuple:
    """``W``, norms, signs and the closed-form and LP candidates the certifier judges.

    Each candidate is ``(a_raw, t)`` on the box scale: the closed form's
    ``(A / box).T``, a transposed view as the certifier passes it, and
    the LP's C-contiguous directions.
    """
    W, signs = margin_lp_inputs(columns)
    units = np.split(W, np.cumsum([len(col.vectors) for col in columns])[:-1])
    A = certify._closed_form(units, certify._sign_patterns(len(columns))[1])
    box = np.abs(A).max(axis=0)
    a, t, _ = lpsolve.margin_lps(W, signs)
    return (W, np.linalg.norm(W, axis=1), signs,
            [((A / box).T, ((W @ A).T * signs).min(axis=1) / box), (a, t)])


def judged_rows(judged) -> list:
    return [(bool(ok), a.tobytes(), e.tobytes()) for ok, a, e in zip(*judged, strict=True)]


class TestJudgeRows:
    @pytest.mark.parametrize("n, seed, noise", [(6, 1, 0.05), (6, 1, 0.15), (8, 3, 0.15)])
    def test_each_row_gets_the_bits_of_being_judged_alone(self, n, seed, noise):
        # The live rows of a candidate stack are judged four ways: all live
        # at once, with a row that is not live mixed in, one at a time, and
        # with a_raw in either layout. Every way gives each row the same bytes.
        W, norms, signs, candidates = judge_candidates(
            near_identity_columns(np.random.default_rng(seed), n, noise=noise))
        for a_raw, t in candidates:
            live = t > DEFAULT_THRESHOLD
            assert live.any()
            a, t, s = np.asfortranarray(a_raw[live]), t[live], signs[live]
            assert not a.flags.c_contiguous
            want = judged_rows(_judge(W, norms, s, DEFAULT_THRESHOLD, np.ascontiguousarray(a), t))
            assert judged_rows(_judge(W, norms, s, DEFAULT_THRESHOLD, a, t)) == want
            alone = [judged_rows(_judge(W, norms, s[k:k + 1], DEFAULT_THRESHOLD,
                                        a[k:k + 1], t[k:k + 1]))[0] for k in range(len(t))]
            assert alone == want
            k = len(t) // 2
            mixed = judged_rows(_judge(W, norms, np.insert(s, k, s[0], axis=0), DEFAULT_THRESHOLD,
                                       np.insert(a, k, a[0], axis=0), np.insert(t, k, 0.0)))
            assert mixed.pop(k) == (False, bytes(8 * n), bytes(8))
            assert mixed == want


class TestDirectGridPath:
    # The reference cannot form the first overflowing net's generators; the
    # errors of both overflowing nets are pinned by the test after this one.
    @pytest.mark.parametrize("name", [name for name in direct_path_maps() if name != "overflowing"])
    def test_reports_match_the_reference_generators(self, name):
        # certify_map and every per-patch report equal the report of the
        # reference generator sets, bit for bit, apart from the provenance.
        for map_like in direct_path_maps()[name]:
            grid = map_like if isinstance(map_like, PatchGrid) else PatchGrid.single(map_like)
            reference = outcome(lambda cells: certify_matrix_family(
                reference_grid_column_generators(grid, cells)), grid.cells())
            assert outcome(certify_map, map_like) == reference
            for cell in grid.cells():
                assert outcome(_certify_cells, grid, [cell], DEFAULT_DELTA, DEFAULT_THRESHOLD) \
                    == outcome(lambda cells: certify_matrix_family(
                        reference_grid_column_generators(grid, cells)), [cell])

    def test_overflowing_nets_name_their_error(self):
        errors = [outcome(certify_map, net)[1] for net in direct_path_maps()["overflowing"]]
        assert errors == ["derivative control points overflow",
                          "column 0 has a generator whose norm exceeds the float range"]

    @pytest.mark.parametrize("degrees", [(1,), (1, 1), (2, 0, 1)])
    def test_single_is_the_checked_one_cell_grid(self, degrees):
        n = len(degrees)
        points = np.random.default_rng(n).normal(size=tuple(p + 1 for p in degrees) + (n,))
        net = ControlNet(degrees, points)
        got, want = PatchGrid.single(net), PatchGrid(((0, 1),) * n, {(0,) * n: net})
        assert type(got) is PatchGrid and got.patches == want.patches
        assert (got.dimension, got.shape, got.cells()) == \
            (want.dimension, want.shape, want.cells())
        assert len(got.breakpoints) == len(want.breakpoints) == n
        for g, w in zip(got.breakpoints, want.breakpoints):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
            assert not g.flags.writeable and not w.flags.writeable
        with pytest.raises(AttributeError):
            got.patches = {}


class TestSignPatternCache:
    def test_large_enumerations_are_not_kept(self):
        # An n=14 enumeration holds about 3 MB; the certification builds it
        # without the cache, which neither grows nor is even asked.
        before = certify._enumerate_patterns.cache_info()
        report = certify_matrix_family(near_identity_columns(np.random.default_rng(2), 14))
        after = certify._enumerate_patterns.cache_info()
        assert len(report.pattern_results) == 2 ** 13
        assert (after.currsize, after.misses, after.hits) == \
            (before.currsize, before.misses, before.hits)

    def test_small_enumerations_are_shared_and_large_ones_equal(self):
        assert certify._sign_patterns(12)[0] is certify._sign_patterns(12)[0]
        first, second = certify._sign_patterns(13), certify._sign_patterns(13)
        assert first[0] is not second[0]
        assert first[0] == second[0] and first[1].tobytes() == second[1].tobytes()
        assert not second[1].flags.writeable
