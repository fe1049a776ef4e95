"""Tests for generator normalization, sign patterns, and certificates."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcert import DEFAULT_DELTA, GeneratorSet
from invcert.certify import SignPattern, _sign_patterns, _unit_columns

from helpers import apply_sign_pattern
from oracles import verify_certificate

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


class TestNormalize:
    def test_rescales_to_unit_norm(self):
        units, lows, degenerate = _unit_columns(np.array([[3.0, 4.0]]), (0,), 1e-12)
        np.testing.assert_allclose(units, [[0.6, 0.8]])
        assert lows.tolist() == [5.0] and degenerate is None

    def test_zero_vector_is_degenerate(self):
        assert _unit_columns(np.zeros((1, 2)), (0,), 1e-12) == (None, None, 0)

    def test_below_threshold_is_degenerate(self):
        raw = np.array([[0.0, 1.0], [1.0, 0.0], [1e-15, 0.0]])
        assert _unit_columns(raw, (0, 1), 1e-12) == (None, None, 1)

    def test_norm_equal_to_delta_is_kept(self):
        units, lows, degenerate = _unit_columns(np.array([[1e-6, 0.0]]), (0,), 1e-6)
        np.testing.assert_allclose(units, [[1.0, 0.0]])
        assert lows.tolist() == [pytest.approx(1e-6)] and degenerate is None


class TestGeneratorSet:
    # The only check between library input and the solver on the way
    # through certify_matrix_family.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            GeneratorSet(1, [[1.0, 0.0], [0.5, value]])

    @pytest.mark.parametrize("vectors, shape", [
        ([], "(0,)"), (np.zeros((0, 2)), "(0, 2)"), ([[]], "(1, 0)"),
        (np.ones((2, 2, 2)), "(2, 2, 2)"),
    ], ids=["empty-list", "no-rows", "no-columns", "three-axes"])
    def test_shape_must_be_two_dimensional_and_non_empty(self, vectors, shape):
        with pytest.raises(ValueError, match=rf"at least one vector .*got shape {re.escape(shape)}$"):
            GeneratorSet(0, vectors)

    def test_one_vector_is_one_generator(self):
        assert GeneratorSet(0, [3.0, 4.0]).vectors.tolist() == [[3.0, 4.0]]


class TestSignPatterns:
    def test_n1(self):
        assert [p.signs for p in _sign_patterns(1)[0]] == [(1,)]

    def test_n2(self):
        assert [p.signs for p in _sign_patterns(2)[0]] == [(1, 1), (1, -1)]

    def test_n3_binary_counting_order(self):
        assert [p.signs for p in _sign_patterns(3)[0]] == [
            (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)
        ]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_and_uniqueness(self, n):
        patterns = _sign_patterns(n)[0]
        assert len(patterns) == 2 ** (n - 1)
        assert len({p.signs for p in patterns}) == len(patterns)
        assert all(p.signs[0] == 1 for p in patterns)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_sign_matrix_rows_are_the_patterns(self, n):
        patterns, matrix = _sign_patterns(n)
        assert matrix.tolist() == [list(p.signs) for p in patterns]
        assert all(type(s) is int for p in patterns for s in p.signs)
        assert matrix.dtype == float and not matrix.flags.writeable
        assert _sign_patterns(n)[1] is matrix


def test_generator_set_copies_the_callers_array():
    v = np.array([[1.0, 0.0]])
    held = GeneratorSet(0, v).vectors
    v[0, 0] = 2.0
    assert held.ravel().tolist() == [1.0, 0.0] and not held.flags.writeable


class TestApplySignPattern:
    def test_identity_columns_mixed_signs(self):
        cols = [GeneratorSet(0, [[1.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
        signed = apply_sign_pattern(cols, SignPattern((1, -1)))
        np.testing.assert_allclose(signed, [[1, 0], [0, -1]])

    def test_identity_columns_plus_plus(self):
        cols = [GeneratorSet(0, [[1.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
        signed = apply_sign_pattern(cols, SignPattern((1, 1)))
        np.testing.assert_allclose(signed, [[1, 0], [0, 1]])

    def test_quad_columns_normalization(self):
        cols = [GeneratorSet(0, [[1.0, 0.0], [2.0, 1.0]]),
                GeneratorSet(1, [[0.0, 1.0], [1.0, 2.0]])]
        signed = apply_sign_pattern(cols, SignPattern((1, -1)))
        expected = np.array([
            [1, 0], [2 / SQRT5, 1 / SQRT5], [0, -1], [-1 / SQRT5, -2 / SQRT5]
        ])
        np.testing.assert_allclose(signed, expected, atol=1e-15)

    def test_degenerate_column_propagates(self):
        cols = [GeneratorSet(0, [[0.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
        with pytest.raises(ValueError, match="touches the origin"):
            apply_sign_pattern(cols, SignPattern((1, 1)))


class TestVerifyCertificate:
    def test_accepts_margin_below_min_dot(self):
        a = np.array([1.0, 1.0]) / SQRT2
        assert verify_certificate(a, 0.7, [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_margin_above_min_dot(self):
        a = np.array([1.0, 1.0]) / SQRT2
        assert not verify_certificate(a, 0.71, [[1.0, 0.0], [0.0, 1.0]])

    def test_quad_mixed_pattern_margin(self):
        # min normalized dot is 1/sqrt(10) ~ 0.3162
        a = np.array([1.0, -1.0]) / SQRT2
        gens = [[1, 0], [2 / SQRT5, 1 / SQRT5], [0, -1], [-1 / SQRT5, -2 / SQRT5]]
        assert verify_certificate(a, 0.31, gens)
        assert not verify_certificate(a, 0.32, gens)

    def test_huge_generators_do_not_overflow(self):
        # |(1e200, 1e199)| overflows as a sum of squares; the suite turns the
        # overflow warning into an error, and an inf norm would fail the check.
        assert verify_certificate([1.0, 0.0], 0.99, [[1e200, 1e199]])
        assert not verify_certificate([1.0, 0.0], 0.996, [[1e200, 1e199]])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            verify_certificate([0.0, 0.0], 0.1, [[1.0, 0.0]])

    def test_extends_to_nonnegative_combinations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = int(rng.integers(1, 6)), int(rng.integers(2, 4))
            gens = rng.normal(size=(m, n))
            gens = gens[np.linalg.norm(gens, axis=1) > 1e-3]
            if gens.shape[0] == 0:
                continue
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            eps = float((gens @ a / np.linalg.norm(gens, axis=1)).min())
            if eps <= 0:
                continue
            assert verify_certificate(a, eps - 1e-12, gens)
            lam = rng.random((1000, gens.shape[0]))
            xs = lam @ gens
            margins = xs @ a - (eps - 1e-12) * np.linalg.norm(xs, axis=1)
            assert margins.min() >= -1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sign_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        gens = rng.normal(size=(int(rng.integers(1, 6)), 2))
        a = rng.normal(size=2)
        if np.linalg.norm(a) == 0:
            return
        eps = float(rng.random())
        assert verify_certificate(a, eps, gens) == verify_certificate(-a, eps, -gens)


class TestScalingInvariance:
    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_positive_scaling_leaves_units_unchanged(self, lam, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(int(rng.integers(1, 6)), 3))
        vectors = vectors[np.linalg.norm(vectors, axis=1) > 1e-6]
        if vectors.shape[0] == 0:
            return
        base = _unit_columns(vectors, (0,), DEFAULT_DELTA)[0]
        scaled = _unit_columns(lam * vectors, (0,), DEFAULT_DELTA)[0]
        np.testing.assert_allclose(scaled, base, atol=1e-12)
