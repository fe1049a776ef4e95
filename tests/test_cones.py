"""Tests for generator normalization, sign patterns, and certificates."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcert import (
    DegenerateColumn,
    GeneratorSet,
    normalize_generators,
)
from invcert.certify import SignPattern, _check_certificates, _sign_patterns

from helpers import apply_sign_pattern
from oracles import verify_certificate

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)


class TestNormalize:
    def test_rescales_to_unit_norm(self):
        units, min_norm = normalize_generators(GeneratorSet(0, [[3.0, 4.0]]), delta=1e-12)
        np.testing.assert_allclose(units, [[0.6, 0.8]])
        assert min_norm == 5.0

    def test_zero_vector_is_degenerate(self):
        with pytest.raises(DegenerateColumn) as err:
            normalize_generators(GeneratorSet(0, [[0.0, 0.0]]), delta=1e-12)
        assert err.value.column == 0

    def test_below_threshold_is_degenerate(self):
        gens = GeneratorSet(1, [[1.0, 0.0], [1e-15, 0.0]])
        with pytest.raises(DegenerateColumn) as err:
            normalize_generators(gens, delta=1e-12)
        assert err.value.column == 1

    def test_norm_equal_to_delta_is_kept(self):
        units, min_norm = normalize_generators(GeneratorSet(0, [[1e-6, 0.0]]), delta=1e-6)
        np.testing.assert_allclose(units, [[1.0, 0.0]])
        assert min_norm == pytest.approx(1e-6)


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


class TestCheckCertificates:
    # The certifier checks a report's certificates once, as one stack.
    BAD = [
        ([[0.6, 0.8]], 0.5, "certificate vector must be one-dimensional"),
        (np.array([0.6, 0.8]) * (1.0 + 1e-9), 0.5,
         "certificate vector must have unit Euclidean norm"),
        ([0.6, 0.8], 0.0, "certificate margin must be positive, got 0.0"),
        ([0.6, 0.8], -1.0, "certificate margin must be positive, got -1.0"),
        ([0.6, 0.8], np.nan, "certificate margin must be positive, got nan"),
        ([0.6, 0.8], np.inf, "certificate margin must be positive, got inf"),
        ([np.nan, 0.0], 0.5, "certificate vector must have unit Euclidean norm"),
        ([0.0, np.nan], 0.5, "certificate vector must have unit Euclidean norm"),
    ]

    @pytest.mark.parametrize("a, epsilon, message", BAD,
                             ids=["two-dimensional", "norm-off-by-1e-9", "zero-margin",
                                  "negative-margin", "nan-margin", "inf-margin",
                                  "nan-first-coordinate", "nan-second-coordinate"])
    def test_bad_certificate_is_rejected(self, a, epsilon, message):
        # The bad row sits between two good ones; a 2-D vector makes every
        # row of its stack 2-D.
        a = np.asarray(a, dtype=float)
        good = np.array([[1.0, 0.0], [0.0, -1.0]]).reshape((2,) + a.shape)
        a, epsilon = np.stack([good[0], a, good[1]]), np.array([0.25, epsilon, 0.75])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_certificates(a, epsilon)

    @pytest.mark.parametrize("size", [0, 3])
    def test_good_stack_passes(self, size):
        a = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])[:size]
        _check_certificates(a, np.array([0.25, 1e-300, 1.0])[:size])


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
        with pytest.raises(DegenerateColumn):
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
        base, _ = normalize_generators(GeneratorSet(0, vectors))
        scaled, _ = normalize_generators(GeneratorSet(0, lam * vectors))
        np.testing.assert_allclose(scaled, base, atol=1e-12)
