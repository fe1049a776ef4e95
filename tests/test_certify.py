"""Tests for the sign-pattern certification pipeline."""

import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from invcert import (
    ControlNet,
    GeneratorSet,
    PatchGrid,
    certify_map,
    certify_matrix_family,
    eval_many,
    sampled_injectivity,
)
from invcert import certify, lpsolve
from invcert.cli import parse_input, run
from invcert.certify import dedup_exact

from helpers import (
    apply_sign_pattern,
    certificate_lp,
    collapsed_net,
    folded_net,
    identity_grid_2x2,
    identity_net,
    integer_families,
    near_identity_columns,
    perturbed_identity_net,
    quad_net,
    random_grid_2x2,
    record_batches,
    rotation_net,
)
from oracles import (
    lp_margins,
    lp_pattern_results,
    margin_lp_inputs,
    reference_column_generators,
    reference_margin_lps,
    reference_pattern_result,
    sweep_unit_margin,
    verify_certificate,
)
from test_oracle import same_report

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)
SQRT10 = np.sqrt(10.0)

IDENTITY_COLUMNS = [GeneratorSet(0, [[1.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
QUAD_COLUMNS = [GeneratorSet(0, [[1.0, 0.0], [2.0, 1.0]]),
                GeneratorSet(1, [[0.0, 1.0], [1.0, 2.0]])]


def gaussian_columns(rng, n, m=20):
    """Matrix family whose columns have m standard normal generators each."""
    return [GeneratorSet(j, rng.normal(size=(m, n))) for j in range(n)]


def pattern_by_signs(report, signs):
    for res in report.pattern_results:
        if res.pattern.signs == signs:
            return res
    raise AssertionError(f"pattern {signs} missing from report")


class TestCertificateLp:
    def test_axis_generators_forced_corner(self):
        a, t = certificate_lp([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_pair_has_zero_margin(self):
        w = np.array([1.0, 1.0]) / SQRT2
        a, t = certificate_lp([w, -w])
        assert abs(t) <= 1e-12

    def test_quad_mixed_pattern_matches_sweep_oracle(self):
        signed = apply_sign_pattern(QUAD_COLUMNS, certify.SignPattern((1, -1)))
        a, t = certificate_lp(signed)
        assert t == pytest.approx(1.0 / SQRT5, abs=1e-9)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-9)
        eps = t / np.linalg.norm(a)
        assert eps == pytest.approx(1.0 / SQRT10, abs=1e-9)
        sweep_eps, _ = sweep_unit_margin(signed, n_angles=10**5)
        assert eps == pytest.approx(sweep_eps, abs=1e-4)


class TestStrictVFamily:
    def test_identity_columns(self):
        report = certify_matrix_family(IDENTITY_COLUMNS)
        assert report.certified
        assert report.generator_counts == (1, 1)
        for res in report.pattern_results:
            assert res.status == certify.STATUS_STRICT
            assert res.certificate.epsilon == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_collapsed_columns_fail_mixed_pattern(self):
        cols = [GeneratorSet(0, [[1.0, 1.0]]), GeneratorSet(1, [[1.0, 1.0]])]
        report = certify_matrix_family(cols)
        assert not report.certified
        res = pattern_by_signs(report, (1, -1))
        assert res.status == certify.STATUS_NOT_STRICT
        assert abs(res.lp_margin) <= 1e-12
        assert res.witness is not None
        assert res.witness.residual_norm <= 1e-9
        np.testing.assert_allclose(res.witness.weights.sum(), 1.0, atol=1e-12)

    def test_quad_columns(self):
        report = certify_matrix_family(QUAD_COLUMNS)
        assert report.certified
        plus = pattern_by_signs(report, (1, 1))
        mixed = pattern_by_signs(report, (1, -1))
        assert mixed.certificate.epsilon == pytest.approx(1.0 / SQRT10, abs=1e-9)
        assert plus.certificate.epsilon >= mixed.certificate.epsilon

    def test_degenerate_column_reported_not_raised(self):
        cols = [GeneratorSet(0, [[0.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]])]
        report = certify_matrix_family(cols)
        assert not report.certified
        assert report.degenerate_column == 0
        assert report.pattern_results == ()
        assert report.generator_counts == (1, 1)
        assert report.min_generator_norms is None

    def test_degenerate_wide_family_lists_no_patterns(self):
        # A zero column rules out every one of the 2^15 patterns at once:
        # none is enumerated, and an empty pattern list is not a strict one.
        cols = [GeneratorSet(j, np.eye(16)[[j, (j + 1) % 16]]) for j in range(16)]
        cols[9] = GeneratorSet(9, [[0.0] * 16, np.eye(16)[9]])
        report = certify_matrix_family(cols)
        assert report.pattern_results == ()
        assert report.certified is False
        assert report.verdict == certify.VERDICT_NOT_CERTIFIED
        assert report.degenerate_column == 9
        assert report.generator_counts == (2,) * 16

    def test_marginal_pattern_gets_note(self):
        # Two nearly antipodal columns leave a positive but sub-threshold margin.
        tilt = 1e-9
        cols = [GeneratorSet(0, [[1.0, tilt]]), GeneratorSet(1, [[1.0, -tilt]])]
        report = certify_matrix_family(cols)
        res = pattern_by_signs(report, (1, -1))
        assert res.status == certify.STATUS_NOT_STRICT
        assert 0.0 < res.lp_margin <= certify.DEFAULT_THRESHOLD
        assert res.note == "numerically marginal"

    @pytest.mark.parametrize("columns, rejected, residual", [
        (gaussian_columns(np.random.default_rng(7), 6), 32, 1e-12),
        # The closest combination of this pair is (0, 1e-10) itself.
        ([GeneratorSet(0, [[1.0, 1e-10]]), GeneratorSet(1, [[1.0, -1e-10]])], 1, 1e-10),
    ], ids=["gaussian-n6", "tilt-1e-10-pair"])
    def test_rejected_patterns_report_exact_zero_margins(self, columns, rejected, residual):
        # A cancelling combination makes the optimal margin zero; round-off in
        # the LP must not turn it into a tiny signed number or a marginal note.
        report = certify_matrix_family(columns)
        failing = [r for r in report.pattern_results
                   if r.status == certify.STATUS_NOT_STRICT]
        assert len(failing) == rejected
        for res in failing:
            assert res.lp_margin == 0.0
            assert res.note is None
            weights = res.witness.weights
            assert np.all(weights >= 0.0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert res.witness.residual_norm <= residual

    def test_claim_above_verified_margin_is_still_strict(self, monkeypatch):
        # Round-off can leave the LP's claimed margin slightly above what the
        # generators meet; the pattern is certified at the verified margin.
        # Without the closed-form direction every pattern goes to the LP.
        monkeypatch.setattr(certify, "_closed_form", lambda *args: None)
        exact = lpsolve.margin_lps

        def inflated(units, signs):
            a, t, weights = exact(units, signs)
            return a, t * (1.0 + 2e-9), weights

        monkeypatch.setattr(lpsolve, "margin_lps", inflated)
        report = certify_matrix_family(QUAD_COLUMNS)
        assert report.certified
        for res in report.pattern_results:
            signed = apply_sign_pattern(QUAD_COLUMNS, res.pattern)
            verified = np.min(signed @ res.certificate.a / np.linalg.norm(signed, axis=1))
            assert res.certificate.epsilon <= verified

    def test_certificate_failing_post_hoc_check_is_rejected(self, monkeypatch):
        # Tilt the (+, +) direction until it has a negative product with the
        # generator (1, 0): no margin shaved off the LP's can then verify.
        # Without the closed-form direction every pattern goes to the LP.
        monkeypatch.setattr(certify, "_closed_form", lambda *args: None)
        exact = lpsolve.margin_lps
        passed = {}

        def tilted(units, signs):
            a, t, weights = exact(units, signs)
            a[0] = [-0.1, 1.0]
            passed["t"] = float(t[0])
            return a, t, weights

        monkeypatch.setattr(lpsolve, "margin_lps", tilted)
        report = certify_matrix_family(QUAD_COLUMNS)
        res = pattern_by_signs(report, (1, 1))
        assert not report.certified
        assert res.status == certify.STATUS_NOT_STRICT
        assert res.note == "certificate failed post-hoc verification"
        assert res.certificate is None
        assert res.lp_margin == passed["t"] > certify.DEFAULT_THRESHOLD
        assert res.witness is not None
        assert res.witness.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert pattern_by_signs(report, (1, -1)).status == certify.STATUS_STRICT

    def test_closed_form_direction_failing_post_hoc_check_goes_to_the_lp(self, monkeypatch):
        # The same tilt on the closed-form direction of (+, +), with a claim
        # above the threshold, fails the same re-check; the pattern then gets
        # its LP, which certifies it as if there were no closed form. The
        # closed form's own claim follows its direction, so the tilt is made
        # where the judge receives both, in its first call.
        exact = certify._judge
        calls = []

        def tilted(W, norms, signs, threshold, a, t):
            calls.append(len(t))
            if len(calls) == 1:
                assert t[0] > threshold
                a[0] = [-0.1, 1.0]
            return exact(W, norms, signs, threshold, a, t)

        monkeypatch.setattr(certify, "_judge", tilted)
        report = certify_matrix_family(QUAD_COLUMNS)
        assert report.certified
        res = pattern_by_signs(report, (1, 1))
        assert res.lp_margin is not None
        assert result_bytes(res) == result_bytes(lp_pattern_results(QUAD_COLUMNS)[0])
        assert pattern_by_signs(report, (1, -1)).lp_margin is None
        # One closed-form call over both patterns, then one LP call for (+, +).
        assert calls == [2, 1]

    def test_certificates_reverify_with_shaved_margin(self):
        report = certify_matrix_family(QUAD_COLUMNS)
        for res in report.pattern_results:
            signed = apply_sign_pattern(QUAD_COLUMNS, res.pattern)
            assert verify_certificate(res.certificate.a,
                                      res.certificate.epsilon - 1e-9, signed)


class TestCertifyMap:
    def test_identity_grid(self):
        report = certify_map(identity_grid_2x2())
        assert report.certified
        assert report.provenance == "multi-patch"
        for res in report.pattern_results:
            assert res.certificate.epsilon == pytest.approx(1.0 / SQRT2, abs=1e-9)

    def test_single_patch_quad(self):
        report = certify_map(quad_net())
        assert report.certified
        assert report.provenance == "single-patch"

    def test_folded_quad_rejected_and_noninjective(self):
        report = certify_map(folded_net())
        assert not report.certified
        failing = [r for r in report.pattern_results
                   if r.status == certify.STATUS_NOT_STRICT]
        assert failing
        signed = apply_sign_pattern(
            certify.grid_column_generators(PatchGrid.single(folded_net()), [(0, 0)]),
            failing[0].pattern,
        )
        sweep_eps, _ = sweep_unit_margin(signed, n_angles=10**5)
        assert sweep_eps <= 1e-9

    def test_collapsed_map_rejected(self):
        report = certify_map(collapsed_net())
        assert not report.certified
        res = pattern_by_signs(report, (1, -1))
        assert abs(res.lp_margin) <= 1e-9

    def test_constant_axis_is_degenerate(self):
        net = ControlNet((1, 0), np.array([[[0.0, 0.0]], [[1.0, 0.0]]]))
        report = certify_map(net)
        assert not report.certified
        assert report.degenerate_column == 1
        assert report.pattern_results == ()
        assert report.generator_counts == (1, 1)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            certify_map([[1.0, 0.0], [0.0, 1.0]])


ONE_CELL_NETS = {
    "identity": identity_net(2),
    "identity-n3": identity_net(3),
    "quad": quad_net(),
    "folded": folded_net(),
    "collapsed": collapsed_net(),
    "rotation": rotation_net(0.3),
    "degree-0-axis": ControlNet((1, 0), np.array([[[0.0, 0.0]], [[1.0, 0.5]]])),
}


class TestOneConversion:
    """A bare net and its one-cell grid are the same map, bit for bit."""

    @pytest.mark.parametrize("net", ONE_CELL_NETS.values(), ids=ONE_CELL_NETS.keys())
    def test_net_and_its_single_grid_agree(self, net):
        grid = PatchGrid.single(net)
        xs = np.vstack([np.random.default_rng(3).random((40, net.dimension)),
                        np.zeros(net.dimension), np.ones(net.dimension)])
        assert eval_many(net, xs).tobytes() == eval_many(grid, xs).tobytes()
        got, want = certify_map(net), certify_map(grid)
        assert got.provenance == want.provenance == certify.PROVENANCE_SINGLE
        assert (got.verdict, got.degenerate_column, got.generator_counts) == \
            (want.verdict, want.degenerate_column, want.generator_counts)
        assert np.asarray(got.min_generator_norms).tobytes() == \
            np.asarray(want.min_generator_norms).tobytes()
        assert [result_bytes(r) for r in got.pattern_results] == \
            [result_bytes(r) for r in want.pattern_results]
        assert same_report(sampled_injectivity(net, 500, seed=2),
                           sampled_injectivity(grid, 500, seed=2))

    @pytest.mark.parametrize("entry", [
        lambda m: eval_many(m, [0.5, 0.5]),
        certify_map,
        lambda m: sampled_injectivity(m, 10),
    ], ids=["eval_many", "certify_map", "sampled_injectivity"])
    @pytest.mark.parametrize("subject", [[[1.0, 0.0], [0.0, 1.0]], None, "net"],
                             ids=["list", "none", "str"])
    def test_other_types_raise_the_same_error(self, entry, subject):
        message = f"expected ControlNet or PatchGrid, got {type(subject)!r}"
        with pytest.raises(TypeError) as err:
            entry(subject)
        assert str(err.value) == message


class TestCertifyMatrixFamily:
    def test_identity_matrix(self):
        report = certify_matrix_family(IDENTITY_COLUMNS)
        assert report.certified
        assert report.provenance == "matrix-family"

    def test_two_rotations_not_certified(self):
        c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
        cols = [GeneratorSet(0, [[1.0, 0.0], [c, s]]),
                GeneratorSet(1, [[0.0, 1.0], [-s, c]])]
        report = certify_matrix_family(cols)
        assert not report.certified

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["delta", "threshold"])
    @pytest.mark.parametrize("entry, subject", [
        (certify_matrix_family, QUAD_COLUMNS),
        (certify_map, quad_net()),
        # Checked before the zero column makes the report degenerate.
        (certify_map, ControlNet((1, 0), np.array([[[0.0, 0.0]], [[1.0, 0.0]]]))),
    ], ids=["matrix-family", "map", "constant-axis-map"])
    def test_tolerances_must_be_finite_and_positive(self, entry, subject, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            entry(subject, **{name: value})

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            certify_matrix_family([])

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError, match="at least one vector"):
            certify_matrix_family([GeneratorSet(0, np.zeros((0, 2))), IDENTITY_COLUMNS[1]])

    # Nothing non-finite or empty may reach the margin LPs: GeneratorSet
    # rejects what is not finite, and the family check what has the wrong
    # number of coordinates.
    @pytest.mark.parametrize("generators", [
        [[np.nan, 1.0]], [[np.inf, 1.0]], [[1.0, 0.0], [0.0, -np.inf]], [], [[]],
    ], ids=["nan", "inf", "minus-inf", "empty", "no-coordinates"])
    def test_nonfinite_or_empty_input_rejected(self, generators):
        with pytest.raises(ValueError):
            certify_matrix_family([GeneratorSet(0, generators), IDENTITY_COLUMNS[1]])

    def test_mislabelled_column_rejected(self):
        # A set's label names the Jacobian column it encloses, and reports
        # name a degenerate column by it, so it must be the set's position.
        cols = [GeneratorSet(0, [[1.0, 0.0]]), GeneratorSet(0, [[0.0, 0.0]])]
        with pytest.raises(ValueError, match="position 1 is labelled column 0"):
            certify_matrix_family(cols)
        with pytest.raises(ValueError, match="position 0 is labelled column 1"):
            certify_matrix_family([GeneratorSet(1, [[1.0, 0.0]]), IDENTITY_COLUMNS[1]])
        relabelled = [GeneratorSet(j, col.vectors) for j, col in enumerate(cols)]
        assert certify_matrix_family(relabelled).degenerate_column == 1

    def test_arity_mismatch_rejected(self):
        cols = [GeneratorSet(0, [[1.0, 0.0]]), GeneratorSet(1, [[0.0, 1.0]]),
                GeneratorSet(2, [[0.0, 0.0, 1.0]])]
        with pytest.raises(ValueError, match="length"):
            certify_matrix_family(cols)


class TestProperties:
    def test_soundness_on_random_bilinear_maps(self):
        # Reduced-scale version of the acceptance sweep.
        from invcert import sampled_injectivity

        rng = np.random.default_rng(211)
        certified = 0
        for k in range(100):
            net = perturbed_identity_net(rng, amplitude=1.2 * k / 99)
            report = certify_map(net)
            if report.certified:
                certified += 1
                collision = sampled_injectivity(net, 2000, seed=k)
                assert not collision.collided, f"certified map collided (case {k})"
        assert certified > 10

    def test_convex_hull_insensitivity(self):
        rng = np.random.default_rng(223)
        for _ in range(20):
            cols = [GeneratorSet(j, rng.uniform(-1, 1, size=(3, 2)) + 0.0)
                    for j in range(2)]
            try:
                base = certify_matrix_family(cols)
            except ValueError:
                continue
            if base.degenerate_column is not None:
                continue
            j = int(rng.integers(0, 2))
            lam = rng.random(cols[j].vectors.shape[0])
            lam /= lam.sum()
            extra = lam @ cols[j].vectors
            augmented = list(cols)
            augmented[j] = GeneratorSet(j, np.vstack([cols[j].vectors, extra]))
            for b, a in zip(lp_margins(cols), lp_margins(augmented), strict=True):
                assert a == pytest.approx(b, abs=1e-9)

    def test_decomposition_consistency(self):
        rng = np.random.default_rng(227)
        for _ in range(10):
            grid = random_grid_2x2(rng)
            via_map = certify_map(grid)
            columns = manual_aggregation(grid)
            via_family = certify_matrix_family(columns)
            assert via_map.verdict == via_family.verdict
            for a, b in zip(via_map.pattern_results, via_family.pattern_results):
                assert a.status == b.status
                if a.lp_margin is not None:
                    assert abs(a.lp_margin - b.lp_margin) <= 1e-12

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(229)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            cols = [GeneratorSet(j, rng.uniform(0.2, 1.0, size=(2, 2))) for j in range(2)]
            base = certify_matrix_family(cols)
            scaled_cols = [GeneratorSet(0, lam * cols[0].vectors), cols[1]]
            scaled = certify_matrix_family(scaled_cols)
            assert base.verdict == scaled.verdict
            for b, s in zip(base.pattern_results, scaled.pattern_results):
                assert b.lp_margin == pytest.approx(s.lp_margin, abs=1e-12)
                if b.certificate is not None:
                    assert b.certificate.epsilon == pytest.approx(
                        s.certificate.epsilon, abs=1e-12
                    )

    def test_margin_monotone_under_new_generators(self):
        rng = np.random.default_rng(233)
        for _ in range(20):
            cols = [GeneratorSet(j, rng.normal(size=(2, 2))) for j in range(2)]
            norms_ok = all(np.linalg.norm(c.vectors, axis=1).min() > 1e-6 for c in cols)
            if not norms_ok:
                continue
            base = lp_margins(cols)
            j = int(rng.integers(0, 2))
            extra = rng.normal(size=2)
            if np.linalg.norm(extra) < 1e-6:
                continue
            grown = list(cols)
            grown[j] = GeneratorSet(j, np.vstack([cols[j].vectors, extra]))
            for b, a in zip(base, lp_margins(grown), strict=True):
                assert a <= b + 1e-9


def manual_aggregation(grid):
    """Aggregate per-patch column generators by hand, mirroring certify_map."""
    n = grid.dimension
    per_column = [[] for _ in range(n)]
    for cell in sorted(grid.patches):
        widths = grid.cell_widths(cell)
        net = grid.patches[cell]
        for j in range(n):
            per_column[j].append(reference_column_generators(net, j).vectors / widths[j])
    return [GeneratorSet(j, dedup_exact(np.vstack(per_column[j]))) for j in range(n)]


def reference_families():
    rng = np.random.default_rng(1)
    near_identity = [near_identity_columns(rng, n) for n in (4, 6, 8)]
    tilt = 1e-9
    marginal = [GeneratorSet(0, [[1.0, tilt]]), GeneratorSet(1, [[1.0, -tilt]])]
    return near_identity + [gaussian_columns(np.random.default_rng(7), 6), QUAD_COLUMNS, marginal]


def result_bytes(res) -> tuple:
    """Every field of a pattern result, floats and arrays as raw bytes."""
    def raw(x):
        return None if x is None else np.asarray(x, dtype=float).tobytes()

    cert, wit = res.certificate, res.witness
    return (res.pattern, res.status, res.note, raw(res.lp_margin),
            None if cert is None else (raw(cert.a), raw(cert.epsilon)),
            None if wit is None else (raw(wit.weights), raw(wit.combination),
                                      raw(wit.residual_norm)))


REFERENCE_FAMILIES = dict(zip(["near-identity-n4", "near-identity-n6", "near-identity-n8",
                               "gaussian-n6", "quad", "marginal-pair"], reference_families()))
# The closed-form direction decides no pattern of these, so every one goes to the LP.
LP_ONLY_FAMILIES = ["gaussian-n6"]


@pytest.mark.parametrize("columns", [REFERENCE_FAMILIES[k] for k in LP_ONLY_FAMILIES],
                         ids=LP_ONLY_FAMILIES)
def test_pattern_results_match_reference(monkeypatch, columns):
    # Each pattern judged as one signed generator matrix, re-checked through
    # verify_certificate, gives the very bytes of the shared-norm path.
    seen = []
    exact = lpsolve.margin_lps

    def recording(units, signs):
        optimum = exact(units, signs)
        seen.append((units, signs, optimum))
        return optimum

    monkeypatch.setattr(lpsolve, "margin_lps", recording)
    report = certify_matrix_family(columns)
    (W, signs, (a, t, weights)), = seen
    for k, res in enumerate(report.pattern_results):
        want = reference_pattern_result(res.pattern, W * signs[k, :, None],
                                        certify.DEFAULT_THRESHOLD, a[k], float(t[k]), weights[k])
        assert result_bytes(res) == result_bytes(want)


def record_calls(monkeypatch, *functions) -> dict:
    """Record the arguments and result of every call of each ``(module, name)`` function."""
    seen = {name: [] for _, name in functions}
    for module, name in functions:
        def recording(*args, exact=getattr(module, name), name=name):
            seen[name].append((args, exact(*args)))
            return seen[name][-1][1]
        monkeypatch.setattr(module, name, recording)
    return seen


# The closed-form direction decides some or all patterns of these; the
# eye + 0.15 normal families leave 13 of 32 and 97 of 128 to the LP.
SCREENED_FAMILIES = {k: v for k, v in REFERENCE_FAMILIES.items() if k not in LP_ONLY_FAMILIES}
SCREENED_FAMILIES.update(
    (f"eye-0.15-n{n}-seed{seed}", near_identity_columns(np.random.default_rng(seed), n, noise=0.15))
    for n, seed in [(6, 1), (8, 3)])


@pytest.mark.parametrize("columns", SCREENED_FAMILIES.values(), ids=SCREENED_FAMILIES.keys())
def test_screened_and_lp_patterns_match_reference(monkeypatch, columns):
    # Each pattern judged as one signed generator matrix, re-checked through
    # verify_certificate, gives the very bytes of the stacked judge, from the
    # closed-form direction for a screened pattern and from its LP otherwise.
    # A screened pattern reports no LP margin; the LPs are exactly those of
    # the other patterns, in pattern order, and a family the screen decides
    # entirely builds no LP batch.
    seen = record_calls(monkeypatch, (certify, "_closed_form"), (certify, "_judge"),
                        (lpsolve, "margin_lps"))
    report = certify_matrix_family(columns)
    W, signs = margin_lp_inputs(columns)
    todo = [k for k, res in enumerate(report.pattern_results) if res.lp_margin is not None]
    # The judge sees the closed-form chunks, all patterns in order, then
    # one chunk per LP batch; every chunk has at most CHUNK patterns.
    batches = seen["margin_lps"]
    judged = seen["_judge"]
    closed = judged[:len(judged) - len(batches)]
    assert len(closed) == -(-len(signs) // certify.CHUNK)
    assert len(batches) == -(-len(todo) // certify.CHUNK)
    assert all(len(args[1]) <= certify.CHUNK for args, _ in batches)
    assert all(len(args[2]) <= certify.CHUNK for args, _ in judged)
    assert np.concatenate([args[2] for args, _ in closed]).tobytes() == signs.tobytes()
    if todo:
        asked = np.concatenate([args[1] for args, _ in batches])
        assert asked.tobytes() == signs[todo].tobytes()
        a, t, weights = (np.concatenate(part) for part in zip(*(out for _, out in batches)))
    a_box, t_box = (np.concatenate(part) for part in zip(*(args[4:] for args, _ in closed)))
    # The closed-form claims are a = C^-T s on the box scale and its least
    # product with a signed unit generator.
    (_, A), = seen["_closed_form"]
    box = np.abs(A).max(axis=0)
    assert a_box.tobytes() == (A / box).T.tobytes()
    np.testing.assert_allclose(t_box, ((W @ A).T * signs).min(axis=1) / box, rtol=0, atol=1e-15)
    for k, res in enumerate(report.pattern_results):
        signed = W * signs[k, :, None]
        if res.lp_margin is None:
            want = replace(reference_pattern_result(res.pattern, signed, certify.DEFAULT_THRESHOLD,
                                                    a_box[k], float(t_box[k]), None),
                           lp_margin=None)
            assert want.status == certify.STATUS_STRICT
        else:
            j = todo.index(k)
            want = reference_pattern_result(res.pattern, signed, certify.DEFAULT_THRESHOLD,
                                            a[j], float(t[j]), weights[j])
        assert result_bytes(res) == result_bytes(want)
    assert len(todo) < len(report.pattern_results)


def readme_reports() -> dict:
    """Report and raw column generators of each JSON document in the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    out = {}
    for k, text in enumerate(re.findall(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S)):
        doc = parse_input(text)
        if doc.mode == "matrix-family":
            columns = doc.payload
        else:
            grid = PatchGrid.single(doc.payload) if isinstance(doc.payload, ControlNet) \
                else doc.payload
            columns = certify.grid_column_generators(grid, grid.cells())
        out[f"readme-{k}-{doc.mode}"] = (run(doc), columns)
    return out


def screen_families() -> dict:
    rng = np.random.default_rng(4)
    out = {f"near-identity-n{n}": near_identity_columns(rng, n) for n in range(4, 13)}
    out.update((f"eye-0.15-n{n}-seed{seed}",
                near_identity_columns(np.random.default_rng(seed), n, noise=0.15))
               for n in (4, 6, 8) for seed in (1, 2))
    return out


@pytest.mark.parametrize("name", list(screen_families()) + ["readme"])
def test_screened_certificates_pass_the_raw_recheck(name):
    # A screened certificate is checked through the same margin_holds as an
    # LP one; it must also hold on the raw signed generators, whatever their
    # lengths.
    if name == "readme":
        cases = readme_reports().values()
        assert len(cases) == 3
    else:
        columns = screen_families()[name]
        cases = [(certify_matrix_family(columns), columns)]
    screened = 0
    for report, columns in cases:
        for res in report.pattern_results:
            if res.lp_margin is None:
                screened += 1
                assert res.status == certify.STATUS_STRICT
                raw = np.vstack([s * col.vectors for s, col in zip(res.pattern.signs, columns)])
                # epsilon is the least margin on the unit generators, which the
                # raw ones reproduce to a few ulps.
                assert verify_certificate(res.certificate.a,
                                          res.certificate.epsilon * (1.0 - 1e-12), raw)
    assert screened > 0


@pytest.mark.parametrize("n", [6, 8, 10])
def test_each_lp_is_solved_as_if_alone(n):
    # A pattern's LP results are the bits of its LP solved alone, whatever
    # other patterns share its batch: every singleton, and random subsets
    # that span batch boundaries, read the rows of the full call byte for
    # byte.
    rng = np.random.default_rng(n)
    W, signs = margin_lp_inputs(near_identity_columns(rng, n, noise=0.15))
    full = lpsolve.margin_lps(W, signs)
    subsets = [[k] for k in range(len(signs))]
    subsets += [np.sort(rng.choice(len(signs), size=size, replace=False))
                for size in (2, certify.CHUNK - 1, certify.CHUNK + 3, len(signs) // 2)
                if size <= len(signs)]
    if len(signs) > certify.CHUNK:
        # Subsets whose rows sit in different chunks of certify's LP loop.
        assert sum(s[0] // certify.CHUNK != s[-1] // certify.CHUNK for s in subsets) >= 3
    for subset in subsets:
        part = lpsolve.margin_lps(W, signs[subset])
        for got, want in zip(part, full, strict=True):
            assert got.tobytes() == want[subset].tobytes()


@pytest.mark.parametrize("columns", [
    # The unit generators of column 0 sum to zero.
    [GeneratorSet(0, [[2.0, 0.0, 0.0], [-3.0, 0.0, 0.0]]),
     GeneratorSet(1, [[0.1, 1.0, 0.0]]), GeneratorSet(2, [[0.0, 0.2, 1.0]])],
    # Both columns have the same mean, so C is singular.
    [GeneratorSet(0, [[1.0, 1.0]]), GeneratorSet(1, [[1.0, 1.0]])],
], ids=["column-mean-at-origin", "coinciding-column-means"])
def test_singular_column_means_fall_through_to_the_lp(monkeypatch, columns):
    seen = record_calls(monkeypatch, (certify, "_closed_form"))
    report = certify_matrix_family(columns)
    (_, A), = seen["_closed_form"]
    assert A is None
    assert [result_bytes(r) for r in report.pattern_results] == \
        [result_bytes(r) for r in lp_pattern_results(columns)]


def test_transient_memory_stays_small():
    # Certifying an n=14 family holds its report and, beyond that, about one
    # chunk of patterns at a time: no array of all 8,192 patterns times all
    # 280 generators (18 MB each) is formed. The cached pattern enumeration
    # is built first, so it is not counted.
    columns = near_identity_columns(np.random.default_rng(1), 14)
    certify._sign_patterns(14)
    tracemalloc.start()
    try:
        report = certify_matrix_family(columns)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.certified
    assert peak - held < 8e6


def test_large_near_identity_family_needs_no_lp(monkeypatch):
    # Counted, not timed: every pattern of this n=12 family is certified by
    # its closed-form direction, and no LP is solved.
    calls = record_batches(monkeypatch)
    report = certify_matrix_family(near_identity_columns(np.random.default_rng(12), 12))
    assert report.certified
    assert len(report.pattern_results) == 2048
    assert all(r.status == certify.STATUS_STRICT and r.lp_margin is None
               for r in report.pattern_results)
    assert calls == []


def vertex_start_families():
    """Families for the vertex-start margin LPs, edge cases first."""
    edge = {
        "n1-one-generator": [GeneratorSet(0, [[3.0]])],
        "n1-cancelling": [GeneratorSet(0, [[2.0], [-0.5]])],
        "n1-one-sided": [GeneratorSet(0, [[2.0], [0.5], [7.0]])],
        "one-generator-per-column": [GeneratorSet(0, [[1.0, 0.2]]), GeneratorSet(1, [[0.3, -1.0]])],
        "identity-zeros-in-w0": IDENTITY_COLUMNS,
        "negative-zero-in-w0": [GeneratorSet(0, [[-0.0, -1.0], [1.0, -1.0]]),
                                GeneratorSet(1, [[1.0, 0.0], [1.0, 0.5]])],
        "negative-w0": [GeneratorSet(0, [[-1.0, -0.5, -0.1], [-1.0, 0.2, 0.1]]),
                        GeneratorSet(1, [[0.1, 1.0, 0.0]]),
                        GeneratorSet(2, [[0.0, 0.1, -1.0], [0.2, 0.0, -1.0]])],
        "quad": QUAD_COLUMNS,
        "gaussian-n6": gaussian_columns(np.random.default_rng(7), 6),
    }
    rng = np.random.default_rng(1)
    for n in (4, 6, 8):
        edge[f"near-identity-n{n}"] = near_identity_columns(rng, n)
    for k, columns in enumerate(integer_families()):
        edge[f"integer-{k}"] = columns
    return edge


@pytest.mark.parametrize("columns", vertex_start_families().values(),
                         ids=vertex_start_families().keys())
def test_vertex_start_matches_highs_reference(columns):
    # The margin LPs started at the known vertex give the statuses and notes
    # of the LPs as written, solved by HiGHS, and their margins to round-off.
    # Every pattern gets its LP here, and the report, which decides some in
    # closed form, has the same verdict.
    got = lp_pattern_results(columns)
    want = lp_pattern_results(columns, reference_margin_lps)
    # A degenerate family has no patterns and is not certified.
    all_strict = bool(want) and all(ref.status == certify.STATUS_STRICT for ref in want)
    assert certify_matrix_family(columns).certified == all_strict
    for res, ref in zip(got, want, strict=True):
        assert (res.pattern, res.status, res.note) == (ref.pattern, ref.status, ref.note)
        assert res.lp_margin == pytest.approx(ref.lp_margin, rel=0.0, abs=1e-11)
        assert (res.lp_margin == 0.0) == (ref.lp_margin == 0.0)
        if res.certificate is not None:
            signed = apply_sign_pattern(columns, res.pattern)
            assert verify_certificate(res.certificate.a, res.certificate.epsilon, signed)
        else:
            weights = res.witness.weights
            assert np.all(weights >= 0.0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            # A zero margin means |W_s^T lam|_1 <= 1e-10 with sum(lam) >= 1.
            if res.lp_margin == 0.0:
                assert res.witness.residual_norm <= 1e-10


@pytest.mark.parametrize("tilt", [1e-9, 1e-10], ids=["tilt-1e-9-pair", "tilt-1e-10-pair"])
def test_tilt_pair_margins_match_closed_form(tilt):
    # Generators (1, tilt) and (1, -tilt): pattern (+,+) has margin
    # 1/sqrt(1 + tilt^2) and (+,-) has tilt/sqrt(1 + tilt^2). HiGHS reads the
    # latter as 0 at tilt 1e-9, so these pairs are checked against the closed
    # form: 1e-9 is positive but below the threshold, and at 1e-10 the
    # cancelling combination (0, 1e-10) is within the pricing tolerance of 0.
    # The LP margins come from every pattern's own LP; the report decides
    # (+,+) in closed form and gives (+,-) the same LP result.
    columns = [GeneratorSet(0, [[1.0, tilt]]), GeneratorSet(1, [[1.0, -tilt]])]
    same, mixed = lp_pattern_results(columns)
    report = certify_matrix_family(columns)
    assert pattern_by_signs(report, (1, 1)).status == certify.STATUS_STRICT
    assert result_bytes(pattern_by_signs(report, (1, -1))) == result_bytes(mixed)
    scale = np.sqrt(1.0 + tilt**2)
    assert same.status == certify.STATUS_STRICT
    assert same.lp_margin == pytest.approx(1.0 / scale, rel=0.0, abs=1e-11)
    assert mixed.status == certify.STATUS_NOT_STRICT
    if tilt == 1e-9:
        assert mixed.lp_margin == pytest.approx(tilt / scale, rel=0.0, abs=1e-11)
        assert mixed.note == "numerically marginal"
    else:
        assert mixed.lp_margin == 0.0
        assert mixed.note is None
