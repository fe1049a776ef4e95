"""Tests for the sign-pattern certification pipeline."""

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
from invcert import certify
from invcert.cones import dedup_exact

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
    rotation_net,
)
from oracles import (
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
        signed = apply_sign_pattern(QUAD_COLUMNS, certify.enumerate_sign_patterns(2)[1])
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
        assert all(r.status == certify.STATUS_DEGENERATE for r in report.pattern_results)
        assert report.min_generator_norms is None

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
        exact = certify._margin_lps

        def inflated(units, signs):
            a, t, weights = exact(units, signs)
            return a, t * (1.0 + 2e-9), weights

        monkeypatch.setattr(certify, "_margin_lps", inflated)
        report = certify_matrix_family(QUAD_COLUMNS)
        assert report.certified
        for res in report.pattern_results:
            signed = apply_sign_pattern(QUAD_COLUMNS, res.pattern)
            verified = np.min(signed @ res.certificate.a / np.linalg.norm(signed, axis=1))
            assert res.certificate.epsilon <= verified

    def test_certificate_failing_post_hoc_check_is_rejected(self, monkeypatch):
        # Tilt the (+, +) direction until it has a negative product with the
        # generator (1, 0): no margin shaved off the LP's can then verify.
        exact = certify._margin_lps
        passed = {}

        def tilted(units, signs):
            a, t, weights = exact(units, signs)
            a[0] = [-0.1, 1.0]
            passed["t"] = float(t[0])
            return a, t, weights

        monkeypatch.setattr(certify, "_margin_lps", tilted)
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
        # Checked before the constant axis makes the report degenerate.
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
            after = certify_matrix_family(augmented)
            for b, a in zip(base.pattern_results, after.pattern_results):
                assert a.lp_margin == pytest.approx(b.lp_margin, abs=1e-9)

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
            base = certify_matrix_family(cols)
            j = int(rng.integers(0, 2))
            extra = rng.normal(size=2)
            if np.linalg.norm(extra) < 1e-6:
                continue
            grown = list(cols)
            grown[j] = GeneratorSet(j, np.vstack([cols[j].vectors, extra]))
            after = certify_matrix_family(grown)
            for b, a in zip(base.pattern_results, after.pattern_results):
                assert a.lp_margin <= b.lp_margin + 1e-9


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


@pytest.mark.parametrize("columns", reference_families(),
                         ids=["near-identity-n4", "near-identity-n6", "near-identity-n8",
                              "gaussian-n6", "quad", "marginal-pair"])
def test_pattern_results_match_reference(monkeypatch, columns):
    # Each pattern judged as one signed generator matrix, re-checked through
    # verify_certificate, gives the very bytes of the shared-norm path.
    seen = []
    exact = certify._margin_lps

    def recording(units, signs):
        optimum = exact(units, signs)
        seen.append((units, signs, optimum))
        return optimum

    monkeypatch.setattr(certify, "_margin_lps", recording)
    report = certify_matrix_family(columns)
    (W, signs, (a, t, weights)), = seen
    for k, res in enumerate(report.pattern_results):
        want = reference_pattern_result(res.pattern, W * signs[k, :, None],
                                        certify.DEFAULT_THRESHOLD, a[k], float(t[k]), weights[k])
        assert result_bytes(res) == result_bytes(want)


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
def test_vertex_start_matches_highs_reference(monkeypatch, columns):
    # The margin LPs started at the known vertex give the verdicts, statuses
    # and notes of the LPs as written, solved by HiGHS, and their margins to
    # round-off.
    report = certify_matrix_family(columns)
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_margin_lps", reference_margin_lps)
        want = certify_matrix_family(columns)
    assert report.verdict == want.verdict
    for res, ref in zip(report.pattern_results, want.pattern_results, strict=True):
        assert (res.pattern, res.status, res.note) == (ref.pattern, ref.status, ref.note)
        if res.status == certify.STATUS_DEGENERATE:
            continue
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
    report = certify_matrix_family([GeneratorSet(0, [[1.0, tilt]]),
                                    GeneratorSet(1, [[1.0, -tilt]])])
    scale = np.sqrt(1.0 + tilt**2)
    same = pattern_by_signs(report, (1, 1))
    assert same.status == certify.STATUS_STRICT
    assert same.lp_margin == pytest.approx(1.0 / scale, rel=0.0, abs=1e-11)
    mixed = pattern_by_signs(report, (1, -1))
    assert mixed.status == certify.STATUS_NOT_STRICT
    if tilt == 1e-9:
        assert mixed.lp_margin == pytest.approx(tilt / scale, rel=0.0, abs=1e-11)
        assert mixed.note == "numerically marginal"
    else:
        assert mixed.lp_margin == 0.0
        assert mixed.note is None
