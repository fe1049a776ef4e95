"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
randomized criteria are fully seeded and deterministic.
"""

import time

import numpy as np
import pytest

from invcert import (
    GeneratorSet,
    PatchGrid,
    certify_map,
    certify_matrix_family,
    eval_many,
    normalize_generators,
    sampled_injectivity,
)
from invcert import certify
from invcert.bernstein import _derivative_points, _reduce_batch
from invcert.cli import emit_report

from helpers import (
    certificate_lp,
    collapsed_net,
    identity_net,
    perturbed_identity_net,
    pivots_per_lp,
    quad_net,
    random_grid_2x2,
    random_net,
    record_batches,
    rotation_net,
    solve_one,
)
from oracles import acute_2d, lp_vertex_oracle, sweep_unit_margin
from test_certify import manual_aggregation, pattern_by_signs

SQRT2 = np.sqrt(2.0)
SQRT5 = np.sqrt(5.0)
SQRT10 = np.sqrt(10.0)


def announce(number, name, detail):
    print(f"[acceptance] criterion {number} ({name}): PASS ({detail})")


def test_criterion_01_identity_certification():
    net = identity_net(2)
    certify_map(net)  # warm-up, excludes import and allocation costs
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        certify_map(net)
        best = min(best, time.perf_counter() - t0)
    report = certify_map(net)
    assert report.certified
    assert len(report.pattern_results) == 2
    for res in report.pattern_results:
        assert res.certificate.epsilon == pytest.approx(1.0 / SQRT2, abs=1e-9)
    assert best < 0.010, f"certification took {best * 1e3:.2f} ms"
    announce(1, "identity certification",
             f"epsilon = 1/sqrt(2) on both patterns, {best * 1e3:.2f} ms")


def test_criterion_02_collapsed_map_rejection():
    report = certify_map(collapsed_net())
    assert not report.certified
    res = pattern_by_signs(report, (1, -1))
    assert abs(res.lp_margin) <= 1e-9
    assert res.witness is not None
    assert res.witness.residual_norm <= 1e-9
    text = emit_report(report, "text")
    assert "witness (+ -)" in text
    announce(2, "collapsed-map rejection",
             f"margin {res.lp_margin:.3g}, witness sum norm {res.witness.residual_norm:.3g}")


def test_criterion_03_quad_certification_with_sweep_oracle():
    report = certify_map(quad_net())
    assert report.certified
    res = pattern_by_signs(report, (1, -1))
    signed = np.vstack([
        normalize_generators(c)[0] * s
        for s, c in zip((1, -1),
                        certify.grid_column_generators(PatchGrid.single(quad_net()), [(0, 0)]))
    ])
    sweep_eps, _ = sweep_unit_margin(signed, n_angles=10**6)
    # The pattern's max-margin LP.
    a, t = certificate_lp(signed)
    assert t == pytest.approx(1.0 / SQRT5, abs=1e-7)
    assert t / np.linalg.norm(a) == pytest.approx(1.0 / SQRT10, abs=1e-7)
    assert t / np.linalg.norm(a) == pytest.approx(sweep_eps, abs=1e-5)
    # The report decides the pattern in closed form: no LP margin, and an
    # epsilon that the generators meet and that no direction beats.
    assert res.lp_margin is None
    achieved = np.min(signed @ res.certificate.a)
    assert res.certificate.epsilon == pytest.approx(achieved, abs=1e-12)
    assert res.certificate.epsilon <= sweep_eps + 1e-5
    announce(3, "quad certification",
             f"LP margin 1/sqrt(5) +- 1e-7, report epsilon {res.certificate.epsilon:.6g} "
             f"vs 1e6-angle sweep diff {abs(res.certificate.epsilon - sweep_eps):.2e}")


def test_criterion_04_soundness_sweep():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    certified = 0
    violations = 0
    for k in range(1000):
        amplitude = 1.2 * k / 999
        net = perturbed_identity_net(rng, amplitude)
        report = certify_map(net)
        if report.certified:
            certified += 1
            collision = sampled_injectivity(net, 10_000, seed=k)
            if collision.collided:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert certified > 100, "suite should include a meaningful number of certified maps"
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f} s"
    announce(4, "soundness sweep",
             f"{certified}/1000 certified, 0 collisions, {elapsed:.1f} s")


def test_criterion_05_one_sidedness():
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    family = certify_matrix_family([
        GeneratorSet(0, [[1.0, 0.0], [c, s]]),
        GeneratorSet(1, [[0.0, 1.0], [-s, c]]),
    ])
    assert not family.certified
    for angle in (0.0, 2 * np.pi / 3):
        report = sampled_injectivity(rotation_net(angle), 10_000, seed=17)
        assert not report.collided
    announce(5, "one-sidedness", "two-rotation family rejected, both rotations injective")


def test_criterion_06_lp_oracle_equivalence():
    rng = np.random.default_rng(606)
    sizes = [(int(rng.integers(2, 5)), int(rng.integers(1, 13))) for _ in range(440)]
    sizes += [(5, int(rng.integers(4, 13))) for _ in range(50)]
    sizes += [(6, int(rng.integers(6, 13))) for _ in range(10)]
    worst = 0.0
    for n_vars, n_rows in sizes:
        G = rng.normal(size=(n_rows, n_vars))
        box = rng.uniform(1.0, 4.0, size=n_vars)
        x0 = rng.random(n_vars) * box
        h = np.abs(G @ x0) + rng.uniform(0.1, 2.0, size=n_rows)
        cvec = rng.normal(size=n_vars)
        bounds = tuple((0.0, float(b)) for b in box)
        sol = solve_one(cvec, G, h, box)
        assert not sol.unbounded
        oracle = lp_vertex_oracle(cvec, G, h, bounds)
        worst = max(worst, abs(sol.objective_value - oracle))
        assert sol.objective_value == pytest.approx(oracle, abs=1e-8)
    announce(6, "LP oracle equivalence", f"500 LPs, worst gap {worst:.2e}")


def test_criterion_07_derivative_correctness():
    rng = np.random.default_rng(707)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        net = random_net(rng, n, min_degree=1)
        xs = 2 * h + (1.0 - 4 * h) * rng.random((100, n))
        for axis in range(n):
            step = np.zeros(n)
            step[axis] = h
            fd = (eval_many(net, xs + step) - eval_many(net, xs - step)) / (2 * h)
            exact = _reduce_batch(_derivative_points(net, axis), xs)
            worst = max(worst, float(np.abs(fd - exact).max()))
    assert worst < 1e-6
    announce(7, "derivative correctness",
             f"200 nets x 100 points, worst deviation {worst:.2e}")


def test_criterion_08_decomposition_consistency():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        grid = random_grid_2x2(rng)
        via_map = certify_map(grid)
        via_family = certify_matrix_family(manual_aggregation(grid))
        assert via_map.verdict == via_family.verdict
        for a, b in zip(via_map.pattern_results, via_family.pattern_results):
            assert a.status == b.status
            if a.lp_margin is not None and b.lp_margin is not None:
                gap = abs(a.lp_margin - b.lp_margin)
                worst = max(worst, gap)
                assert gap <= 1e-12
    announce(8, "decomposition consistency", f"50 grids, worst margin gap {worst:.2e}")


def random_unit_columns(rng, n, per_column):
    columns = []
    for j in range(n):
        vecs = rng.normal(size=(per_column, n))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        columns.append(GeneratorSet(j, vecs))
    return columns


def test_criterion_09_pattern_count_scaling(monkeypatch):
    rng = np.random.default_rng(909)
    columns = random_unit_columns(rng, 10, 20)
    calls = record_batches(monkeypatch)
    start = time.perf_counter()
    report = certify_matrix_family(columns)
    elapsed = time.perf_counter() - start
    assert len(report.pattern_results) == 512
    assert elapsed < 10.0, f"512 pattern LPs took {elapsed:.2f} s"
    # Pivots per LP do not depend on the machine: mean 10.6, max 14 when
    # this bound was set (21.2 and 35 from the slack basis, through phase 1).
    pivots = pivots_per_lp(calls)
    assert len(pivots) == 512
    assert np.mean(pivots) < 13, f"{np.mean(pivots):.1f} pivots per LP"

    def timed(per_column):
        cols = random_unit_columns(np.random.default_rng(910), 6, per_column)
        certify_matrix_family(cols)  # warm-up
        best = np.inf
        for _ in range(2):
            t0 = time.perf_counter()
            certify_matrix_family(cols)
            best = min(best, time.perf_counter() - t0)
        return best

    base, doubled = timed(20), timed(40)
    ratio = doubled / base
    assert ratio < 4.0, f"doubling generators scaled runtime by {ratio:.2f}x"
    announce(9, "pattern-count scaling",
             f"512 LPs in {elapsed:.2f} s, {np.mean(pivots):.1f} pivots each; "
             f"doubling generators at n=6 scaled {ratio:.2f}x")


def test_criterion_10_acute_lp_agreement():
    rng = np.random.default_rng(1010)
    checked = 0
    for _ in range(500):
        m = int(rng.integers(1, 8))
        gens = rng.normal(size=(m, 2))
        gens = gens[np.linalg.norm(gens, axis=1) > 1e-6]
        if gens.shape[0] == 0:
            continue
        units, _ = normalize_generators(GeneratorSet(0, gens))
        _, t = certificate_lp(units)
        strict = t > 1e-7
        exact = acute_2d(gens)
        if 1e-8 <= t <= 1e-6:
            continue  # inside the threshold band both verdicts are legitimate
        assert strict == exact, f"LP margin {t:.3e} disagrees with exact angular test"
        checked += 1
    assert checked >= 490
    announce(10, "acute/LP agreement", f"{checked} planar sets, no disagreement")
