"""Tests for the sampling, angle, finite-difference, and hull oracles."""

import numpy as np
import pytest

from invcert import (
    ControlNet,
    GeneratorSet,
    PatchGrid,
    certify_map,
    eval_many,
    sampled_injectivity,
)
from invcert import oracle
from invcert.bernstein import _cell_derivatives, _derivative_points, _jacobians, _reduce_batch
from invcert.certify import _grid_columns
from invcert.oracle import COLLISION_TOL, MAX_TRIALS, SEPARATION_FLOOR

from helpers import (
    certificate_lp,
    collapsed_net,
    folded_net,
    identity_grid_2x2,
    identity_net,
    identity_points,
    perturbed_identity_net,
    quad_net,
    random_grid_2x2,
    random_net,
    rotation_net,
)
from oracles import (
    _ReferenceJacobian,
    _reference_push_apart,
    _reference_residual,
    acute_2d,
    check_collision_witness,
    fd_jacobian,
    hull_membership,
    unit_generators,
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


# Whether each reference_corpus() run collides, as measured before the
# lockstep refinement stopped keeping the sequential loop's candidate order.
CORPUS_COLLIDED = (
    "01010000100100001000010010000000000000000011000000100000101011111111"
    "111111111111011111111111111111111111111111110111000"
)


def folded_corpus() -> list[ControlNet]:
    """Perturbed identity nets that fold: det J <= 0 at one of 4,000 points.

    The first 80 such nets of degrees (2, 2), (3, 3) and (2, 2, 2), at
    perturbation amplitudes 0.45, 0.3 and 0.35, from one seeded stream.
    """
    rng = np.random.default_rng(21)
    nets = []
    for degrees, amplitude in (((2, 2), 0.45), ((3, 3), 0.3), ((2, 2, 2), 0.35)):
        n = len(degrees)
        xs = np.random.default_rng(0).random((4000, n))
        base = identity_points(degrees)
        kept = 0
        while kept < 80:
            net = ControlNet(degrees, base + rng.uniform(-amplitude, amplitude, size=base.shape))
            J = np.stack([_reduce_batch(_derivative_points(net, j, 1.0), xs) for j in range(n)],
                         axis=-1)
            if (np.linalg.det(J) <= 0.0).any():
                nets.append(net)
                kept += 1
    return nets


def counted_evaluations(monkeypatch) -> list[int]:
    """The point count of every later ``eval_many`` call the oracle makes."""
    calls = []

    def counting(map_like, xs):
        calls.append(len(xs))
        return eval_many(map_like, xs)

    monkeypatch.setattr(oracle, "eval_many", counting)
    return calls


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

    def test_flat_maps_collide_exactly(self):
        # A pair of samples that map to one point is a collision as it stands.
        flat = np.broadcast_to(np.array([0.3, 0.7]), (2, 2, 2))
        grid = PatchGrid((np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])), {
            (0, 0): ControlNet((1, 1), flat),
            (1, 0): ControlNet((1, 1), [[[0.5, 0.0], [0.5, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]),
        })
        for map_like in (ControlNet((1, 1), flat), grid):
            for seed in (0, 1):
                report = sampled_injectivity(map_like, 200, seed)
                assert report.collided
                fu, fv = report.witness[2:]
                assert fu.tobytes() == fv.tobytes()
                check_collision_witness(map_like, report.witness)

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

    # Image differences near 1e308 overflow as squares in the pair norms.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_derivative_overflow_is_an_input_error(self, seed):
        # The right cell's values are finite, but its derivative points are
        # not; the refinement forms every cell's points, visited or not.
        grid = PatchGrid((np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])), {
            (0, 0): ControlNet((1, 1), [[[0.0, 0.0], [0.0, 1.0]], [[0.5, 0.0], [0.5, 1.0]]]),
            (1, 0): ControlNet((1, 1), [[[-1e308, 0.0], [-1e308, 1.0]],
                                        [[1e308, 0.0], [1e308, 1.0]]]),
        })
        with pytest.raises(ValueError, match="^derivative control points overflow$"):
            sampled_injectivity(grid, 100, seed)


class TestHugeImages:
    # Images of x -> 1e200 x differ by more than the square root of the float
    # maximum, so their squared differences overflow. The oracle lets that
    # pass as inf and rescales those rows, as the certifier's generator
    # norms do; no overflow warning escapes (-W error). Images of x -> 1e-8 x
    # at points 1e-3 apart differ by 1e-11, below COLLISION_TOL itself; the
    # tolerances scale with a map smaller than 1, so they collide no more.
    # Below about 1e-154 the squared differences underflow instead, and
    # those rows are rescaled too. The refinement solves every map's systems
    # at its power-of-two scale, down to subnormal control points.
    SQUARE = np.array([[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
    FOLD = np.array([[[0, 0], [0, 1]], [[2, 0], [2, 1]], [[0, 0.1], [0, 1.1]]], dtype=float)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-6, 1e-8, 1e-160, 1e-200, 1e-300, 1e-310,
                                       1e-320])
    def test_huge_linear_map_runs_clean(self, scale):
        net = ControlNet((1, 1), self.SQUARE * scale)
        assert not sampled_injectivity(net, 1000, 0).collided
        rng = np.random.default_rng(3)
        U, V = rng.random((300, 2)), rng.random((300, 2))
        with np.errstate(over="ignore"):
            mismatch = oracle._pair_norms(U, V, PatchGrid.single(net))
        # Subnormal images are exact only to about the smallest subnormal.
        np.testing.assert_allclose(mismatch, scale * np.linalg.norm(U - V, axis=1), rtol=1e-14,
                                   atol=2 * np.finfo(float).smallest_subnormal)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-6, 1e-8, 1e-162, 1e-200, 1e-300, 1e-310,
                                       1e-320])
    def test_scaled_fold_is_caught_like_the_fold(self, scale):
        # The ranking and the refinement see finite mismatches and steps, so
        # the scaled fold collides where the fold does.
        want = sampled_injectivity(ControlNet((2, 1), self.FOLD), 1000, 0)
        got = sampled_injectivity(ControlNet((2, 1), self.FOLD * scale), 1000, 0)
        assert want.collided and got.collided
        if 0.1 * scale >= np.finfo(float).tiny:
            # Subnormal control points keep fewer bits, which makes another
            # fold with witnesses of its own.
            np.testing.assert_allclose(np.stack(got.witness[:2]), np.stack(want.witness[:2]),
                                       rtol=0, atol=1e-12)
        check_collision_witness(ControlNet((2, 1), self.FOLD * scale), got.witness)

    def test_offset_identity_is_certified(self):
        assert certify_map(ControlNet((1, 1), self.SQUARE + 1e15)).certified

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11: near 1e15, images of points "
                       "1e-3 apart round to one float, and only a proved collision tells "
                       "that from a fold")
    def test_offset_identity_runs_clean(self):
        assert not sampled_injectivity(ControlNet((1, 1), self.SQUARE + 1e15), 200, 0).collided

    def test_only_overflowing_rows_are_rescaled(self):
        rng = np.random.default_rng(31)
        plain = rng.normal(size=(50, 3))
        d = np.vstack([plain, [[1e200, -1e200, 3e199]], [[np.inf, 1.0, 0.0]],
                       [[1e300, 0.0, 0.0]]])
        with np.errstate(over="ignore"):
            norms = oracle._row_norms(d)
        assert norms[:50].tobytes() == oracle._row_norms(plain).tobytes()
        np.testing.assert_allclose(norms[50], 1e200 * np.linalg.norm([1.0, -1.0, 0.3]), rtol=1e-15)
        assert norms[51] == np.inf and norms[52] == 1e300

    def test_only_underflowing_rows_are_rescaled(self):
        # Squares of entries below about 1e-154 underflow, so such rows get
        # the certifier's rescaled norm; a zero row stays 0, and a row of an
        # untried step (NaN) stays NaN and leaves the other rows as they are.
        rng = np.random.default_rng(37)
        plain = rng.normal(size=(50, 3))
        d = np.vstack([plain, [[3e-170, 0.0, -4e-170]], [[0.0, 0.0, 0.0]],
                       [[np.nan, 1.0, 0.0]], [[1e-300, 1e-310, 0.0]]])
        norms = oracle._row_norms(d)
        assert norms[:50].tobytes() == oracle._row_norms(plain).tobytes()
        np.testing.assert_allclose(norms[50], 5e-170, rtol=1e-15)
        assert norms[51] == 0.0 and np.isnan(norms[52])
        np.testing.assert_allclose(norms[53], 1e-300, rtol=1e-15)


class TestContract:
    """Every witness is a genuine collision, and every report is reproducible."""

    def test_corpus_collides_as_pinned(self):
        runs = reference_corpus()
        flags = "".join(str(int(sampled_injectivity(*run).collided)) for run in runs)
        assert flags == CORPUS_COLLIDED
        assert 0 < flags.count("1") < len(runs)

    def test_corpus_witnesses_meet_the_contract(self):
        for map_like, trials, seed in reference_corpus():
            report = sampled_injectivity(map_like, trials, seed)
            assert (report.trials, report.seed) == (trials, seed)
            if report.collided:
                check_collision_witness(map_like, report.witness)
            else:
                assert report.witness is None

    def test_the_same_seed_gives_the_same_report(self):
        for run in reference_corpus():
            assert same_report(sampled_injectivity(*run), sampled_injectivity(*run)), run[1:]

    def test_folded_nets_are_caught_at_500_trials(self):
        collided = 0
        for net in folded_corpus():
            report = sampled_injectivity(net, 500, seed=3)
            if report.collided:
                check_collision_witness(net, report.witness)
                collided += 1
        assert collided >= 35

    def test_degree_zero_axes_meet_the_contract(self):
        rng = np.random.default_rng(41)
        maps = [
            ControlNet((2, 0), rng.uniform(size=(3, 1, 2))),
            ControlNet((0, 1, 2), rng.uniform(size=(1, 2, 3, 3))),
            PatchGrid((np.array([0.0, 0.4, 1.0]), np.array([0.0, 1.0])), {
                (0, 0): ControlNet((1, 0), rng.uniform(size=(2, 1, 2))),
                (1, 0): ControlNet((1, 1), rng.uniform(size=(2, 2, 2))),
            }),
        ]
        collided = 0
        for map_like in maps:
            for seed in range(3):
                report = sampled_injectivity(map_like, 200, seed)
                if report.collided:
                    check_collision_witness(map_like, report.witness)
                    collided += 1
        assert collided

    def test_blocks_do_not_change_the_report(self, monkeypatch):
        runs = [(folded_net(), 100, 3), (random_grid_2x2(np.random.default_rng(4)), 100, 1)]
        for trials in (10_000, 2**12 - 1, 2**12, 2**12 + 1):
            rng = np.random.default_rng(trials)
            maps = [perturbed_identity_net(rng, amplitude) for amplitude in (0.2, 0.5, 0.8, 1.1)]
            maps += [random_grid_2x2(rng), folded_net()]
            runs += [(map_like, trials, seed) for seed, map_like in enumerate(maps)]
        assert oracle._BLOCK == 2**12
        reports = [sampled_injectivity(*run) for run in runs]
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        for run, report in zip(runs, reports):
            assert same_report(sampled_injectivity(*run), report), run[1:]
            if report.collided:
                check_collision_witness(run[0], report.witness)
        assert 0 < sum(report.collided for report in reports) < len(runs)

    def test_failed_solves_keep_the_contract(self, monkeypatch):
        # A lockstep round gives an unsolved system a NaN step, which no
        # step length accepts, so the candidate stops where it is.
        real_solve = np.linalg.solve
        failures = []

        def solve(a, b):
            rows = np.reshape(b, (-1, a.shape[-1]))
            if any(row[0] * 1e6 % 1.0 < 0.3 for row in rows):
                failures.append(len(rows))
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        collided = 0
        for map_like, trials, seed in reference_corpus()[:40]:
            report = sampled_injectivity(map_like, trials, seed)
            if report.collided:
                check_collision_witness(map_like, report.witness)
                collided += 1
        # Stacked solves failed, and so did systems solved one at a time.
        assert max(failures) > 1 and failures.count(1) >= 20
        assert 0 < collided


def unequal_grid(rng):
    """A 3x2 grid with unequal widths and degree-0 axes among its cells."""
    return PatchGrid((np.array([0.0, 0.13, 0.6, 1.0]), np.array([0.0, 0.7, 1.0])), {
        cell: ControlNet(degrees, rng.normal(size=tuple(d + 1 for d in degrees) + (2,)))
        for cell, degrees in zip(
            [(i, j) for i in range(3) for j in range(2)],
            [(1, 1), (2, 0), (0, 3), (3, 2), (0, 0), (1, 2)])
    })


def jacobians(grid, xs):
    return _jacobians(grid, {cell: _cell_derivatives(grid, cell) for cell in grid.patches}, xs)


class TestJacobians:
    """Batched Jacobians against derivative nets evaluated one point at a time."""

    @staticmethod
    def points(rng, grid, count):
        """Random points plus points on every cut, the cube's faces included."""
        xs = rng.random((count, grid.dimension))
        for axis, breaks in enumerate(grid.breakpoints):
            xs[: len(breaks), axis] = breaks
        return xs

    def test_single_patches_match_exactly(self):
        rng = np.random.default_rng(43)
        nets = [random_net(rng, n, max_degree=3, min_degree=0) for n in (1, 2, 3) for _ in range(4)]
        nets += [folded_net(), ControlNet((2, 0), rng.uniform(size=(3, 1, 2)))]
        for net in nets:
            for map_like in (net, PatchGrid.single(net)):
                grid = oracle._as_grid(map_like)
                xs = self.points(rng, grid, 50)
                reference = _ReferenceJacobian(map_like)
                want = np.array([reference(x) for x in xs])
                assert jacobians(grid, xs).tobytes() == want.tobytes()

    def test_grids_match_to_round_off(self):
        rng = np.random.default_rng(47)
        grids = [
            unequal_grid(rng),
            PatchGrid((np.array([0.0, 0.3, 1.0]), np.array([0.0, 1.0]),
                       np.array([0.0, 0.45, 0.55, 1.0])), {
                (i, 0, k): random_net(rng, 3, max_degree=2, min_degree=0)
                for i in range(2) for k in range(3)
            }),
            random_grid_2x2(rng),
        ]
        zeros = 0
        for grid in grids:
            xs = self.points(rng, grid, 400)
            reference = _ReferenceJacobian(grid)
            want = np.array([reference(x) for x in xs])
            got = jacobians(grid, xs)
            scale = np.abs(want).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            # A degree-0 axis gives a column of +0.0, as its zero derivative net does.
            assert got[want == 0.0].tobytes() == want[want == 0.0].tobytes()
            zeros += (want == 0.0).sum()
        assert zeros

    def test_cell_corners_are_certifier_generators(self):
        # At its upper corner a cell's local coordinates are all 1.0, so each
        # Jacobian column is one of the cell's derivative control points: the
        # oracle and the certifier must read the same ones, bit for bit.
        grid = unequal_grid(np.random.default_rng(47))
        for cell in grid.cells():
            corner = [breaks[k + 1] for breaks, k in zip(grid.breakpoints, cell)]
            J = jacobians(grid, np.array([corner]))[0]
            for j, gens in enumerate(_grid_columns(grid, [cell])):
                assert J[:, j].tobytes() in {row.tobytes() for row in gens}


class TestLockstepMatchesSequential:
    """Steps of a lockstep round against the same step taken one candidate at a time."""

    def test_candidates_are_the_pairs_of_least_mismatch(self, monkeypatch):
        given = []

        def refine(grid, derivatives, top, U0, V0):
            given.append((U0, V0))
            return None

        monkeypatch.setattr(oracle, "_refine", refine)
        for net, trials in ((quad_net(), 3000), (quad_net(), 5), (rotation_net(1.0), 2**12 + 9)):
            given.clear()
            assert not sampled_injectivity(net, trials, seed=2).collided
            ((U0, V0),) = given
            rng = np.random.Generator(np.random.Philox(2))
            U, V = rng.random((trials, 2)), rng.random((trials, 2))
            assert np.linalg.norm(U - V, axis=1).min() >= SEPARATION_FLOOR
            mismatch = np.linalg.norm(eval_many(net, U) - eval_many(net, V), axis=1)
            order = np.argsort(mismatch, kind="stable")[:min(8, trials)]
            assert np.array_equal(U0, U[order]) and np.array_equal(V0, V[order])

    def test_row_norms_match_numpy(self):
        rng = np.random.default_rng(23)
        for n in range(1, 10):
            d = rng.normal(size=(5000, n)) * 10.0 ** rng.uniform(-5, 5, size=(5000, 1))
            want = np.linalg.norm(d, axis=1)
            assert np.all(np.abs(oracle._row_norms(d) - want) <= 2 * np.spacing(want))

    def test_stacked_steps_match_one_system_at_a_time(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            M = rng.normal(size=(64, n, 2 * n)) * 10.0 ** rng.uniform(-4, 2, size=(64, 1, 1))
            r = rng.normal(size=(64, n))
            M[3] = 0.0  # zero system: damping 1e-12 and a zero step
            steps, solved = oracle._gauss_newton_steps(M, r, 1.0)
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
        expected, _ = oracle._gauss_newton_steps(M, r, 1.0)
        r[2] = np.nan
        monkeypatch.setattr(np.linalg, "solve", solve)
        steps, solved = oracle._gauss_newton_steps(M, r, 1.0)
        assert solved.tolist() == [True, True, False, True, True]
        assert steps[solved].tobytes() == expected[solved].tobytes()

    def test_line_search_matches_one_candidate_at_a_time(self):
        # Close pairs 1e-3 apart and steps that pull them together, so most
        # accepted rows were pushed apart; an infinite mismatch to beat makes
        # the longest step length with separated points the accepted one.
        rng = np.random.default_rng(37)
        net = folded_net()
        K, n = 64, 2
        u = rng.uniform(0.1, 0.9, size=(K, n))
        v = u + 1.2e-3 * rng.normal(size=(K, n))
        step = np.hstack([v - u, u - v]) * rng.uniform(0.0, 1.5, size=(K, 1))
        step[::5] = rng.normal(size=(K // 5 + 1, 2 * n)) * 0.01
        gap = np.where(np.arange(K) % 2 == 0, np.inf,
                       np.linalg.norm(eval_many(net, u) - eval_many(net, v), axis=1))
        accepted, P, r, gaps = oracle._line_search(oracle._as_grid(net), np.stack([u, v], axis=1),
                                                   step, gap)
        pushed = 0
        for k in range(K):
            found = None
            for alpha in oracle._ALPHAS:
                u_new = np.clip(u[k] + alpha * step[k, :n], 0.0, 1.0)
                v_new = np.clip(v[k] + alpha * step[k, n:], 0.0, 1.0)
                close = np.linalg.norm(u_new - v_new) < SEPARATION_FLOOR
                if close:
                    u_new, v_new = _reference_push_apart(u_new, v_new)
                if np.linalg.norm(u_new - v_new) >= SEPARATION_FLOOR:
                    r_new, gap_new = _reference_residual(net, u_new, v_new)
                    if gap_new < gap[k]:
                        found = (u_new, v_new, r_new, gap_new)
                        pushed += close
                        break
            assert accepted[k] == (found is not None)
            if found is not None:
                assert P[k, 0].tobytes() == found[0].tobytes()
                assert P[k, 1].tobytes() == found[1].tobytes()
                assert r[k].tobytes() == found[2].tobytes()
                assert gaps[k] == found[3]
        assert pushed >= 10 and 0 < accepted.sum() < K

    def test_a_candidate_without_a_better_step_stops_where_it_is(self, monkeypatch):
        real_line_search = oracle._line_search

        def nothing_accepted(grid, P, step, gap):
            accepted, *rows = real_line_search(grid, P, step, gap)
            return np.zeros_like(accepted), *rows

        # A collision of the folded map moved apart in the image, to a
        # mismatch too large to stop at once but small enough to count.
        u, v, _, _ = sampled_injectivity(folded_net(), 10_000, seed=3).witness
        v = v + np.array([1e-11, -1e-11])
        assert 1e-12 < np.linalg.norm(eval_many(folded_net(), u) - eval_many(folded_net(), v)) \
            <= COLLISION_TOL
        monkeypatch.setattr(oracle, "_line_search", nothing_accepted)
        grid = oracle._as_grid(folded_net())
        derivatives = {cell: _cell_derivatives(grid, cell) for cell in grid.patches}
        top = max(np.abs(points).max() for axes in derivatives.values() for points in axes)
        pair = oracle._refine(grid, derivatives, top, u[None], v[None])
        assert pair is not None
        assert pair[0].tobytes() == u.tobytes() and pair[1].tobytes() == v.tobytes()

    def test_all_evaluation_goes_through_the_module_global(self, monkeypatch):
        calls = counted_evaluations(monkeypatch)
        report = sampled_injectivity(quad_net(), 10_000, seed=0)
        assert not report.collided
        # Three sample blocks of u and of v, one call to start refining,
        # then one line search per lockstep round; Jacobians reduce
        # derivative control points without going through eval_many.
        assert calls[:6] == [4096, 4096, 4096, 4096, 1808, 1808]
        assert len(calls) <= 64

    def test_no_evaluation_exceeds_one_block(self, monkeypatch):
        calls = counted_evaluations(monkeypatch)
        sampled_injectivity(perturbed_identity_net(np.random.default_rng(41), 0.3), 40_000, 2)
        assert calls[:20] == [oracle._BLOCK] * 18 + [40_000 - 9 * oracle._BLOCK] * 2
        assert max(calls) <= oracle._BLOCK


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
            _, t = certificate_lp(unit_generators([GeneratorSet(0, gens)])[0])
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
