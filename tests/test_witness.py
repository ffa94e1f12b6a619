import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from conftest import cutting_plane_search, exact_rows, random_local_unitaries, reference_verify
from sepscan import states, witness
from sepscan.core import DensityMatrix, from_bloch, ket, partial_transpose, to_bloch
from sepscan.nets import NetTooCoarseError, build_net
from sepscan.onesided import ENTANGLED, SEPARABLE, ppt_test
from sepscan.qsep import QRat, verify_certificate
from sepscan.witness import (
    RegionEmptyError,
    SearchStats,
    _computational_rows,
    _diagonal_start,
    _feasible_start,
    _min_norm_point,
    analytic_center,
    cut,
    exact_image,
    initial_region,
    iteration_cap,
    revalidate,
    wsep_solve,
)
from sepscan.wopt import ProductState, wopt_max


def ppt_witness_bloch(rho):
    """Unit Bloch vector of the witness built from a negative PT eigenvector.

    Returns None when the state is PPT.  Used to check that the search
    region keeps at least one true witness for NPT states.
    """
    pt = partial_transpose(rho.mat, rho.m, rho.n, "B")
    vals, vecs = np.linalg.eigh(pt)
    if vals[0] >= 0:
        return None
    vec = vecs[:, 0]
    w = -partial_transpose(np.outer(vec, vec.conj()), rho.m, rho.n, "B")
    coords = to_bloch(w, rho.m, rho.n)
    return coords / np.linalg.norm(coords)


def strictly_inside(region, x, margin=0.0):
    """x lies in the open region: every cut slack and the ball slack exceed margin."""
    return bool(np.all(region.normals @ x > margin)) and np.linalg.norm(x) < 1.0 - margin


@pytest.fixture(scope="module")
def net_0005():
    return build_net(2, 0.005)


@pytest.fixture(scope="module")
def net_001():
    return build_net(2, 0.01)


class TestAnalyticCenter:
    def test_plain_ball_centers_at_origin(self):
        x, radius = analytic_center(np.empty((0, 3)), np.zeros(3), SearchStats())
        np.testing.assert_allclose(x, 0.0, atol=1e-10)
        assert radius == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-8)

    def test_single_halfspace(self):
        normals = np.array([[1.0, 0.0, 0.0]])
        x, _ = analytic_center(normals, np.array([0.5, 0.0, 0.0]), SearchStats())
        assert x[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-7)
        np.testing.assert_allclose(x[1:], 0.0, atol=1e-8)

    @pytest.mark.parametrize("steps", [3, 4, 5])
    def test_radius_bounds_the_radius_at_the_center(self, monkeypatch, steps):
        # stopped early, the returned radius still bounds the one at the true center
        normals = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        x0 = np.array([0.05, 0.3, 0.02])
        _, exact = analytic_center(normals, x0, SearchStats())
        monkeypatch.setattr(witness, "NEWTON_MAX_STEPS", steps)
        stats = SearchStats()
        _, radius = analytic_center(normals, x0, stats)
        assert radius >= exact
        # after 3 steps the decrement is still >= 1/2: no bound, so no radius
        assert (radius == math.inf) == (steps == 3) == (stats.unconverged_centerings == 1)

    def test_min_slack_versus_grid(self):
        # analytic center's worst slack stays within a factor k of the best
        # achievable worst slack (k = constraint count incl. the ball)
        rng = np.random.default_rng(0)
        for trial in range(5):
            normals = rng.standard_normal((4, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            try:
                x0, _, _ = cold_start(normals)
            except RegionEmptyError:
                continue
            x, _ = analytic_center(normals, x0, SearchStats())
            ax = np.linspace(-0.99, 0.99, 41)
            grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
            grid = grid[np.linalg.norm(grid, axis=1) < 0.999]
            slacks = np.minimum(
                (grid @ normals.T).min(axis=1),
                1.0 - np.linalg.norm(grid, axis=1),
            )
            best = float(slacks.max())
            mine = min(
                float((normals @ x).min()), 1.0 - float(np.linalg.norm(x))
            )
            assert mine >= best / 5.0


def lp_slack(normals):
    """max t subject to N d >= t, |d_j| <= 1, from HiGHS (the independent oracle).

    At HiGHS's default tolerances (1e-7) the nearly degenerate cones of
    `random_cones` stop short: slacks 3e-10..8e-10 reported where a unit point
    has exact slack 2e-9..5e-9.  Tolerances of 1e-10 resolve them.
    """
    k, dim = normals.shape
    res = scipy.optimize.linprog(
        -np.eye(dim + 1)[-1],
        A_ub=np.hstack([-normals, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        bounds=[(-1.0, 1.0)] * dim + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.x[-1])


def cold_start(normals, stats=None):
    """`_feasible_start` from no weights: Wolfe's algorithm starts at the last row."""
    k, dim = normals.shape
    return _feasible_start(normals, np.zeros(k), np.zeros(dim), stats or SearchStats())


def random_cones(count, seed):
    """Unit normal sets, dim 3..35 with 1..60 normals: plain random ones, ones
    holding a pair +-n (empty), +-n pairs tilted by 1e-4..1e-12 toward a
    common direction (nearly degenerate), and narrow cones around an axis."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        kind = trial % 4
        dim = int(rng.integers(3, 36))
        k = int(rng.integers(2 if kind in (1, 2) else 1, 61))
        normals = rng.standard_normal((k, dim))
        if kind == 1:
            normals[-1] = -normals[0]
        elif kind == 2:
            v = normals[0] / np.linalg.norm(normals[0])
            w = rng.standard_normal(dim)
            w -= (w @ v) * v
            tilt = 10.0 ** -float(rng.integers(4, 13))
            normals[0], normals[-1] = v + tilt * w, -v + tilt * w
            normals[1:-1] = w + rng.standard_normal((k - 2, dim)) * 0.5 / np.sqrt(dim)
        elif kind == 3:
            normals = np.eye(dim)[0] + rng.standard_normal((k, dim)) * 0.3 / np.sqrt(dim)
        yield normals / np.linalg.norm(normals, axis=1, keepdims=True)


class TestFeasibleStart:
    def test_least_distance_point_is_interior(self):
        # each outcome carries its certificate, checked here; HiGHS agrees with it
        interior = empty = 0
        for normals in random_cones(400, 3):
            k, dim = normals.shape
            stats = SearchStats()
            try:
                x, weights, p = cold_start(normals, stats)
            except RegionEmptyError as exc:
                lam = exc.weights
                assert np.all(lam >= 0.0) and lam.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(normals.T @ lam) <= 1e-9
                # Euclidean thickness <= 1e-9, so the box slack is <= sqrt(dim) 1e-9
                assert lp_slack(normals) <= math.sqrt(dim) * 1e-9
                empty += 1
                continue
            assert np.linalg.norm(x) == pytest.approx(math.sqrt(k / (k + 2.0)))
            assert np.min(normals @ x) > 1e-9 * np.linalg.norm(x)
            assert lp_slack(normals) > 1e-9
            assert np.all(weights >= 0.0) and weights.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(normals.T @ weights, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(x / np.linalg.norm(x), p / np.linalg.norm(p), atol=1e-12)
            assert stats.ldp_steps > 0 or k == 1
            interior += 1
        assert interior >= 100 and empty >= 100

    def test_warm_start_equals_cold_start(self):
        # rows added one at a time, each solve warm-started from the previous one
        solves = 0
        for normals in random_cones(60, 5):
            k, dim = normals.shape
            weights, point = np.zeros(0), np.zeros(dim)
            for rows in range(1, k + 1):
                cut_normals = normals[:rows]
                try:
                    _, weights, warm = _feasible_start(
                        cut_normals, np.append(weights, 0.0), point, SearchStats()
                    )
                except RegionEmptyError:
                    with pytest.raises(RegionEmptyError):
                        cold_start(cut_normals)
                    break
                _, _, cold = cold_start(cut_normals)
                np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-12)
                point = warm
                solves += 1
        assert solves >= 500

    def test_warm_start_in_a_thin_cone_resumes_from_its_point(self):
        # N^T weights in floats loses the direction of a least-norm point of
        # norm 1e-8, so a warm start resumes from the point the last solve kept
        rng = np.random.default_rng(11)
        dim = 35
        for trial in range(200):
            v, w = rng.standard_normal((2, dim))
            v /= np.linalg.norm(v)
            w -= (w @ v) * v
            w /= np.linalg.norm(w)
            tilt = (1e-7, 3e-8, 1e-8)[trial % 3]
            pair = np.array([v + tilt * w, -v + tilt * w]) / math.sqrt(1.0 + tilt**2)
            _, weights, point = cold_start(pair)
            new = w + 0.3 * rng.standard_normal(dim) / math.sqrt(dim)
            normals = np.vstack([pair, new / np.linalg.norm(new)])
            _, _, warm = _feasible_start(normals, np.append(weights, 0.0), point, SearchStats())
            _, _, cold = cold_start(normals)
            np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-12)

    def test_pair_of_opposite_normals_is_empty(self):
        n = np.array([[0.6, 0.8, 0.0]])
        with pytest.raises(RegionEmptyError) as info:
            cold_start(np.vstack([n, -n]))
        np.testing.assert_allclose(info.value.weights, [0.5, 0.5])


class TestInitialRegion:
    def test_half_bloch_vector_is_feasible(self):
        rho = states.werner(0.7)
        region = initial_region(rho)
        v = region.rho_bloch
        probe = v / (2.0 * np.linalg.norm(v))
        assert strictly_inside(region, probe)
        # one halfspace: its analytic center is v/(sqrt(3) ||v||)
        np.testing.assert_allclose(region.center, v / (math.sqrt(3.0) * np.linalg.norm(v)))

    @pytest.mark.parametrize("rho", [
        states.werner(0.3), states.werner(0.9), states.bell(),
        states.random_full_rank(2, 2, 1), states.random_full_rank(2, 3, 2),
        states.random_full_rank(3, 3, 3),
        states.maximally_mixed(2, 2), states.maximally_mixed(2, 3),
    ], ids=["werner03", "werner09", "bell", "full2x2", "full2x3", "full3x3",
            "mixed2x2", "mixed2x3"])
    def test_closed_form_equals_the_iterative_path(self, rho):
        # the first region as `cut` would build it: `_feasible_start`, then Newton
        v = to_bloch(rho.mat, rho.m, rho.n)
        nv = float(np.linalg.norm(v))
        normals = (v / nv)[None, :] if nv >= 1e-12 else np.empty((0, v.shape[0]))
        stats = SearchStats()
        if len(normals):
            x0, weights, point = cold_start(normals, stats)
        else:
            x0, weights, point = np.zeros_like(v), np.zeros(0), np.zeros_like(v)
        center, radius = analytic_center(normals, x0, stats)
        assert stats == SearchStats()  # no affine solve, no Newton step
        region = initial_region(rho)
        np.testing.assert_array_equal(region.normals, normals)
        np.testing.assert_array_equal(region.weights, weights)
        np.testing.assert_array_equal(region.least_norm, point)
        np.testing.assert_allclose(region.center, center, rtol=0.0, atol=1e-15)
        assert region.radius_proxy == pytest.approx(radius, rel=0.0, abs=1e-12)

    def test_maximally_mixed_gives_full_ball(self):
        region = initial_region(states.maximally_mixed(2, 2))
        assert region.normals.shape[0] == 0
        np.testing.assert_allclose(region.center, 0.0, atol=1e-9)

    def test_contains_ppt_witness_for_npt_state(self):
        for rho in [states.bell(), states.werner(0.8)]:
            region = initial_region(rho)
            w = ppt_witness_bloch(rho)
            assert w is not None
            # scaled inside the ball, the true witness satisfies every cut
            assert strictly_inside(region, 0.9 * w)


class TestCut:
    def _mock_maximizer(self, rho, net, region):
        """The tested unit direction and the oracle's answer for it."""
        a_hat = region.center / np.linalg.norm(region.center)
        return a_hat, wopt_max(from_bloch(a_hat, rho.m, rho.n), rho.m, rho.n, net)

    def test_previous_center_not_strictly_feasible(self, net_001):
        rho = states.werner(0.2)
        region = initial_region(rho)
        a_hat, res = self._mock_maximizer(rho, net_001, region)
        new = cut(region, a_hat, res.maximizer, SearchStats())
        assert not strictly_inside(new, region.center, margin=1e-12)
        assert strictly_inside(new, new.center)

    def test_origin_remains_on_boundary(self, net_001):
        rho = states.werner(0.2)
        region = initial_region(rho)
        a_hat, res = self._mock_maximizer(rho, net_001, region)
        new = cut(region, a_hat, res.maximizer, SearchStats())
        # every cut passes through the origin: it satisfies each with equality
        assert np.all(new.normals @ np.zeros_like(new.center) >= -1e-12)

    def test_radius_proxy_nonincreasing(self, net_001):
        rho = states.random_full_rank(2, 2, 5)
        stats = SearchStats()
        region = initial_region(rho)
        radii = [region.radius_proxy]
        for _ in range(20):
            a_hat, res = self._mock_maximizer(rho, net_001, region)
            try:
                region = cut(region, a_hat, res.maximizer, stats)
            except RegionEmptyError:
                break
            radii.append(region.radius_proxy)
        assert all(b <= a + 1e-9 for a, b in zip(radii, radii[1:]))
        assert len(radii) >= 5


class TestWsepSolve:
    def test_maximally_mixed_separable(self, net_001):
        res = wsep_solve(states.maximally_mixed(2, 2), 0.1, net_001)
        assert res.verdict.outcome == SEPARABLE

    def test_werner_09_entangled(self, net_0005):
        res = wsep_solve(states.werner(0.9), 0.05, net_0005)
        assert res.verdict.outcome == ENTANGLED
        assert res.witness is not None and res.witness.margin > 0
        finer = build_net(2, 0.0025)
        assert revalidate(res.witness, states.werner(0.9), finer) > 0

    def test_werner_02_separable(self, net_0005):
        res = wsep_solve(states.werner(0.2), 0.05, net_0005)
        assert res.verdict.outcome == SEPARABLE

    def test_theoretical_cap_asserts_closeness(self, net_0005, monkeypatch):
        monkeypatch.setattr(witness, "iteration_cap", lambda dim, delta: 3)
        res = wsep_solve(states.werner(0.2), 0.05, net_0005)
        assert (res.verdict.outcome, res.verdict.reason) == (SEPARABLE, "witness_search")
        assert res.stop == "cap" and res.iterations == 3
        # three atoms past the four computational ones leave the primal far from delta' = 1/32
        assert res.stats.certificate_checks == 0 and res.stats.primal_distance > 0.1

    def test_stats_of_a_detection(self, net_0005):
        res = wsep_solve(states.werner(0.9), 0.05, net_0005)
        # no cut: the single halfspace v(rho) . x >= 0 starts at its analytic center
        assert res.stop == "witness" and res.stats.ldp_steps == 0 and res.stats.newton_steps == 0
        assert res.stats.oracle_evaluated == res.iterations * net_0005.size  # n = 2: closed form

    @pytest.mark.parametrize("seed", [0, 1])
    def test_2x3_search_certifies_every_cut(self, monkeypatch, seed):
        # the cuts alone, which the primal would stop after a few oracle calls
        outcomes = []
        solve = witness._feasible_start

        def checked(normals, weights, point, stats):
            try:
                x, lam, p = solve(normals, weights, point, stats)
            except RegionEmptyError as exc:
                assert np.all(exc.weights >= 0.0) and exc.weights.sum() == pytest.approx(1.0)
                assert np.linalg.norm(normals.T @ exc.weights) <= 1e-9
                outcomes.append("empty")
                raise
            assert np.min(normals @ x) > 1e-9 * np.linalg.norm(x)
            outcomes.append("interior")
            return x, lam, p

        monkeypatch.setattr(witness, "_feasible_start", checked)
        delta = 0.1
        net = build_net(2, delta / 10.0, method="band")
        stop, calls, stats = cutting_plane_search(states.product_mixture(2, 3, 24, seed), delta, net)
        assert stop in ("dikin_radius", "region_empty")
        assert len(outcomes) == calls  # one per cut: the initial region is in closed form
        assert outcomes.count("empty") == (stop == "region_empty")
        assert 0 < stats.ldp_steps <= 2 * calls
        assert calls < stats.newton_steps
        assert 0 < stats.oracle_evaluated < calls * net.size  # pruned scans

    def test_isotropic_2x4_scans_stay_small(self):
        # w Phi + (1 - w) I/8: the centers approach U (x) U*-invariant witnesses,
        # which tie the incumbent at every net point, and a certificate at the
        # incumbent itself cannot rule a tie out
        phi = np.zeros(8)
        phi[[0, 5]] = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix.make(2, 4, 0.35 * np.outer(phi, phi) + 0.65 * np.eye(8) / 8)
        net = build_net(2, 0.005, method="band")
        assert net.size == 240_544
        res = wsep_solve(rho, 0.05, net)
        assert (res.verdict.outcome, res.stop, res.iterations) == (ENTANGLED, "witness", 11)
        assert res.stats.oracle_evaluated < 10_000

    def test_net_too_coarse_rejected(self, net_001):
        with pytest.raises(NetTooCoarseError):
            wsep_solve(states.werner(0.9), 0.05, net_001)

    def test_iteration_cap_honored(self, net_0005):
        rho = states.werner(0.2)
        res = wsep_solve(rho, 0.05, net_0005)
        assert res.iterations <= iteration_cap(15, 0.05)

    def test_sup_norm_rescale(self, net_0005):
        res = wsep_solve(states.werner(0.9), 0.05, net_0005)
        c = res.witness.sup_normalized_bloch()
        assert np.max(np.abs(c)) == pytest.approx(1.0)

    def test_two_sided_consistency_with_ppt(self, net_001):
        # 100-state random suite; judge every state whose PT spectrum sits
        # further than delta from the boundary (PPT is exact at mn <= 6)
        delta = 0.1
        tested = 0
        for seed in range(50):
            for m, n in [(2, 2), (2, 3)]:
                rho = states.random_full_rank(m, n, seed + 101 * n)
                lam = float(
                    np.min(np.linalg.eigvalsh(partial_transpose(rho.mat, m, n, "B")))
                )
                if abs(lam) <= delta:
                    continue
                tested += 1
                res = wsep_solve(rho, delta, net_001)
                expected = ENTANGLED if lam < 0 else SEPARABLE
                assert res.verdict.outcome == expected, (m, n, seed, lam)
        assert tested >= 10  # the rest of the suite sits within delta of the boundary

    def test_3x2_search_on_the_smaller_side_agrees_with_ppt(self, net_001):
        # the A side is C^3; the m = 2 net scans the B side (PPT is exact at mn = 6)
        delta = 0.1
        tested = 0
        for seed in range(40):
            rho = states.random_full_rank(3, 2, seed + 707)
            lam = float(np.min(np.linalg.eigvalsh(partial_transpose(rho.mat, 3, 2, "B"))))
            if abs(lam) <= delta:
                continue
            tested += 1
            res = wsep_solve(rho, delta, net_001)
            assert res.verdict.outcome == (ENTANGLED if lam < 0 else SEPARABLE), (seed, lam)
            if res.witness is not None:
                assert res.witness.operator.shape == (6, 6)
        assert tested >= 5
        for seed in range(3):  # the random full-rank states far from the boundary are all NPT
            rho = states.product_mixture(3, 2, 12, seed)
            assert ppt_test(rho).outcome == SEPARABLE
            res = wsep_solve(rho, delta, net_001)
            assert res.verdict.outcome == SEPARABLE
            assert 0 < res.stats.oracle_evaluated < res.iterations * net_001.size  # C^3 conditioned out
            assert 0 < res.stats.oracle_bounded < res.iterations * net_001.size

    def test_consistency_at_fine_delta(self):
        # spot check at delta = 0.01 for states > 0.02 off the PT boundary
        net = build_net(2, 0.001)
        entangled = states.random_full_rank(2, 2, 4)
        lam = float(np.min(np.linalg.eigvalsh(partial_transpose(entangled.mat, 2, 2, "B"))))
        assert lam < -0.02
        assert wsep_solve(entangled, 0.01, net).verdict.outcome == ENTANGLED
        separable = states.product_mixture(2, 2, 8, 1)
        lam = float(np.min(np.linalg.eigvalsh(partial_transpose(separable.mat, 2, 2, "B"))))
        assert lam > 0.02
        assert wsep_solve(separable, 0.01, net).verdict.outcome == SEPARABLE

    def test_local_unitary_covariance(self, net_0005):
        rho = states.werner(0.8)
        base = wsep_solve(rho, 0.05, net_0005).verdict.outcome
        for seed in range(3):
            u, v = random_local_unitaries(2, 2, seed)
            uv = np.kron(u, v)
            rotated = DensityMatrix.make(2, 2, uv @ rho.mat @ uv.conj().T)
            assert wsep_solve(rotated, 0.05, net_0005).verdict.outcome == base

    def test_separable_verdict_agrees_with_exact_ppt(self, net_0005):
        # PPT is exact at mn <= 6: separable verdicts must not contradict it
        rho = states.product_mixture(2, 3, 6, 11)
        assert ppt_test(rho).outcome == SEPARABLE
        assert wsep_solve(rho, 0.05, net_0005).verdict.outcome == SEPARABLE


def qrat_image(mat):
    """The exact image of a float state as rows of QRat: the upper triangle's
    floats, mirrored, and the last diagonal entry the `Fraction` that makes the
    trace exactly 1 (the reference of `exact_image`)."""
    upper = np.triu(mat, 1)
    image = upper + upper.conj().T + np.diag(mat.diagonal().real)  # adds only zeros: exact
    rows = [[QRat(z.real, z.imag) for z in row] for row in image.tolist()]
    rows[-1][-1] = QRat(1 - sum(map(Fraction, image.diagonal().real[:-1].tolist())), 0.0)
    return tuple(map(tuple, rows))


def reference_min_norm(points):
    """Least-norm point of the hull of the rows by NNLS on [P^T; M 1^T] lam = [0; M]."""
    k, dim = points.shape
    big = 1e4
    a = np.vstack([points.T, np.full((1, k), big)])
    lam, _ = scipy.optimize.nnls(a, np.append(np.zeros(dim), big))
    return points.T @ (lam / lam.sum())


class TestPrimal:
    def test_min_norm_point_matches_nnls(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            dim, k = int(rng.integers(3, 36)), int(rng.integers(1, 50))
            points = rng.standard_normal((k, dim)) + rng.standard_normal(dim)
            lam, x, _ = _min_norm_point(points, np.zeros(k), np.zeros(dim), 0.0)
            assert np.all(lam >= 0.0) and lam.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(points.T @ lam, x, atol=1e-12)
            want = reference_min_norm(points)
            assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(want), abs=1e-7)

    def test_min_norm_point_stops_at_the_floor(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 15))  # the origin lies inside their hull
        lam, x, _ = _min_norm_point(points, np.zeros(30), np.zeros(15), 0.0)
        assert np.linalg.norm(x) < 1e-12
        floor = 0.5
        lam, x, _ = _min_norm_point(points, np.zeros(30), np.zeros(15), floor)
        assert 1e-12 < np.linalg.norm(points.T @ lam) <= floor

    @pytest.mark.parametrize("rho", [
        *(states.random_full_rank(m, n, seed) for m, n in [(2, 2), (2, 3), (3, 3)]
          for seed in range(3)),
        *(states.product_mixture(m, n, terms, 5) for m, n, terms in [(2, 2, 3), (2, 3, 12)]),
        states.random_pure_product(2, 3, 1), states.maximally_mixed(2, 3),
        # diagonals with zero entries: a product with a computational factor, a diagonal
        # state, and a mixture supported on two of the four atoms
        DensityMatrix(2, 3, np.kron(np.full((2, 2), 0.5), np.diag([0.0, 1.0, 0.0]))),
        DensityMatrix(2, 2, np.diag([0.7, 0.0, 0.3, 0.0]).astype(complex)),
        DensityMatrix(2, 2, 0.5 * np.kron(np.full((2, 2), 0.5), np.diag([1.0, 0.0]))
                      + 0.5 * np.diag([1.0, 0.0, 0.0, 0.0])),
    ])
    def test_diagonal_start_equals_the_cold_wolfe_point(self, rho):
        # Wolfe from the last computational atom alone reaches the closed form: weights
        # diag(rho) and the point v(diag(rho)) - v(rho), with zero diagonal entries unweighted
        points = _computational_rows(rho.m, rho.n) - to_bloch(rho.mat, rho.m, rho.n)
        lam, x, _ = _min_norm_point(points, np.zeros(rho.dim), np.zeros(points.shape[1]), 0.0)
        start_lam, start_x = _diagonal_start(rho)
        np.testing.assert_allclose(start_lam, np.diag(rho.mat).real, rtol=0, atol=1e-15)
        np.testing.assert_allclose(start_lam, lam, rtol=0, atol=1e-12)
        np.testing.assert_allclose(start_x, x, rtol=0, atol=1e-12)
        assert np.all(lam[np.diag(rho.mat).real == 0.0] == 0.0)

    def test_maximally_mixed_is_certified_from_its_diagonal(self):
        # I/4 is its atoms' uniform mixture: distance exactly 0, and no net scan
        res = wsep_solve(states.maximally_mixed(2, 2), 0.3, build_net(2, 0.03, method="band"))
        assert (res.verdict.outcome, res.verdict.reason, res.verdict.exact) == (
            SEPARABLE, "closeness_certificate", True)
        assert (res.stop, res.iterations, res.verdict.detail) == ("certificate", 0, 0.0)
        assert res.stats.oracle_evaluated == res.stats.oracle_bounded == 0
        assert res.stats.certificate_checks == 1 and res.stats.primal_distance == 0.0
        assert verify_certificate(res.instance, res.certificate).accepted

    def test_diagonal_start_rejected_by_the_check_searches_on(self, monkeypatch):
        # a rejected check before the first oracle call halves the distance the next waits for
        check_primal, oracle_calls = witness._check_primal, []

        def first_rejected(inst, atoms, weights):
            qcert, check = check_primal(inst, atoms, weights)
            return qcert, dataclasses.replace(check, accepted=check.accepted and bool(oracle_calls))

        def counted_wopt_max(*args):
            oracle_calls.append(args)
            return wopt_max(*args)

        monkeypatch.setattr(witness, "_check_primal", first_rejected)
        monkeypatch.setattr(witness, "wopt_max", counted_wopt_max)
        rho = states.werner(0.2)  # 0.14 from its diagonal, within delta' = 1/4
        diagonal_distance = float(np.linalg.norm(_diagonal_start(rho)[1]))
        res = wsep_solve(rho, 0.3, build_net(2, 0.03, method="band"))
        assert res.stop == "certificate" and res.iterations == len(oracle_calls) >= 1
        assert res.stats.certificate_checks == 2 and res.stats.oracle_evaluated > 0
        assert res.stats.primal_distance <= diagonal_distance / 2.0
        assert verify_certificate(res.instance, res.certificate).accepted

    def test_one_by_one_state_is_certified_without_a_search(self):
        rho = states.maximally_mixed(1, 1)
        res = wsep_solve(rho, 0.5, build_net(1, 0.05))
        assert (res.verdict.outcome, res.verdict.reason, res.verdict.exact) == (
            SEPARABLE, "closeness_certificate", True)
        assert (res.stop, res.iterations, res.verdict.detail) == ("certificate", 0, 0.0)
        assert res.stats.oracle_evaluated == 0 and res.stats.certificate_checks == 1
        assert reference_verify(res.instance, res.certificate) == verify_certificate(
            res.instance, res.certificate)
        assert verify_certificate(res.instance, res.certificate).accepted

    @pytest.mark.parametrize("rho", [
        states.product_mixture(2, 3, 24, 7), states.random_full_rank(3, 3, 5),
        states.werner(0.3), states.maximally_mixed(2, 2), states.maximally_mixed(1, 1),
    ], ids=["mixture2x3", "full3x3", "werner03", "mixed2x2", "one1x1"])
    def test_exact_image_is_exact_with_unit_trace(self, rho):
        image = exact_image(rho.mat)
        rows, den, d = image.rows, image.den, rho.dim
        assert den & (den - 1) == 0  # a power of two
        for i in range(d):
            assert rows[i][i][1] == 0
            for j in range(i + 1, d):
                for part, float_part in zip(rows[i][j], (rho.mat[i, j].real, rho.mat[i, j].imag)):
                    a, b = float_part.as_integer_ratio()
                    assert part * b == a * den
                assert rows[j][i] == (rows[i][j][0], -rows[i][j][1])
        assert sum(rows[i][i][0] for i in range(d)) == den
        assert image == exact_rows(qrat_image(rho.mat))
        assert abs(rows[-1][-1][0] / den - rho.mat[-1, -1].real) < 1e-15

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_computational_rows_are_the_atoms_bloch_rows(self, m, n):
        rows = _computational_rows(m, n)
        atoms = [ProductState(ket(i, m), ket(j, n)).bloch() for i in range(m) for j in range(n)]
        assert rows.tobytes() == np.array(atoms).tobytes()

    def test_four_term_2x3_mixture_certified_within_a_second(self):
        # the cuts alone need 338 oracle calls and about 12 s here
        net = build_net(2, 0.005, method="band")
        rho = states.product_mixture(2, 3, 4, 0)
        started = time.perf_counter()
        res = wsep_solve(rho, 0.05, net)
        elapsed = time.perf_counter() - started
        assert (res.verdict.outcome, res.verdict.reason, res.verdict.exact) == (
            SEPARABLE, "closeness_certificate", True)
        assert res.stop == "certificate" and elapsed < 1.0
        assert res.verdict.detail < float(res.instance.delta_prime)
        assert verify_certificate(res.instance, res.certificate).accepted

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_certificates_pass_the_reference_check(self, seed):
        # mixtures shaped like the benchmark's, at its delta of 0.3
        rng = np.random.default_rng(seed)
        delta = 0.3
        net = build_net(2, delta / 10.0, method="band")
        cases = [states.werner(float(rng.uniform(0.05, 0.3)))]
        cases += [states.product_mixture(m, n, terms, seed + 10 * terms)
                  for m, n, terms in [(2, 2, 4), (2, 3, 12), (2, 3, 24), (3, 2, 24)]]
        for rho in cases:
            res = wsep_solve(rho, delta, net)
            assert res.stop == "certificate" and res.verdict.exact
            assert res.instance.rho == exact_rows(qrat_image(rho.mat))
            assert float(res.instance.delta_prime) <= delta
            check = reference_verify(res.instance, res.certificate)
            assert check.accepted
            assert check == verify_certificate(res.instance, res.certificate)
            assert res.verdict.detail == pytest.approx(math.sqrt(check.distance_sq))
            assert res.stats.certificate_checks >= 1

    def test_npt_state_beyond_delta_never_ends_on_the_certificate(self, net_001):
        # ||rho - sigma|| >= |lambda_min(rho^Gamma)| for separable sigma, so no
        # hull of product states comes within delta' < delta
        delta = 0.1
        tested = 0
        for seed in range(30):
            for m, n in [(2, 2), (2, 3), (3, 2)]:
                rho = states.random_full_rank(m, n, seed + 31 * n + 7 * m)
                lam = float(np.min(np.linalg.eigvalsh(partial_transpose(rho.mat, m, n, "B"))))
                if lam >= -delta:
                    continue
                tested += 1
                res = wsep_solve(rho, delta, net_001)
                assert res.stop != "certificate" and res.certificate is None
                assert res.stats.certificate_checks == 0
                assert res.verdict.outcome == ENTANGLED
        for w in (0.6, 0.8, 1.0):  # lambda_min = (1 - 3w)/4 <= -0.2
            res = wsep_solve(states.werner(w), delta, net_001)
            assert res.stop == "witness" and res.stats.certificate_checks == 0
        assert tested >= 10
