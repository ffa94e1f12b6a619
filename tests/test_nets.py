import math

import numpy as np
import pytest

from sepscan import nets, states
from sepscan.core import proj, trace_norm
from sepscan.nets import (
    DeltaNet,
    NetTooLargeError,
    build_net,
    gaps_to_net,
    haar_unit_vectors,
    verify_coverage,
)


def size_constant(m: int) -> float:
    """Measured constant C_SIZE(m) in |net| <= C_SIZE(m) * (1 + 2/delta)^(2m).

    Holds for both constructions at m <= 4 with C_SIZE(m) = 12 * 4^(m-2); the
    phase-fixed grid needs ~ (1/delta)^(2m-2) points, so the bound has room.
    """
    return 12.0 * 4.0 ** (m - 2)


def size_bound(m: int, delta: float) -> float:
    return size_constant(m) * (1.0 + 2.0 / delta) ** (2 * m)


def brute_force_grid_level(m: int, level_delta: float):
    """Every cell center of the full R^(2m-1) grid with a0 > 0 within half a
    cell diagonal of the sphere, projected; coordinates (Re x, Im x_1..x_(m-1))."""
    dim = 2 * m - 1
    h = level_delta / math.sqrt(dim)
    half_diag = 0.5 * h * math.sqrt(dim)
    k = int(math.ceil((1.0 + half_diag) / h))
    axis = (np.arange(-k, k) + 0.5) * h
    full = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    full = full[full[:, 0] > 0]
    # the build's summation order: level 1.0 at m = 3 has cells exactly on the boundary
    lead = min(dim - 2, 2)
    sq = np.sum(full[:, lead:] ** 2, axis=1)
    for i in range(lead):
        sq = sq + full[:, i] ** 2
    norms = np.sqrt(sq)
    keep = np.abs(norms - 1.0) <= half_diag
    real = full[keep] / norms[keep][:, None]
    return real[:, :m] + 1j * np.hstack([np.zeros((real.shape[0], 1)), real[:, m:]])


def dense_gaps(net, samples, chunk=1024):
    """Phase-quotient distance sqrt(2 - 2 max_j |<s, x_j>|) by dense products.

    Re and Im of <s, x> come from one real product each on (Re s, Im s).
    """
    s2 = np.hstack([samples.real, samples.imag])
    best = np.zeros(samples.shape[0])
    for start in range(0, net.size, chunk):
        x = net.points[start : start + chunk]
        re = s2 @ np.vstack([x.real.T, x.imag.T])
        im = s2 @ np.vstack([x.imag.T, -x.real.T])
        best = np.maximum(best, (re * re + im * im).max(axis=1))
    return np.sqrt(np.clip(2.0 - 2.0 * np.sqrt(best), 0.0, None))


class TestBuild:
    def test_degenerate_sphere_single_point(self):
        net = build_net(1, 2.0)
        assert net.size == 1
        assert verify_coverage(net, 1000, 0).passed

    @pytest.mark.parametrize("delta", [2.0, 0.5, 0.01])
    def test_m1_is_one_point_at_every_delta(self, delta):
        # CP^0 is a single point
        net = build_net(1, delta)
        np.testing.assert_array_equal(net.points, [[1.0]])
        assert verify_coverage(net, 1000, 0).max_gap == 0.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            build_net(2, 0.0)
        with pytest.raises(ValueError):
            build_net(2, -0.3)

    def test_unit_norm_points(self):
        for method in ("grid", "band"):
            net = build_net(2, 0.5, method=method)
            norms = np.linalg.norm(net.points, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_size_bound_m2(self):
        net = build_net(2, 0.5, method="grid")
        assert net.size <= size_bound(2, 0.5)

    @pytest.mark.parametrize("delta", [0.8, 0.4])
    def test_size_bound_m3(self, delta):
        net = build_net(3, delta, method="grid")
        assert net.size <= size_bound(3, delta)

    def test_refinement_is_superset(self):
        coarse = build_net(2, 0.5, method="grid")
        fine = build_net(2, 0.2, method="grid")
        assert fine.size > coarse.size
        np.testing.assert_array_equal(fine.points[: coarse.size], coarse.points)

    def test_band_refinement_is_superset(self):
        coarse = build_net(2, 0.3, method="band")
        fine = build_net(2, 0.1, method="band")
        np.testing.assert_array_equal(fine.points[: coarse.size], coarse.points)

    def test_grid_too_large_raises(self):
        # refused by the size estimate, before any grid level is allocated
        with pytest.raises(NetTooLargeError):
            build_net(3, 0.1)

    @pytest.mark.parametrize("m,delta", [(2, 1e-200), (2, 1e-201), (20, 1e-9), (60, 0.001),
                                         (200, 1.9)])
    def test_size_bound_beyond_float_range_raises(self, m, delta):
        # the bound underflows (h**dim, step**2) or overflows (gamma, (1 + d)**dim)
        with pytest.raises(NetTooLargeError):
            build_net(m, delta)

    def test_one_point_net_needs_no_size_bound(self):
        assert build_net(200, 2.0).size == 1  # its bound overflows, unused

    @pytest.mark.parametrize(
        "m,delta,method", [(2, 0.4, "band"), (2, 0.02, "band"), (2, 2.0, "band"),
                           (3, 0.8, "grid"), (3, 2.0, "grid")]
    )
    def test_default_method_by_dimension(self, m, delta, method):
        assert build_net(m, delta).method == method

    def test_one_point_net_keeps_method(self):
        for method in ("band", "grid"):
            net = build_net(2, 2.0, method=method)
            assert net.method == method
            np.testing.assert_array_equal(net.points, [[1.0, 0.0]])

    @pytest.mark.parametrize("m,level", [(2, 2.0 * 2.0 ** -1.5), (3, 1.0)])
    def test_grid_level_matches_brute_force(self, m, level):
        got = nets._grid_level_points(m, level)
        want = brute_force_grid_level(m, level)
        np.testing.assert_array_equal(got, want)

    def test_band_only_m2(self):
        with pytest.raises(ValueError):
            build_net(3, 0.5, method="band")

    def test_determinism(self):
        a = build_net(2, 0.3, method="grid")
        b = build_net(2, 0.3, method="grid")
        assert np.array_equal(a.points, b.points)
        c = build_net(2, 0.3, method="band")
        d = build_net(2, 0.3, method="band")
        assert np.array_equal(c.points, d.points)


class TestCoverage:
    @pytest.mark.parametrize("delta", [0.5, 0.3])
    def test_grid_m2_coverage(self, delta):
        net = build_net(2, delta, method="grid")
        assert verify_coverage(net, 10_000, 1).max_gap <= delta

    def test_band_coverage(self):
        net = build_net(2, 0.2, method="band")
        assert verify_coverage(net, 10_000, 2).max_gap <= 0.2

    def test_band_fine_coverage(self):
        net = build_net(2, 0.02, method="band")
        assert verify_coverage(net, 10_000, 3).max_gap <= 0.02

    def test_grid_m3_coverage(self):
        net = build_net(3, 0.8, method="grid")
        assert verify_coverage(net, 5_000, 4).max_gap <= 0.8

    def test_decimated_net_fails(self):
        net = build_net(2, 0.4, method="grid")
        # carve a hole around e_1: every nearby point removed
        e1 = np.zeros(2, dtype=complex)
        e1[0] = 1.0
        keep = np.linalg.norm(net.points - e1, axis=1) > 0.7
        broken = DeltaNet(2, 0.4, net.points[keep], method="grid")
        report = verify_coverage(broken, 20_000, 5)
        assert report.max_gap > 0.4
        assert not report.passed

    def test_single_point_net_passes_at_diameter(self):
        e1 = np.zeros((1, 2), dtype=complex)
        e1[0, 0] = 1.0
        net = DeltaNet(2, 2.0, e1)
        assert verify_coverage(net, 2000, 6).passed


class TestNetQualityImpliesStateApproximation:
    @pytest.mark.parametrize("method", ["grid", "band"])
    def test_trace_norm_two_delta(self, method):
        # || |a b><a b| - |x b><x b| ||_1 <= 2 delta for the nearest net point x
        delta = 0.3
        net = build_net(2, delta, method=method)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = states.random_unit_vector(2, rng)
            b = states.random_unit_vector(3, rng)
            x = net.points[int(np.argmax(np.abs(net.points.conj() @ a)))]
            lhs = trace_norm(np.kron(proj(a), proj(b)) - np.kron(proj(x), proj(b)))
            gap = gaps_to_net(net, a[None, :])[0]
            assert lhs <= 2.0 * gap + 1e-9
            assert lhs <= 2.0 * delta + 1e-9


class TestPhaseFixedGrid:
    @pytest.mark.parametrize("m,delta", [(3, 0.8), (3, 0.4), (4, 0.8)])
    def test_covers_rays(self, m, delta):
        net = build_net(m, delta)
        samples = haar_unit_vectors(m, 2000, 11)
        dense = dense_gaps(net, samples)
        assert dense.max() <= delta
        np.testing.assert_allclose(gaps_to_net(net, samples), dense, rtol=0, atol=1e-12)

    def test_points_are_phase_fixed(self):
        net = build_net(3, 0.4)
        assert np.all(net.points[:, 0].real > 0) and np.all(net.points[:, 0].imag == 0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_level_count_brackets_built_size(self, monkeypatch, m):
        # every ladder level that is cheap to build: the count over the widened
        # window is never below the built size, over the narrowed one never above
        levels, wide = [], []
        for d in nets._ladder_levels(1e-3):
            wide.append(nets._grid_level_count(m, d))
            if wide[-1] > 250_000:
                wide.pop()
                break
            levels.append(d)
        monkeypatch.setattr(nets, "COUNT_SLACK", -nets.COUNT_SLACK)
        narrow = [nets._grid_level_count(m, d) for d in levels]
        built = [nets._grid_level_points(m, d).shape[0] for d in levels]
        assert len(levels) >= 2
        for l, (lo, size, hi) in enumerate(zip(narrow, built, wide)):
            assert lo <= size <= hi
            if l % 2:  # delta irrational: no center on the window's edge, so the count is exact
                assert lo == size == hi

    @pytest.mark.parametrize("m,delta,size", [(4, 0.5, 1_606_080), (5, 1.0, 1_762_816)])
    def test_counted_size_admits(self, monkeypatch, m, delta, size):
        # both fit MAX_POINTS, though the volume bound on their shells does not
        # (6,112,822 and 21,865,561); checked without allocating the nets
        built = []

        def level_points(m, d):
            built.append(d)
            return np.ones((1, m), dtype=complex)

        monkeypatch.setattr(nets, "_grid_level_points", level_points)
        assert build_net(m, delta).size == len(nets._ladder_levels(delta)) == len(built)
        assert size <= nets._grid_size(m, delta) <= 1.01 * size

    @pytest.mark.parametrize("m,delta", [(2, 0.002), (3, 0.1), (4, 0.35), (5, 0.7), (60, 0.001)])
    def test_counted_size_refuses_before_building(self, monkeypatch, m, delta):
        def level_points(m, d):
            raise AssertionError("a level of a refused net was built")

        monkeypatch.setattr(nets, "_grid_level_points", level_points)
        with pytest.raises(NetTooLargeError):
            build_net(m, delta, method="grid")

    def test_projector_embedding_matches_bloch_chord(self):
        # at m = 2 the embedding is the Bloch chord over sqrt(2)
        x = haar_unit_vectors(2, 50, 12)
        a, b = x[:, 0], x[:, 1]
        bloch = np.stack([2 * (a.conj() * b).real, 2 * (a.conj() * b).imag,
                          np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)
        emb = nets._projector_embedding(x)
        chord = np.linalg.norm(bloch[:, None] - bloch[None], axis=2)
        frob = np.linalg.norm(emb[:, None] - emb[None], axis=2)
        np.testing.assert_allclose(frob, chord / math.sqrt(2.0), rtol=0, atol=1e-12)


    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_features_are_projector_coordinates(self, m):
        # tr(xx^dagger yy^dagger) = |<x, y>|^2 = f(x).f(y) with the off-diagonal pairs halved
        x, y = haar_unit_vectors(m, 40, 5), haar_unit_vectors(m, 40, 6)
        fx, fy = nets.projector_features(x), nets.projector_features(y)
        assert fx.shape == (m * m, 40)
        weights = np.r_[np.ones(m), np.full(m * m - m, 0.5)]
        np.testing.assert_allclose(np.einsum("j,jk,jl->kl", weights, fx, fy),
                                   np.abs(x.conj() @ y.T) ** 2, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_features_match_the_vectorized_form(self, m):
        # the row-at-a-time fill against the whole-array expressions it replaced
        x = haar_unit_vectors(m, 300, 8)
        i, j = np.triu_indices(m, 1)
        off = (2.0 * x[:, i].conj() * x[:, j]).T
        want = np.concatenate([(x.real**2 + x.imag**2).T, off.real, off.imag])
        assert np.array_equal(nets.projector_features(x), want)

    def test_net_features_are_built_once(self):
        net = build_net(3, 0.8)
        feats = net.features
        assert feats is net.features and not feats.flags.writeable
        np.testing.assert_array_equal(feats, nets.projector_features(net.points))


class TestHaarSampling:
    def test_unit_norm_and_deterministic(self):
        a = haar_unit_vectors(3, 100, 7)
        b = haar_unit_vectors(3, 100, 7)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
