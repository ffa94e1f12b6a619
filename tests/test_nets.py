import itertools
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


def in_shell(s, dim: int, l: int):
    """Whether the cell center with S = |2i + 1|^2 lies strictly within half a cell
    diagonal 2^(-l/2) of the sphere at level l: |sqrt(S / (dim 2^l)) - 1| < 2^(-l/2),
    squared twice into integers."""
    return (s - dim * (2**l + 1)) ** 2 < dim * dim * 2 ** (l + 2)


def brute_force_grid_level(m: int, l: int):
    """Every odd integer vector o = 2i + 1 of R^(2m-1) with o_0 > 0 whose cell
    center (h/2) o lies strictly within half a cell diagonal of the sphere at
    level l and at no coarser level, projected to o/|o|, in lexicographic
    order; coordinates (Re x, Im x_1..x_(m-1))."""
    dim = 2 * m - 1
    bound = int(math.sqrt(dim) * (2 ** (l / 2) + 1)) + 1
    axis = np.arange(-bound, bound + 1)
    axis = axis[axis % 2 == 1]
    full = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    full = full[full[:, 0] > 0]
    s = np.sum(full**2, axis=1)
    keep = in_shell(s, dim, l)
    for j in range(l):
        keep &= ~in_shell(s, dim, j)
    real = full[keep] / np.sqrt(s[keep])[:, None]
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
        # refused by the size count, before any grid level is allocated
        with pytest.raises(NetTooLargeError):
            build_net(3, 0.1)

    @pytest.mark.parametrize("m,delta", [(2, 1e-200), (2, 1e-201), (20, 1e-9), (60, 0.001),
                                         (200, 1.9)])
    def test_size_bound_beyond_float_range_raises(self, m, delta):
        # far past MAX_POINTS: the exact count stops at the first level that passes it
        with pytest.raises(NetTooLargeError):
            build_net(m, delta)

    def test_one_point_net_needs_no_size_bound(self):
        assert build_net(200, 2.0).size == 1  # no level is counted

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

    @pytest.mark.parametrize("m,l", [(2, 3), (2, 6), (3, 2), (3, 4), (4, 1)])
    def test_grid_level_matches_brute_force(self, m, l):
        got = nets._grid_level_points(m, l)
        want = brute_force_grid_level(m, l)
        assert got.shape[0] > 0
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
    def test_grid_level_count_equals_built_size(self, m):
        # every ladder level that is cheap to build
        built = 0
        for l in nets._ladder_levels(1e-3):
            count = nets._grid_level_count(m, l)
            if count > 250_000:
                break
            assert count == nets._grid_level_points(m, l).shape[0]
            built += 1
        assert built >= 2

    def test_band_level_count_equals_built_size(self):
        for l in nets._ladder_levels(0.002):
            assert nets._band_level_count(l) == nets._band_level_points(l).shape[0]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_no_center_is_kept_at_two_levels(self, m):
        # an odd vector o has the same S = |o|^2 at every level: S lies in at most
        # one level's window, that of the coarsest level whose shell holds its center
        dim, top = 2 * m - 1, 12
        windows = [nets._grid_window(dim, l) for l in range(top)]
        for s in range(dim, windows[-1][1] + 1):
            kept = [l for l, (lo, hi) in enumerate(windows) if lo <= s <= hi]
            assert kept == [l for l in range(top) if in_shell(s, dim, l)][:1]

    @pytest.mark.parametrize("m,deltas", [(2, [1.0, 0.5, 0.25, 0.125]), (3, [1.0, 0.5])])
    def test_corner_directions_are_covered_by_neighbour_cells(self, m, deltas):
        # s/sqrt(dim), s a sign vector with s_0 = +1, is a grid vertex at even levels
        # l >= 2, where the two cells that touch the sphere only there have their
        # centers on the window's edge and are dropped; the other cells at that
        # vertex cover it, even with every point in its direction taken out
        dim = 2 * m - 1
        signs = np.array([(1, *s) for s in itertools.product((-1, 1), repeat=dim - 1)])
        real = signs / math.sqrt(dim)
        corners = real[:, :m] + 1j * np.pad(real[:, m:], ((0, 0), (1, 0)))
        for delta in deltas:
            net = build_net(m, delta, method="grid")
            off = np.abs(net.points @ corners.conj().T).max(axis=1) < 1.0 - 1e-9
            others = DeltaNet(m, delta, net.points[off], method="grid")
            assert others.size < net.size
            assert dense_gaps(others, corners).max() <= delta

    @pytest.mark.parametrize("m,delta,size", [(4, 0.5, 1_211_072), (5, 1.0, 987_904)])
    def test_counted_size_admits(self, monkeypatch, m, delta, size):
        # both fit MAX_POINTS, though the volume bound on their shells does not
        # (6,112,822 and 21,865,561); checked without allocating the nets
        built = []

        def level_points(m, l):
            built.append(l)
            return np.ones((1, m), dtype=complex)

        monkeypatch.setattr(nets, "_grid_level_points", level_points)
        assert build_net(m, delta).size == len(nets._ladder_levels(delta)) == len(built)
        assert sum(nets._grid_level_count(m, l) for l in built) == size

    @pytest.mark.parametrize("m,delta", [(2, 0.002), (3, 0.1), (4, 0.35), (5, 0.7), (60, 0.001)])
    def test_counted_size_refuses_before_building(self, monkeypatch, m, delta):
        def level_points(m, d):
            raise AssertionError("a level of a refused net was built")

        monkeypatch.setattr(nets, "_grid_level_points", level_points)
        with pytest.raises(NetTooLargeError):
            build_net(m, delta, method="grid")

    def test_band_counted_size_refuses_before_building(self, monkeypatch):
        def level_points(l):
            raise AssertionError("a level of a refused net was built")

        monkeypatch.setattr(nets, "_band_level_points", level_points)
        with pytest.raises(NetTooLargeError):
            build_net(2, 0.0005)

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
