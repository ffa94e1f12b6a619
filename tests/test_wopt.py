import tracemalloc

import numpy as np
import pytest

from conftest import random_hermitian_unit
from sepscan import states, wopt
from sepscan.core import DimensionMismatchError, from_bloch, ket, proj, to_bloch
from sepscan.nets import build_net, haar_unit_vectors, projector_features
from sepscan.wopt import (
    ProductState,
    _certified_below,
    _frobenius_bound,
    quadratic_form,
    seesaw_max,
    wopt_max,
)

Z = np.diag([1.0, -1.0]).astype(complex)


def conditioned_operator(a, m, n, x):
    """B_x for one unit vector x, through the scan's own blocks."""
    blocks = wopt._conditioned_blocks(np.asarray(a, dtype=complex), m, n)
    return wopt._conditioned(projector_features(x[None, :]), blocks)[0]


@pytest.fixture(scope="module")
def net_04():
    return build_net(2, 0.4)


@pytest.fixture(scope="module")
def net_01():
    # same construction as net_04 so the refinement is a superset
    return build_net(2, 0.1)


class TestConditionedOperator:
    def test_product_operator(self):
        np.testing.assert_allclose(conditioned_operator(np.kron(Z, Z), 2, 2, ket(0, 2)), Z)

    def test_identity(self):
        x = np.array([0.6, 0.8j])
        np.testing.assert_allclose(conditioned_operator(np.eye(6), 2, 3, x), np.eye(3), atol=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        a = random_hermitian_unit(6, 1)
        for _ in range(10):
            x = states.random_unit_vector(2, rng)
            b = states.random_unit_vector(3, rng)
            bx = conditioned_operator(a, 2, 3, x)
            direct = quadratic_form(a, x, b)
            via_block = float((b.conj() @ bx @ b).real)
            assert abs(direct - via_block) < 1e-10


class TestConditionedBlocks:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 2), (3, 3), (2, 8)])
    @pytest.mark.parametrize("swap", [False, True])
    def test_matches_einsum(self, m, n, swap):
        a = random_hermitian_unit(m * n, 11)
        if swap:  # SWAP A SWAP, the operator the scan sees for a net on C^n
            a, m, n = swapped(a, m, n), n, m
        x = haar_unit_vectors(m, 200, seed=m + n)
        bx = np.einsum("gjl,gk->kjl", wopt._conditioned_blocks(a, m, n), projector_features(x))
        direct = np.einsum("ka,ajbl,kb->kjl", x.conj(), a.reshape(m, n, m, n), x)
        np.testing.assert_allclose(bx, direct, rtol=0, atol=1e-14)


class TestWoptMax:
    def test_diagonal_operator(self, net_04):
        a = np.kron(Z, Z) / 2.0  # unit HS norm; product max is 1/2 at |00>
        res = wopt_max(a, 2, 2, net_04)
        assert res.value >= 0.5 - 2 * 0.4
        assert res.value <= 0.5 + 1e-9
        assert res.guarantee == pytest.approx(0.8)

    def test_bell_projector(self, net_04, net_01):
        a = states.bell().mat  # pure state projector has unit HS norm
        coarse = wopt_max(a, 2, 2, net_04)
        fine = wopt_max(a, 2, 2, net_01)
        # product max of a maximally entangled projector is 1/2
        assert abs(fine.value - 0.5) <= 2 * 0.1
        assert abs(coarse.value - 0.5) <= 2 * 0.4
        assert coarse.value <= fine.value + 1e-8

    def test_constant_form(self, net_04):
        a = -np.eye(4, dtype=complex) / 2.0  # unit HS norm; form is -1/2 everywhere
        res = wopt_max(a, 2, 2, net_04)
        assert res.value == pytest.approx(-0.5, abs=1e-12)

    def test_maximizer_consistency(self, net_04):
        for seed in range(5):
            a = random_hermitian_unit(6, seed)
            res = wopt_max(a, 2, 3, net_04)
            redo = quadratic_form(a, res.maximizer.alpha, res.maximizer.beta)
            assert abs(redo - res.value) < 1e-9

    def test_two_delta_guarantee_and_monotonicity(self, net_04, net_01):
        for dims in [(2, 2), (2, 3)]:
            for seed in range(8):
                a = random_hermitian_unit(dims[0] * dims[1], seed)
                coarse = wopt_max(a, *dims, net_04).value
                fine = wopt_max(a, *dims, net_01).value
                assert coarse <= fine + 1e-8  # nets are nested by construction
                assert fine - coarse <= 2 * 0.4

    def test_abs_mode(self, net_04):
        a = -states.bell().mat  # signed max is small, |max| is 1 at the Bell state...
        res_abs = wopt_max(a, 2, 2, net_04, mode="abs")
        res_signed = wopt_max(a, 2, 2, net_04)
        # |form| max over products is 1/2 (attained with a minus sign)
        assert res_abs.value >= 0.5 - 2 * 0.4
        assert res_abs.value >= res_signed.value - 1e-12

    def test_separable_set_linkage(self):
        # max over explicit product pairs (net x net scan) never beats the
        # conditioned-eigenvector scan on the same net
        net = build_net(2, 0.5)
        a = random_hermitian_unit(4, 42)
        res = wopt_max(a, 2, 2, net)
        pts = net.points
        a4 = a.reshape(2, 2, 2, 2)
        t1 = np.einsum("ka,ajbl,kb->kjl", pts.conj(), a4, pts)
        vals = np.einsum("lj,kjm,lm->kl", pts.conj(), t1, pts).real
        assert vals.max() <= res.value + 1e-9
        assert res.value - vals.max() <= 2 * 0.5

    def test_rejects_unnormalized(self, net_04):
        with pytest.raises(ValueError):
            wopt_max(np.eye(4, dtype=complex), 2, 2, net_04)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, net_04, n, bad):
        a = np.full((2 * n, 2 * n), bad, dtype=complex)
        with pytest.raises(ValueError, match="Hilbert-Schmidt"):
            wopt_max(a, 2, n, net_04)
        a = random_hermitian_unit(2 * n, 1)
        a[0, 1] = bad
        with pytest.raises(ValueError, match="Hilbert-Schmidt"):
            wopt_max(a, 2, n, net_04, mode="abs")

    def test_rejects_wrong_net_dimension(self, net_04):
        a = random_hermitian_unit(9, 0)
        with pytest.raises(DimensionMismatchError):
            wopt_max(a, 3, 3, net_04)

    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_rejects_non_hermitian(self, net_04, mode):
        a = np.zeros((4, 4), dtype=complex)
        a[0, 1] = 1.0  # E_01: unit norm, Hermitian part (E_01 + E_10)/2
        with pytest.raises(ValueError, match="Hermitian"):
            wopt_max(a, 2, 2, net_04, mode=mode)
        b = random_hermitian_unit(6, 2)
        b[0, 1] += 1e-9  # well inside the norm check, outside the Hermiticity check
        with pytest.raises(ValueError, match="Hermitian"):
            wopt_max(b / np.linalg.norm(b), 2, 3, net_04)

    def test_deterministic(self, net_04):
        a = random_hermitian_unit(6, 9)
        r1 = wopt_max(a, 2, 3, net_04)
        r2 = wopt_max(a, 2, 3, net_04)
        assert r1.value == r2.value
        assert np.array_equal(r1.maximizer.alpha, r2.maximizer.alpha)


def exhaustive_max(a, m, n, net, mode):
    """Reference scan: every net point's full spectrum, B_x built by einsum.
    Returns the maximum and the first net index that reaches it, and the gap
    to the largest value at any other index (inf for a one-point net)."""
    a4 = np.asarray(a, dtype=complex).reshape(m, n, m, n)
    tops = []
    for start in range(0, net.size, 8192):
        x = net.points[start : start + 8192]
        vals = np.linalg.eigvalsh(np.einsum("ka,ajbl,kb->kjl", x.conj(), a4, x))
        tops.append(np.maximum(vals[:, -1], -vals[:, 0]) if mode == "abs" else vals[:, -1])
    top = np.concatenate(tops)
    i = int(np.argmax(top))
    gap = top[i] - np.delete(top, i).max() if top.size > 1 else np.inf
    return float(top[i]), i, gap


def assert_scan_matches(res, a, m, n, net, mode):
    """The scan's value is the exhaustive one, and its maximizer is the net
    point that reaches it, whenever that point is unique by more than 1e-12."""
    value, i, gap = exhaustive_max(a, m, n, net, mode)
    assert abs(res.value - value) <= 1e-12
    if gap > 1e-12:
        np.testing.assert_array_equal(res.maximizer.alpha, net.points[i])


def swapped(a, m, n):
    """SWAP A SWAP for A on C^m (x) C^n."""
    return a.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)


def centered_rows(bx):
    """The (n^2 + 1, K) rows of a Hermitian (K, n, n) stack: t = tr/n, the
    diagonal minus t, then sqrt(2) Re and sqrt(2) Im of the upper triangle."""
    i, j = np.triu_indices(bx.shape[-1], 1)
    diag = np.einsum("kjj->jk", bx.real)
    t = diag.mean(axis=0)
    upper = np.sqrt(2.0) * bx[:, i, j].T
    return np.concatenate([t[None], diag - t, upper.real, upper.imag])


def use_tiles(monkeypatch, points, n):
    """Scan in tiles, and certify in batches, of `points` net points (None: the
    module's own sizes)."""
    if points is not None:
        monkeypatch.setattr(wopt, "SCAN_TILE", points * (n * n + 1))
        monkeypatch.setattr(wopt, "CERTIFY_BATCH", points)


@pytest.fixture(scope="module")
def small_nets():
    return {2: build_net(2, 0.1), 3: build_net(3, 0.8)}


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3)])
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    @pytest.mark.parametrize("tile", [None, 64])
    def test_matches_exhaustive_scan(self, small_nets, monkeypatch, m, n, mode, tile):
        use_tiles(monkeypatch, tile, n)
        net = small_nets[m]
        for seed in range(2):
            a = random_hermitian_unit(m * n, seed + 30)
            res = wopt_max(a, m, n, net, mode=mode)
            assert_scan_matches(res, a, m, n, net, mode)
            at = quadratic_form(a, res.maximizer.alpha, res.maximizer.beta)
            assert abs((abs(at) if mode == "abs" else at) - res.value) <= 1e-12
            if n <= 2:
                assert res.evaluated == res.bounded == net.size

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 2), (3, 1), (8, 2), (4, 3)])
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_net_on_the_smaller_side(self, small_nets, m, n, mode):
        net = small_nets[n] if n > 1 else build_net(1, 2.0)
        for seed in range(2):
            a = random_hermitian_unit(m * n, seed + 40)
            res = wopt_max(a, m, n, net, mode=mode)
            assert res.maximizer.alpha.shape == (m,) and res.maximizer.beta.shape == (n,)
            assert abs(res.value - exhaustive_max(swapped(a, m, n), n, m, net, mode)[0]) <= 1e-12
            at = quadratic_form(a, res.maximizer.alpha, res.maximizer.beta)
            assert abs((abs(at) if mode == "abs" else at) - res.value) <= 1e-12
            assert res.guarantee == 2.0 * net.delta

    def test_swapped_scan_is_the_scan_of_the_swapped_operator(self, small_nets):
        net = small_nets[2]
        a = random_hermitian_unit(6, 3)
        direct = wopt_max(swapped(a, 3, 2), 2, 3, net)
        swap = wopt_max(a, 3, 2, net)
        assert swap.value == pytest.approx(direct.value, abs=1e-14)
        np.testing.assert_array_equal(swap.maximizer.beta, direct.maximizer.alpha)
        assert (swap.evaluated, swap.bounded) == (direct.evaluated, direct.bounded)


@pytest.fixture(scope="module")
def pruning_nets():
    # each case keeps its label (m, delta) and scans a net at least as large as
    # the Euclidean grid of that radius: 11,552, 91,088 and 75,968 points.
    # Grid nets at m = 2: the band nets are too small to leave tiles to prune
    return {(2, 0.4): build_net(2, 0.05, method="grid"),
            (2, 0.2): build_net(2, 0.03, method="grid"),
            (3, 0.8): build_net(3, 0.3)}


class TestScanPruning:
    @pytest.mark.parametrize(
        "m,n,delta", [(2, 3, 0.4), (2, 3, 0.2), (2, 4, 0.4), (2, 4, 0.2), (3, 3, 0.8)]
    )
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    @pytest.mark.parametrize("tile", [None, 4096])
    def test_matches_exhaustive_scan(self, pruning_nets, monkeypatch, m, n, delta, mode, tile):
        use_tiles(monkeypatch, tile, n)
        net = pruning_nets[(m, delta)]
        for seed in range(2):
            a = random_hermitian_unit(m * n, seed)
            res = wopt_max(a, m, n, net, mode=mode)
            assert_scan_matches(res, a, m, n, net, mode)
            assert res.evaluated < net.size
            assert res.bounded < net.size

    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_invariant_operator_ties_stop_at_the_bound(self, pruning_nets, mode):
        # |Phi><Phi| - I/8 is U (x) U*-invariant: every B_x has the spectrum
        # (3, -1, -1, -1)/8 up to scale, where the Frobenius bound is exact, so
        # every point ties the first incumbent and neither filter keeps one
        net = pruning_nets[(2, 0.4)]
        phi = np.zeros(8)
        phi[[0, 5]] = 1.0 / np.sqrt(2.0)
        a = np.outer(phi, phi) - np.eye(8) / 8
        a /= np.linalg.norm(a)
        res = wopt_max(a, 2, 4, net, mode=mode)
        assert res.evaluated == res.bounded == 1
        assert abs(res.value - exhaustive_max(a, 2, 4, net, mode)[0]) <= 1e-12

    def test_closed_form_evaluates_every_point(self, pruning_nets):
        net = pruning_nets[(2, 0.4)]
        a = random_hermitian_unit(4, 3)
        for mode in ("signed", "abs"):
            res = wopt_max(a, 2, 2, net, mode=mode)
            assert res.evaluated == net.size
            assert res.bounded == net.size
            assert abs(res.value - exhaustive_max(a, 2, 2, net, mode)[0]) <= 1e-12

    def test_abs_mode_negative_dominant(self, pruning_nets):
        net = pruning_nets[(3, 0.8)]
        rng = np.random.default_rng(5)
        v = states.random_unit_vector(9, rng)
        a = -np.outer(v, v.conj()) + 0.05 * random_hermitian_unit(9, 5)
        a /= np.linalg.norm(a)
        res = wopt_max(a, 3, 3, net, mode="abs")
        signed = wopt_max(a, 3, 3, net, mode="signed")
        assert res.value > signed.value + 0.1  # the negative end decides
        assert abs(res.value - exhaustive_max(a, 3, 3, net, "abs")[0]) <= 1e-12
        at = quadratic_form(a, res.maximizer.alpha, res.maximizer.beta)
        assert at < 0 and abs(abs(at) - res.value) < 1e-12

    def test_fully_pruned_tiles(self, pruning_nets, monkeypatch):
        net = pruning_nets[(2, 0.4)]
        calls = []
        spectra = wopt._scan_values

        def counted(bx, mode):
            calls.append(bx.shape[0])
            return spectra(bx, mode)

        use_tiles(monkeypatch, 64, 3)
        monkeypatch.setattr(wopt, "_scan_values", counted)
        a = random_hermitian_unit(6, 1)
        res = wopt_max(a, 2, 3, net)
        tiles = -(-net.size // 64)
        assert len(calls) < tiles  # some tile reached no eigensolve at all
        assert abs(res.value - exhaustive_max(a, 2, 3, net, "signed")[0]) <= 1e-12


def _hermitian_with_spectrum(rng, spectra):
    k, n = spectra.shape
    q, _ = np.linalg.qr(rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
    return np.einsum("kij,kj,klj->kil", q, spectra, q.conj())


class TestConditionedRows:
    @staticmethod
    def reference(bx, mode):
        """The bound from a Hermitian stack, t from np.trace."""
        n = bx.shape[-1]
        t = np.trace(bx, axis1=1, axis2=2).real / n
        dev = bx - t[:, None, None] * np.eye(n)
        fro2 = np.einsum("kjl,kjl->k", dev.real, dev.real)
        fro2 = fro2 + np.einsum("kjl,kjl->k", dev.imag, dev.imag)
        lead = np.abs(t) if mode == "abs" else t
        return t, lead + np.sqrt((n - 1) / n * fro2)

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 4), (3, 3)])
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_matches_trace_reference(self, m, n, mode):
        a = random_hermitian_unit(m * n, 7)
        net = build_net(m, 0.1 if m == 2 else 0.4, method="grid")
        blocks = wopt._conditioned_blocks(a, m, n)
        np.testing.assert_allclose(wopt._conditioned_map(blocks), centered_rows(blocks),
                                   rtol=0, atol=1e-15)
        rows = wopt._conditioned_map(blocks) @ net.features
        bx = wopt._conditioned(net.features, blocks)
        direct = np.einsum("ka,ajbl,kb->kjl", net.points.conj(), a.reshape(m, n, m, n), net.points)
        np.testing.assert_allclose(bx, direct, rtol=0, atol=1e-14)
        t_ref, bound_ref = self.reference(bx, mode)
        np.testing.assert_allclose(rows[0], t_ref, rtol=0, atol=1e-14)
        bound = _frobenius_bound(rows, n, mode)
        np.testing.assert_allclose(bound, bound_ref, rtol=0, atol=1e-14)


class TestFrobeniusPrefilter:
    """u = t + sqrt((n-1)/n) ||B - tI||_F equals lambda_max on spectra (lam, mu, ..., mu),
    so a point just above the level tests the rounding of the bound itself."""

    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize("gap", ["spread", "near_scalar"])
    @pytest.mark.parametrize("eps", [1e-10, 1e-14, -1e-14, -1e-10])
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_never_skips_at_or_above_level(self, n, gap, eps, mode):
        rng = np.random.default_rng([n, len(gap)])
        count = 2000
        top = rng.uniform(0.05, 0.95, count)
        if gap == "spread":
            mu = top - rng.uniform(0.01, 1.0, count)
        else:  # B close to a multiple of I: ||B - tI||^2 far below the rounding of n t^2
            mu = top - 10.0 ** rng.uniform(-9, -6, count)
        mu = np.maximum(mu, 0.0)
        bx = _hermitian_with_spectrum(rng, np.column_stack([np.repeat(mu[:, None], n - 1, 1), top]))
        if mode == "abs":  # spectrum (-lam, -mu, ..., -mu): the bottom decides, through |t|
            bx = -bx
        spectra = np.linalg.eigvalsh(bx)
        value = np.maximum(spectra[:, -1], -spectra[:, 0]) if mode == "abs" else spectra[:, -1]
        level = value - eps
        kept = _frobenius_bound(centered_rows(bx), n, mode) > level
        if eps > 0:  # at or above the level: never skipped
            assert kept.all()
        elif eps <= -1e-10:  # the bound is tight, so the prefilter prunes here
            assert not kept.any()

    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_map_rows_of_a_near_scalar_operator(self, net_01, mode):
        # every B_x within ~1e-10 of a multiple of I: ||B_x||_F^2 - n t^2 would
        # lose ~1e-8 to rounding, the deviations formed inside the GEMM do not
        a = np.eye(6) + 1e-10 * random_hermitian_unit(6, 4)
        a = a / np.linalg.norm(a)
        if mode == "abs":
            a = -a
        blocks = wopt._conditioned_blocks(a, 2, 3)
        bound = _frobenius_bound(wopt._conditioned_map(blocks) @ net_01.features, 3, mode)
        x = net_01.points
        vals = np.linalg.eigvalsh(np.einsum("ka,ajbl,kb->kjl", x.conj(), a.reshape(2, 3, 2, 3), x))
        value = np.maximum(vals[:, -1], -vals[:, 0]) if mode == "abs" else vals[:, -1]
        spread = vals[:, -1] - vals[:, 0]
        assert spread.max() < 1e-9
        assert np.all(bound >= value - 1e-15)
        assert np.all(bound <= value + np.sqrt(2.0) * spread + 1e-15)

    def test_bound_is_exact_for_two_levels(self):
        rng = np.random.default_rng(3)
        bx = _hermitian_with_spectrum(rng, rng.uniform(-1, 1, (500, 2)))
        vals = np.linalg.eigvalsh(bx)
        rows = centered_rows(bx)
        np.testing.assert_allclose(_frobenius_bound(rows, 2, "signed"), vals[:, -1], atol=1e-15)
        np.testing.assert_allclose(_frobenius_bound(rows, 2, "abs"),
                                   np.maximum(vals[:, -1], -vals[:, 0]), atol=1e-15)


class TestCholeskyCertificate:
    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize("kind", ["generic", "degenerate", "rank1"])
    @pytest.mark.parametrize("eps", [1e-10, 1e-14, -1e-14, -1e-10])
    def test_never_skips_at_or_above_level(self, n, kind, eps):
        rng = np.random.default_rng([n, len(kind)])
        count = 2000
        level = rng.uniform(0.05, 0.95, count)
        top = level + eps
        if kind == "generic":
            rest = top[:, None] - rng.uniform(0.0, 1.0, (count, n - 1))
        elif kind == "degenerate":  # the top eigenvalue repeated, the rest repeated too
            rest = np.repeat((top - 0.3)[:, None], n - 1, axis=1)
            rest[:, : n // 2] = top[:, None]
        else:  # rank 1: one eigenvalue top, the rest zero
            rest = np.zeros((count, n - 1))
        bx = _hermitian_with_spectrum(rng, np.column_stack([rest, top]))
        # shift so every matrix is tested against its own level at once
        certified = _certified_below(centered_rows(bx - level[:, None, None] * np.eye(n)), n, 0.0)
        if eps > 0:
            assert not certified.any()
        elif eps <= -1e-10:  # far enough below to be certified
            assert certified.all()

    def test_sign_tests_the_bottom_of_the_spectrum(self):
        rows = centered_rows(np.diag([-0.9, 0.1, 0.2]).astype(complex)[None])
        assert _certified_below(rows, 3, 0.5).all()
        assert not _certified_below(rows, 3, 0.5, -1.0).any()
        assert _certified_below(rows, 3, 0.95, -1.0).all()


@pytest.fixture(scope="class")
def memory_nets():
    nets = [build_net(3, 0.4), build_net(3, 0.3)]  # 62,128 and 247,488 points
    for net in nets:
        net.features  # built and kept by the net, before any scan is measured
    return nets


class TestScanMemory:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mode", ["signed", "abs"])
    def test_peak_does_not_grow_with_the_net(self, memory_nets, n, mode):
        a = random_hermitian_unit(3 * n, 0)
        wopt_max(a, 3, n, memory_nets[0], mode=mode)  # numpy's first eigensolve allocates once
        peaks = []
        for net in memory_nets:
            tracemalloc.start()
            try:
                wopt_max(a, 3, n, net, mode=mode)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        tile = 8 * wopt.SCAN_TILE  # bytes of a tile's rows
        assert max(peaks) <= 8 * tile
        assert abs(peaks[1] - peaks[0]) <= tile


def random_starts(m, n, count, seed):
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append((alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta)))
    return starts


class TestSeesaw:
    def test_matches_net_scan(self, net_01):
        for seed in range(5):
            a = random_hermitian_unit(4, seed + 100)
            net_val = wopt_max(a, 2, 2, net_01).value
            see_val = seesaw_max(a, 2, 2, init=random_starts(2, 2, 24, seed)).value
            assert see_val >= net_val - 1e-9  # ascent from many starts dominates the net
            assert see_val <= net_val + 2 * 0.1

    def test_phase_fixed_grid_guarantee_m3(self):
        # the m = 3 grid covers rays only; the 2*delta guarantee must still hold
        delta = 0.4
        net = build_net(3, delta)
        for seed in range(10):
            a = random_hermitian_unit(6, seed + 200)
            net_val = wopt_max(a, 3, 2, net).value
            see_val = seesaw_max(a, 3, 2, init=random_starts(3, 2, 24, seed)).value
            assert net_val >= see_val - 2 * delta
            assert net_val <= np.linalg.eigvalsh(a)[-1] + 1e-12

    def test_monotone_ascent_from_given_start(self):
        a = random_hermitian_unit(6, 7)
        alpha = np.array([1.0, 0.0], dtype=complex)
        beta = np.array([1.0, 0.0, 0.0], dtype=complex)
        start_val = quadratic_form(a, alpha, beta)
        res = seesaw_max(a, 2, 3, init=[(alpha, beta)])
        assert res.value >= start_val - 1e-12


class TestProductState:
    def test_bloch_round_trip(self):
        ps = ProductState(ket(0, 2), ket(1, 2))
        mat = np.kron(proj(ps.alpha), proj(ps.beta))
        assert abs(np.trace(mat) - 1.0) < 1e-12
        assert mat[1, 1] == pytest.approx(1.0)
        assert ps.bloch().shape == (15,)
        np.testing.assert_allclose(from_bloch(ps.bloch(), 2, 2), mat - np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 2)])
    def test_bloch_equals_that_of_the_dense_product(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for _ in range(10):
            alpha, beta = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (m, n))
            ps = ProductState(alpha / np.linalg.norm(alpha), beta / np.linalg.norm(beta))
            dense = to_bloch(np.kron(proj(ps.alpha), proj(ps.beta)), m, n)
            np.testing.assert_allclose(ps.bloch(), dense, rtol=0.0, atol=1e-15)
