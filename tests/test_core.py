import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_bloch_basis, partial_trace
from sepscan import core
from sepscan.core import (
    DensityMatrix,
    eig_hermitian,
    from_bloch,
    ket,
    partial_transpose,
    proj,
    realign,
    to_bloch,
    trace_norm,
)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def bell_state():
    v = (np.kron(ket(0, 2), ket(0, 2)) + np.kron(ket(1, 2), ket(1, 2))) / np.sqrt(2)
    return proj(v)


def random_traceless(d, rng):
    h = random_hermitian(d, rng)
    return h - np.trace(h).real / d * np.eye(d)


SHAPES = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 4)]


class TestHermitianBasis:
    """The basis as the maps see it: from_bloch of unit vectors."""

    def test_trivial_dimension(self):
        assert to_bloch(np.array([[0.7]]), 1, 1).shape == (0,)
        np.testing.assert_array_equal(from_bloch(np.zeros(0), 1, 1), [[0.0]])

    def test_two_qubits(self):
        ref = dense_bloch_basis(2, 2)
        assert ref.shape == (16, 4, 4)
        np.testing.assert_allclose(ref[0], np.eye(4) / 2, atol=1e-12)
        for k, e in enumerate(np.eye(15)):
            x = from_bloch(e, 2, 2)
            np.testing.assert_allclose(x, ref[k + 1], atol=1e-15)
            np.testing.assert_allclose(x, x.conj().T, atol=1e-15)
            assert abs(np.trace(x)) < 1e-12
            assert abs(np.trace(x @ x).real - 1.0) < 1e-12

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_gram_matrix(self, m, n):
        k = m * m * n * n - 1
        flat = np.stack([from_bloch(e, m, n).ravel() for e in np.eye(k)])
        gram = (flat.conj() @ flat.T).real
        np.testing.assert_allclose(gram, np.eye(k), atol=1e-9)

    def test_deterministic(self):
        x = random_hermitian(6, np.random.default_rng(2))
        core._local_basis.cache_clear()
        a = to_bloch(x, 2, 3)
        core._local_basis.cache_clear()
        assert np.array_equal(a, to_bloch(x, 2, 3))


class TestBlochMapping:
    def test_maximally_mixed_maps_to_origin(self):
        np.testing.assert_allclose(to_bloch(np.eye(4) / 4, 2, 2), 0.0, atol=1e-12)

    def test_basis_element_maps_to_unit_vector(self):
        coords = to_bloch(dense_bloch_basis(2, 2)[3], 2, 2)
        expected = np.zeros(15)
        expected[2] = 1.0
        np.testing.assert_allclose(coords, expected, atol=1e-9)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_dense_reference(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        ref = dense_bloch_basis(m, n)[1:]
        x = random_hermitian(m * n, rng)
        x /= np.linalg.norm(x)
        expected = np.einsum("kij,ji->k", ref, x).real
        np.testing.assert_allclose(to_bloch(x, m, n), expected, rtol=0, atol=1e-14)
        c = rng.standard_normal(ref.shape[0])
        c /= np.linalg.norm(c)
        np.testing.assert_allclose(
            from_bloch(c, m, n), np.tensordot(c, ref, axes=1), rtol=0, atol=1e-14
        )

    def test_isometry_identity(self):
        # tr(AB) = v(A).v(B) + tr(A)tr(B)/(mn) on 100 random pairs
        rng = np.random.default_rng(7)
        for m, n in [(2, 2), (2, 3)]:
            for _ in range(50):
                x = random_hermitian(m * n, rng)
                y = random_hermitian(m * n, rng)
                lhs = np.trace(x @ y).real
                rhs = to_bloch(x, m, n) @ to_bloch(y, m, n) + (
                    np.trace(x).real * np.trace(y).real / (m * n)
                )
                assert abs(lhs - rhs) < 1e-8

    def test_from_bloch_identity_case(self):
        # the identity has no coordinates, so it comes back as zero
        np.testing.assert_array_equal(from_bloch(np.zeros(15), 2, 2), np.zeros((4, 4)))
        back = from_bloch(to_bloch(np.eye(4) / 4, 2, 2), 2, 2)
        np.testing.assert_allclose(back, 0.0, atol=1e-15)

    def test_from_bloch_basis_element(self):
        e1 = np.zeros(15)
        e1[0] = 1.0
        np.testing.assert_allclose(from_bloch(e1, 2, 2), dense_bloch_basis(2, 2)[1], atol=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal(35)
        a = from_bloch(coords, 2, 3)
        np.testing.assert_allclose(to_bloch(a, 2, 3), coords, atol=1e-9)
        assert abs(np.trace(a)) < 1e-9

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_round_trip_traceless_operator(self, m, n):
        x = random_traceless(m * n, np.random.default_rng(m + 7 * n))
        np.testing.assert_allclose(from_bloch(to_bloch(x, m, n), m, n), x, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(core.DimensionMismatchError):
            to_bloch(np.eye(6), 2, 2)
        with pytest.raises(core.DimensionMismatchError):
            to_bloch(np.eye(6), 3, 3)
        with pytest.raises(core.DimensionMismatchError):
            from_bloch(np.zeros(35), 2, 2)
        with pytest.raises(core.DimensionMismatchError):
            from_bloch(np.zeros((3, 5)), 2, 2)

    def test_eight_by_eight_stays_small(self):
        # the 4096-element product basis alone would take 268 MB
        x = random_traceless(64, np.random.default_rng(88))
        tracemalloc.start()
        try:
            back = from_bloch(to_bloch(x, 8, 8), 8, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        np.testing.assert_allclose(back, x, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(proj(ket(0, 2)), proj(ket(1, 2)))
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "B"), proj(ket(0, 2)), atol=1e-12)

    def test_bell_reduces_to_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(bell_state(), 2, 2, "B"), np.eye(2) / 2, atol=1e-12)

    def test_identity_both_sides(self):
        rho = np.eye(6) / 6
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "A"), np.eye(3) / 3, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "B"), np.eye(2) / 2, atol=1e-12)
        assert abs(np.trace(partial_trace(rho, 2, 3, "A")) - 1.0) < 1e-12

    def test_random_product_recovers_factors(self):
        rng = np.random.default_rng(21)
        a = random_hermitian(2, rng)
        a = a @ a.conj().T
        a /= np.trace(a).real
        b = random_hermitian(3, rng)
        b = b @ b.conj().T
        b /= np.trace(b).real
        rho = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "A"), b, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 2, 3, "B"), a, atol=1e-12)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        d = np.diag(np.arange(6, dtype=complex))
        np.testing.assert_allclose(partial_transpose(d, 2, 3, "B"), d)

    def test_involution(self):
        rng = np.random.default_rng(3)
        x = random_hermitian(6, rng)
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(x, 2, 3, "B"), 2, 3, "B"), x
        )

    def test_bell_spectrum(self):
        vals = np.sort(np.linalg.eigvalsh(partial_transpose(bell_state(), 2, 2, "B")))
        np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_ta_is_global_transpose_of_tb(self):
        rng = np.random.default_rng(4)
        x = random_hermitian(6, rng)
        np.testing.assert_allclose(
            partial_transpose(x, 2, 3, "A"), partial_transpose(x, 2, 3, "B").T, atol=1e-12
        )

    def test_spectra_agree_across_sides(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_hermitian(6, rng)
            sa = np.sort(np.linalg.eigvalsh(partial_transpose(x, 2, 3, "A")))
            sb = np.sort(np.linalg.eigvalsh(partial_transpose(x, 2, 3, "B")))
            np.testing.assert_allclose(sa, sb, atol=1e-8)


class TestRealign:
    def test_product_is_rank_one(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        u = realign(np.kron(a, b), 2, 3)
        s = np.linalg.svd(u, compute_uv=False)
        assert s[1] < 1e-10
        assert abs(s[0] - np.linalg.norm(a) * np.linalg.norm(b)) < 1e-10

    def test_maximally_mixed_two_ways(self):
        u = realign(np.eye(4) / 4, 2, 2)
        via_def = trace_norm(u)
        via_svd = float(np.linalg.svd(u, compute_uv=False).sum())
        assert abs(via_def - via_svd) < 1e-9
        assert abs(via_def - 0.5) < 1e-10

    def test_bell_trace_norm_two(self):
        assert abs(trace_norm(realign(bell_state(), 2, 2)) - 2.0) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = random_hermitian(6, rng)
        y = random_hermitian(6, rng)
        lhs = realign(1.7 * x - 0.3 * y, 2, 3)
        rhs = 1.7 * realign(x, 2, 3) - 0.3 * realign(y, 2, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestEigHermitian:
    def test_identity(self):
        np.testing.assert_allclose(eig_hermitian(np.eye(5)), 1.0)

    def test_pauli_z_tensor_identity(self):
        z = np.diag([1.0, -1.0])
        np.testing.assert_allclose(eig_hermitian(np.kron(z, np.eye(2))), [1, 1, -1, -1], atol=1e-12)

    def test_one_by_one(self):
        np.testing.assert_array_equal(eig_hermitian(np.array([[-0.25]])), [-0.25])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(eig_hermitian(np.zeros((4, 4))), np.zeros(4))

    def test_degenerate_spectrum(self):
        h = np.kron(np.diag([1.0, -1.0]), np.eye(4))
        np.testing.assert_allclose(eig_hermitian(h), [1] * 4 + [-1] * 4, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 12, 36, 64])
    def test_reconstruction(self, d):
        # the spectrum reproduces the power sums tr(h^k), k = 1, 2, 3
        rng = np.random.default_rng(d)
        h = random_hermitian(d, rng)
        vals = eig_hermitian(h)
        scale = np.linalg.norm(h)
        for k in (1, 2, 3):
            tr_k = np.trace(np.linalg.matrix_power(h, k)).real
            assert abs(np.sum(vals**k) - tr_k) <= 1e-12 * d * scale**k

    def test_sorted_nonincreasing(self):
        rng = np.random.default_rng(11)
        vals = eig_hermitian(random_hermitian(9, rng))
        assert np.all(np.diff(vals) <= 1e-12)

    def test_matches_lapack(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            h = random_hermitian(8, rng)
            ours = eig_hermitian(h)
            lapack = np.sort(np.linalg.eigvalsh(h))[::-1]
            np.testing.assert_allclose(ours, lapack, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        h = np.eye(3, dtype=complex)
        h[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(h)
        h = np.eye(3, dtype=complex)
        h[0, 2] = h[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_hermitian(h)


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert abs(trace_norm(q) - 4.0) < 1e-9

    def test_rank_one(self):
        # ||u v^dagger||_1 = ||u|| ||v||, with no SVD on the reference side
        rng = np.random.default_rng(15)
        for shape in [(3, 5), (6, 2), (9, 9)]:
            u = rng.standard_normal(shape[0]) + 1j * rng.standard_normal(shape[0])
            v = rng.standard_normal(shape[1]) + 1j * rng.standard_normal(shape[1])
            expected = np.sqrt(np.vdot(u, u).real * np.vdot(v, v).real)
            assert abs(trace_norm(np.outer(u, v.conj())) - expected) < 1e-9 * expected

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
            expected = float(np.linalg.svd(x, compute_uv=False).sum())
            assert abs(trace_norm(x) - expected) < 1e-8


class TestDensityMatrix:
    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix.make(2, 2, np.eye(4))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix.make(2, 2, np.diag([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        mat = np.eye(4, dtype=complex) / 4
        mat[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix.make(2, 2, mat)

    def test_non_hermitian_rejected(self):
        # hermitizing this would pass trace and PSD checks, so only this check catches it
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix.make(2, 1, [[0.5, 0.1], [0.3, 0.5]])

    def test_symmetrized(self):
        mat = np.eye(4) / 4
        mat[0, 1] = 1e-13
        dm = DensityMatrix.make(2, 2, mat)
        assert core.is_hermitian(dm.mat, 1e-15)
