import inspect
import math
import time
from dataclasses import dataclass, fields
from itertools import permutations

import numpy as np
import pytest

from conftest import verify_extension
from sepscan import states, symext
from sepscan.core import DensityMatrix, partial_transpose
from sepscan.onesided import ENTANGLED, SEPARABLE, UNKNOWN
from sepscan.symext import (
    DimensionGuardError,
    ExtensionProblem,
    ScanStats,
    _ExtensionMaps,
    copies_bound,
    extension_gap,
    find_extension,
    occupations,
    separability_scan,
    sym_dim,
)

DEFAULT_EMBED_MAX_DIM = 8192


@dataclass(frozen=True)
class SymSubspace:
    m: int
    k: int
    dim_sk: int
    isometry: np.ndarray  # (m^k, dim_sk), orthonormal columns


def sym_subspace(m: int, k: int, *, max_embed_dim: int = DEFAULT_EMBED_MAX_DIM) -> SymSubspace:
    """Occupation-basis isometry embedding Sym_k(C^m) into (C^m)^(x k): the
    reference that the symmetric-coordinate maps are checked against."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    if m**k > max_embed_dim:
        raise DimensionGuardError(f"m^k = {m**k} exceeds embed limit {max_embed_dim}")
    occ = occupations(m, k)
    iso = np.zeros((m**k, len(occ)), dtype=complex)
    for col, n in enumerate(occ):
        weight = 1.0 / math.sqrt(math.factorial(k) / math.prod(math.factorial(c) for c in n))
        letters = [i for i, c in enumerate(n) for _ in range(c)]
        for perm in set(permutations(letters)):
            iso[int(np.ravel_multi_index(perm, (m,) * k)), col] = weight
    return SymSubspace(m, k, len(occ), iso)


def reduce_one_reference(x, m, n, k):
    """Embed into (C^m)^(x k) (x) C^n and trace out copies 2..k with einsum."""
    v = np.kron(sym_subspace(m, k).isometry, np.eye(n))
    big = (v @ x @ v.conj().T).reshape(m, m ** (k - 1), n, m, m ** (k - 1), n)
    return np.einsum("arbcrd->abcd", big).reshape(m * n, m * n)


def agrees_with_ppt(rho, verdict):
    """At mn <= 6 PPT is exact: no PPT state is Entangled, no NPT state SeparableAssured."""
    assert rho.m * rho.n <= 6
    ppt = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.m, rho.n, "B"))[0] >= -1e-9
    return verdict.outcome != (ENTANGLED if ppt else SEPARABLE)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def permutation_matrix(perm, m):
    k = len(perm)
    p = np.zeros((m**k, m**k))
    for idx in range(m**k):
        digits = []
        rest = idx
        for _ in range(k):
            digits.append(rest % m)
            rest //= m
        digits = digits[::-1]
        out = [digits[perm[i]] for i in range(k)]
        jdx = 0
        for d in out:
            jdx = jdx * m + d
        p[jdx, idx] = 1.0
    return p


class TestCombinatorics:
    def test_sym_dim_matches_binomial(self):
        for m in range(1, 5):
            for k in range(1, 7):
                assert sym_dim(m, k) == math.comb(m + k - 1, k)

    def test_two_copies_of_qubit(self):
        assert sym_dim(2, 2) == 3

    def test_occupations_deterministic_and_complete(self):
        occ = occupations(3, 2)
        assert len(occ) == 6
        assert occ == occupations(3, 2)
        assert all(sum(n) == 2 for n in occ)

    def test_subspace_isometry(self):
        for m, k in [(2, 1), (2, 2), (3, 2), (2, 3)]:
            sub = sym_subspace(m, k)
            gram = sub.isometry.conj().T @ sub.isometry
            np.testing.assert_allclose(gram, np.eye(sub.dim_sk), atol=1e-9)

    def test_k_equals_one_is_identity(self):
        sub = sym_subspace(2, 1)
        assert sub.dim_sk == 2
        np.testing.assert_allclose(sub.isometry, np.eye(2))

    def test_embed_guard(self):
        with pytest.raises(DimensionGuardError):
            sym_subspace(2, 25)


class TestBounds:
    def test_copies_bound_values(self):
        assert copies_bound(2, 0.5) == 16
        assert copies_bound(2, 8.0) == 1
        assert copies_bound(3, 0.1) == 120

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.inf, float("1e400"), math.nan])
    def test_copies_bound_rejects_a_nonpositive_or_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            copies_bound(2, delta)

    def test_extension_gap_values(self):
        assert extension_gap(2, 16) == pytest.approx(0.5)
        assert extension_gap(2, 8) == pytest.approx(1.0)
        assert extension_gap(3, 120) == pytest.approx(0.1)

    def test_gap_at_bound_within_delta(self):
        for m in (2, 3, 4):
            for delta in (0.7, 0.25, 0.1, 0.03):
                assert extension_gap(m, copies_bound(m, delta)) <= delta + 1e-12


class TestProblemValidation:
    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ExtensionProblem(states.bell(), 1)

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuardError):
            ExtensionProblem(states.maximally_mixed(3, 3), 40)


class TestExtensionMaps:
    @pytest.mark.parametrize("m,n,k", [(2, 2, 2), (2, 3, 3), (3, 2, 2), (2, 2, 4)])
    def test_reduce_one_matches_einsum_reference(self, m, n, k):
        rng = np.random.default_rng(m * 100 + n * 10 + k)
        maps = _ExtensionMaps(m, n, k)
        x = random_complex(rng, maps.dim)
        np.testing.assert_allclose(
            maps.reduce_one(x), reduce_one_reference(x, m, n, k), atol=1e-12
        )

    @pytest.mark.parametrize("m,n,k", [(2, 2, 2), (2, 3, 3), (3, 2, 2), (3, 3, 4)])
    def test_adjoint_identity(self, m, n, k):
        rng = np.random.default_rng(7 + m + n + k)
        maps = _ExtensionMaps(m, n, k)
        x = random_complex(rng, maps.dim)
        y = random_complex(rng, m * n)
        lhs = np.vdot(maps.reduce_one(x), y)
        rhs = np.vdot(x, maps.reduce_one_adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestFindExtension:
    def test_product_state_extends(self):
        prob = ExtensionProblem(states.random_pure_product(2, 2, 0), 3, ppt=True)
        res = find_extension(prob)
        assert res.found
        checks = verify_extension(res, prob)
        assert checks["trace_back"] < 1e-6
        assert checks["psd"] < 1e-6
        assert checks["ppt"] < 1e-6

    def test_bell_has_no_extension(self):
        res = find_extension(ExtensionProblem(states.bell(), 2, ppt=False))
        assert not res.found
        assert res.residual > 1e-3
        assert res.budget_exhausted

    def test_bell_gap_is_the_distance_between_the_sets(self):
        # without PPT cones the search converges to the gap between the sets;
        # no Bose-symmetric state has a pure Bell marginal, so the face of X
        # is {0}, its span misses rho, and the search keeps the whole cone
        for k, gap in ((2, 1.0 / 6.0), (3, math.sqrt(5.0) / 10.0)):
            res = find_extension(ExtensionProblem(states.bell(), k, ppt=False), max_iters=3000)
            assert not res.found and res.budget_exhausted
            assert res.face_dims == (sym_dim(2, k) * 2,)
            assert res.residual == pytest.approx(gap, rel=1e-6)

    def test_feasible_start_accepts_at_iteration_one(self):
        cases = [(states.maximally_mixed(2, 2), k) for k in (2, 3, 4)]
        cases += [(states.product_mixture(2, 2, 20, 6), k) for k in (2, 3, 4)]
        cases += [(states.product_mixture(2, 2, 20, seed), 2) for seed in (0, 5)]
        for rho, k in cases:
            res = find_extension(ExtensionProblem(rho, k, ppt=True))
            assert res.found and res.iterations == 1

    def test_feasible_start_skips_the_iteration(self, monkeypatch):
        monkeypatch.setattr(symext, "_psd_clip", lambda x: pytest.fail("iterated"))
        res = find_extension(ExtensionProblem(states.maximally_mixed(3, 3), 4, ppt=True))
        assert res.found and res.iterations == 1 and res.residual == 0.0

    def test_maximally_mixed_extends(self):
        prob = ExtensionProblem(states.maximally_mixed(2, 2), 4, ppt=True)
        res = find_extension(prob)
        assert res.found
        assert verify_extension(res, prob)["trace_back"] < 1e-6

    def test_monotone_in_k_for_bell(self):
        # infeasible at k stays infeasible at k+1 (the hierarchy nests)
        for ppt in (False, True):
            r2 = find_extension(ExtensionProblem(states.bell(), 2, ppt=ppt), max_iters=1500)
            r3 = find_extension(ExtensionProblem(states.bell(), 3, ppt=ppt), max_iters=1500)
            assert not r2.found and not r3.found

    def test_monotone_in_k_for_entangled_werner(self):
        for k in (2, 3):
            res = find_extension(ExtensionProblem(states.werner(0.95), k, ppt=True), max_iters=1500)
            assert not res.found

    def test_every_partial_trace_choice_returns_state(self):
        # in the embedded picture, tracing any k-1 of the A copies gives rho back;
        # 20 terms keep the natural extension strictly inside every cone
        rho = states.product_mixture(2, 2, 20, 0)
        k = 3
        prob = ExtensionProblem(rho, k, ppt=True)
        res = find_extension(prob)
        assert res.found
        sub = sym_subspace(2, k)
        v = np.kron(sub.isometry, np.eye(2))
        big = v @ res.operator @ v.conj().T
        dims = [2] * k + [2]
        for kept in range(k):
            t = big.reshape(dims + dims)
            for axis in reversed([i for i in range(k) if i != kept]):
                nd = t.ndim // 2
                t = np.trace(t, axis1=axis, axis2=nd + axis)
            got = t.reshape(4, 4)
            assert np.linalg.norm(got - rho.mat) < 1e-6

    def test_permutation_invariance_of_extension(self):
        rho = states.product_mixture(2, 2, 20, 6)
        k = 3
        res = find_extension(ExtensionProblem(rho, k, ppt=True))
        assert res.found
        sub = sym_subspace(2, k)
        v = np.kron(sub.isometry, np.eye(2))
        big = v @ res.operator @ v.conj().T
        for perm in permutations(range(k)):
            p = np.kron(permutation_matrix(perm, 2), np.eye(2))
            assert np.linalg.norm(p @ big @ p.T - big) < 1e-7


def known_extension(m: int, n: int, k: int, terms: int, seed: int):
    """rho = sum_i p_i a_i a_i^dag (x) b_i b_i^dag with its extension
    X = sum_i p_i (a_i a_i^dag)^(x k) (x) b_i b_i^dag in symmetric coordinates:
    a^(x k) has coefficient sqrt(k! / prod_i n_i!) prod_i a_i^(n_i) on the
    occupation vector n."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(terms))
    rho = np.zeros((m * n, m * n), dtype=complex)
    x = np.zeros((sym_dim(m, k) * n,) * 2, dtype=complex)
    for weight in p:
        a, b = (v / np.linalg.norm(v) for v in (random_complex(rng, d)[0] for d in (m, n)))
        sym = np.array([
            math.sqrt(math.factorial(k) / math.prod(math.factorial(c) for c in occ))
            * math.prod(ai**c for ai, c in zip(a, occ))
            for occ in occupations(m, k)
        ])
        rho += weight * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        v = np.kron(sym, b)
        x += weight * np.outer(v, v.conj())
    return DensityMatrix.make(m, n, rho), x


def ppt_boundary(sigma: DensityMatrix) -> DensityMatrix:
    """(1 - t) sigma + t phi, phi maximally entangled, at the t where the
    partial transpose of the full-rank PPT sigma first turns singular."""
    m, n = sigma.m, sigma.n
    phi = np.zeros(m * n)
    phi[[i * n + i for i in range(min(m, n))]] = 1.0
    phi = np.outer(phi, phi) / min(m, n)
    a, b = (partial_transpose(x, m, n, "B") for x in (sigma.mat, phi))
    w, u = np.linalg.eigh(a)
    root = (u / np.sqrt(w)) @ u.conj().T
    # (1 - t) a + t b = (1 - t) a^(1/2) (1 + s a^(-1/2) b a^(-1/2)) a^(1/2), s = t / (1 - t)
    s = -1.0 / np.linalg.eigvalsh(root @ b @ root)[0]
    return DensityMatrix.make(m, n, (sigma.mat + s * phi) / (1.0 + s))


class TestFaces:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_known_extensions_lie_on_their_faces(self, m, n, k):
        maps = _ExtensionMaps(m, n, k)
        for terms in range(1, m * n):
            rho, x = known_extension(m, n, k, terms, seed=10 * terms + k)
            assert np.linalg.norm(maps.reduce_one(x) - rho.mat) < 1e-12
            images = [cone.image(x) for cone in maps.cones(True)]
            faces = symext._faces(rho, k, ppt=True)
            assert len(faces) == len(images) and all(f is not None for f in faces)
            for face, y in zip(faces, images):
                assert face.shape[1] < y.shape[0]  # a proper face
                inside = face @ (face.conj().T @ y @ face) @ face.conj().T
                assert np.linalg.norm(y - inside) <= 1e-10

    @pytest.mark.parametrize("ppt", [False, True])
    @pytest.mark.parametrize("m,n,terms,k", [(2, 2, 2, 3), (2, 3, 4, 2), (3, 3, 5, 2)])
    def test_face_projection_keeps_a_known_extension(self, m, n, terms, k, ppt):
        rho, x = known_extension(m, n, k, terms, seed=k)
        maps = _ExtensionMaps(m, n, k)
        cones, faces = maps.cones(ppt), symext._faces(rho, k, ppt)
        assert ppt == any(face is not None for face in faces[1:])  # PPT spans cut the set
        _, project, _, v0 = symext._face_search(rho, maps, cones, faces)
        s = v0.conj().T @ x @ v0
        np.testing.assert_allclose(project(s), s, atol=1e-10)
        g = random_complex(np.random.default_rng(k), v0.shape[1])
        y = v0 @ project(g + g.conj().T) @ v0.conj().T
        assert np.linalg.norm(maps.reduce_one(y) - rho.mat) < 1e-10
        for cone, face in zip(cones, faces):
            if face is not None:
                image = cone.image(y)
                inside = face @ (face.conj().T @ image @ face) @ face.conj().T
                assert np.linalg.norm(image - inside) < 1e-10

    # (m, n, terms, seed, k): iterations of the whole-cone search, which these
    # full-rank states (with full-rank rho^Gamma) keep
    FULL_RANK = [((2, 2, 4, 0, 2), 300), ((2, 2, 4, 1, 3), 220), ((2, 3, 6, 1, 2), 60),
                 ((3, 3, 9, 2, 2), 30)]

    @pytest.mark.parametrize("case,iterations", FULL_RANK)
    def test_full_rank_takes_the_whole_cone_iterates(self, case, iterations):
        m, n, terms, seed, k = case
        prob = ExtensionProblem(states.product_mixture(m, n, terms, seed), k, ppt=True)
        res = find_extension(prob, max_iters=1000)
        assert res.found and res.iterations == iterations
        maps = _ExtensionMaps(m, n, k)
        split = [sym_dim(m, l) * sym_dim(m, k - l) * n for l in range(1, k)]
        assert res.face_dims == (maps.dim, maps.dim, *split)

    RANK_DEFICIENT = [(m, n, terms, k, seed)
                      for m, n, terms in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 3, 4), (3, 3, 4)]
                      for k in (2, 3) for seed in range(3)]

    @pytest.mark.parametrize("m,n,terms,k,seed", RANK_DEFICIENT)
    def test_rank_deficient_mixtures_extend_within_the_benchmark_budget(self, m, n, terms, k,
                                                                        seed):
        prob = ExtensionProblem(states.product_mixture(m, n, terms, seed), k, ppt=True)
        res = find_extension(prob, max_iters=1000)
        assert res.found and res.face_dims[0] < sym_dim(m, k) * n
        checks = verify_extension(res, prob)
        assert checks["trace_back"] < 1e-6 and checks["psd"] < 1e-6 and checks["ppt"] < 1e-6

    # (m, n, terms, seed) of a separable full-rank state, mixed with the
    # maximally entangled state up to the PPT boundary (rho^Gamma singular),
    # and its iterations at k = 2 and 3 on whole cones
    PPT_BOUNDARY = [((2, 2, 8, 0), (56, 70)), ((2, 3, 12, 0), (50, 80))]

    @pytest.mark.parametrize("case,iterations", PPT_BOUNDARY)
    def test_full_rank_rho_keeps_whole_cones_when_gamma_is_singular(self, case, iterations):
        m, n, terms, seed = case
        rho = ppt_boundary(states.product_mixture(m, n, terms, seed))
        assert np.linalg.eigvalsh(partial_transpose(rho.mat, m, n, "B"))[0] < 1e-15
        for k, count in zip((2, 3), iterations):
            assert symext._faces(rho, k, ppt=True)[1] is not None  # a proper T_B face
            res = find_extension(ExtensionProblem(rho, k, ppt=True), max_iters=1000)
            assert res.found and res.iterations == count
            split = [sym_dim(m, l) * sym_dim(m, k - l) * n for l in range(1, k)]
            assert res.face_dims == (sym_dim(m, k) * n,) * 2 + tuple(split)

    @pytest.mark.parametrize("seed,iterations", [(1, 720), (3, 420)])
    def test_near_full_rank_mixture_within_its_whole_cone_iterations(self, seed, iterations):
        # rank 5 of 6; on whole cones the search finds these in `iterations`
        prob = ExtensionProblem(states.product_mixture(2, 3, 5, seed), 2, ppt=True)
        res = find_extension(prob, max_iters=1000)
        assert res.found and res.iterations <= iterations

    def test_faces_below_the_size_gate(self):
        # mn = 38, rank 3: E on the 3-dimensional face is a 9 x 9 matrix
        res = find_extension(ExtensionProblem(states.product_mixture(2, 19, 3, 0), 2, ppt=False),
                             max_iters=10)
        assert res.found and res.face_dims == (3,)

    def test_whole_cones_beyond_the_size_gate(self, monkeypatch):
        # rank 8 at k = 5: the Gram of the PPT spans on the 48-dimensional face of X
        # would have 48^4 > FACE_MAX_ENTRIES entries
        monkeypatch.setattr(symext, "_span_basis", lambda *args: pytest.fail("spans built"))
        rho, k = states.product_mixture(3, 3, 8, 0), 5
        assert symext._faces(rho, k, ppt=True)[0].shape[1] ** 4 > symext.FACE_MAX_ENTRIES
        res = find_extension(ExtensionProblem(rho, k, ppt=True), max_iters=10)
        split = [sym_dim(3, l) * sym_dim(3, k - l) * 3 for l in range(1, k)]
        assert res.face_dims == (sym_dim(3, k) * 3,) * 2 + tuple(split)

    # (m, n, terms, seed, k) whose X face reaches rho only through small singular
    # values of E on it (8e-6 and 4.3e-7 of the largest), found there at iteration 1
    @pytest.mark.parametrize("case,dim", [((3, 3, 4, 0, 12), 4), ((3, 3, 3, 1, 8), 3)])
    def test_faces_kept_through_small_singular_values(self, case, dim):
        m, n, terms, seed, k = case
        res = find_extension(ExtensionProblem(states.product_mixture(m, n, terms, seed), k,
                                              ppt=False), max_iters=10)
        assert res.found and res.face_dims == (dim,)

    def test_feasible_start_builds_no_face(self, monkeypatch):
        monkeypatch.setattr(symext, "_faces", lambda *args: pytest.fail("faces built"))
        res = find_extension(ExtensionProblem(states.product_mixture(2, 2, 20, 6), 3, ppt=True))
        assert res.found and res.iterations == 1 and res.face_dims == ()


def horodecki_2x4(b: float) -> DensityMatrix:
    """P. Horodecki's 2x4 state (PLA 232, 333): PPT for b in [0, 1], entangled for 0 < b < 1."""
    mat = np.diag([b, b, b, b, (1 + b) / 2, b, b, (1 + b) / 2])
    for i in range(3):
        mat[i, 5 + i] = mat[5 + i, i] = b
    mat[4, 7] = mat[7, 4] = math.sqrt(1 - b * b) / 2
    return DensityMatrix.make(2, 4, (mat / (7 * b + 1)).astype(complex))


class TestEmptyFaces:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_horodecki_2x4_ends_at_iteration_zero(self, b, k):
        # PPT, so the presolve passes it, and its faces' spans leave only X = 0
        rho = horodecki_2x4(b)
        assert np.linalg.eigvalsh(partial_transpose(rho.mat, 2, 4, "B"))[0] > -1e-12
        started = time.perf_counter()
        res = find_extension(ExtensionProblem(rho, k, ppt=True))
        elapsed = time.perf_counter() - started
        assert (res.found, res.iterations, res.empty_faces, res.budget_exhausted) == (
            False, 0, True, False)
        assert res.operator is None and math.isnan(res.residual) and elapsed < 0.1

    @pytest.mark.parametrize("seed", range(4))
    def test_separable_2x4_mixtures_keep_a_nonempty_face(self, seed):
        # the same shape and rank, separable: the spans leave room, and it extends
        prob = ExtensionProblem(states.product_mixture(2, 4, 5, seed), 2, ppt=True)
        res = find_extension(prob)
        assert res.found and not res.empty_faces
        assert max(verify_extension(res, prob).values()) < 1e-6


class TestNptPresolve:
    NPT = [("bell", states.bell()), ("werner_0.5", states.werner(0.5))]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name,rho", NPT)
    def test_returns_at_iteration_zero(self, name, rho, k):
        res = find_extension(ExtensionProblem(rho, k, ppt=True))
        assert not res.found and not res.budget_exhausted
        assert res.iterations == 0 and res.operator is None
        assert res.residual > 0

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name,rho", NPT)
    def test_residual_bounds_the_search_gap(self, name, rho, k, monkeypatch):
        certified = find_extension(ExtensionProblem(rho, k, ppt=True)).residual
        monkeypatch.setattr(symext, "_npt_certificate", lambda *args: None)
        searched = find_extension(ExtensionProblem(rho, k, ppt=True), max_iters=2000)
        assert not searched.found and searched.budget_exhausted
        assert certified <= searched.residual

    def test_bell_bound_value(self):
        # dist_F(rho^Gamma, PSD) = 1/2 and ||E||^2 = 3/2 at m = k = 2
        res = find_extension(ExtensionProblem(states.bell(), 2, ppt=True))
        assert res.residual == pytest.approx(0.5 / math.sqrt(1.5), rel=1e-12)


class TestScan:
    def test_maximally_mixed_at_coarse_delta(self):
        v = separability_scan(states.maximally_mixed(2, 2), 2.0)
        assert v.outcome == SEPARABLE
        assert v.reason == "symext_depth_k4"

    def test_bell_flagged_early(self):
        v = separability_scan(states.bell(), 0.5)
        assert v.outcome == ENTANGLED
        assert v.reason == "symext_infeasible_k2"
        assert not v.exact

    def test_werner_inside_separable_ball(self):
        v = separability_scan(states.werner(0.2), 1.0)
        assert v.outcome == SEPARABLE
        assert v.reason == "symext_depth_k8"

    def test_kmax_short_circuit_returns_unknown(self):
        v = separability_scan(states.werner(0.2), 0.5, kmax=3)
        assert v.outcome == "Unknown"

    def test_separable_fault_state_not_entangled(self):
        # separable by construction (PPT is exact at 2x2), so never Entangled
        v = separability_scan(states.product_mixture(2, 2, 4, 0), 1.0, kmax=3)
        assert v.outcome == UNKNOWN
        assert v.reason == "symext_kmax_k3"

    def test_small_product_mixtures_never_entangled(self):
        mixtures = [
            states.product_mixture(m, n, terms, seed)
            for m, n in ((2, 2), (2, 3))
            for terms in (2, 3, 4)
            for seed in range(4)
        ]
        reasons = [separability_scan(rho, 1.0, kmax=3) for rho in mixtures]
        assert len(reasons) == 24
        assert not [v for v in reasons if v.outcome == ENTANGLED]
        # every one reaches kmax; on whole cones, product_mixture(2, 3, 4, 0)
        # stalls at k = 3
        assert sum(v.reason == "symext_kmax_k3" for v in reasons) == 24
        assert all(agrees_with_ppt(rho, v) for rho, v in zip(mixtures, reasons))

    @pytest.mark.parametrize("w", [0.3, 1 / 3 - 1e-3, 1 / 3 + 1e-3, 0.4,
                                   1 / 3 + 1e-7, 1 / 3 + 1e-8])
    def test_werner_verdicts_agree_with_ppt(self, w):
        rho = states.werner(w)
        assert agrees_with_ppt(rho, separability_scan(rho, 0.5))

    def test_stall_is_unknown_with_residual(self, monkeypatch):
        # product_mixture(3, 3, 9, 0) is full rank, with lambda_min 2e-5, so its
        # cones stay whole, and its k = 2 search needs 60 iterations
        monkeypatch.setattr(symext, "SCAN_ITERS", 20)
        v = separability_scan(states.product_mixture(3, 3, 9, 0), 1.0, kmax=3)
        assert v.outcome == UNKNOWN
        assert v.reason.startswith("symext_stalled_k")
        assert v.detail > 0

    def test_scan_builds_no_ppt_problem(self, monkeypatch):
        built = []
        real = symext.find_extension

        def spy(prob, **kwargs):
            built.append(prob.ppt)
            return real(prob, **kwargs)

        monkeypatch.setattr(symext, "find_extension", spy)
        assert separability_scan(states.bell(), 0.5).reason == "symext_infeasible_k2"
        assert built == []
        separability_scan(states.werner(0.2), 1.0)
        separability_scan(states.product_mixture(2, 3, 4, 0), 1.0, kmax=3)
        assert built and not any(built)

    def test_separable_3x3_passes_every_guard(self, monkeypatch):
        # with PPT cones, k = 12 would branch into a transposed block over SPLIT_MAX_DIM
        monkeypatch.setattr(symext, "SCAN_ITERS", 1)
        v = separability_scan(states.product_mixture(3, 3, 12, 0), 1.0)
        assert v.outcome == UNKNOWN
        assert v.reason == "symext_stalled_k2"

    def test_solver_settings_are_constants(self):
        scan = inspect.signature(separability_scan).parameters
        assert list(scan) == ["rho", "delta", "kmax", "stats"]
        assert list(inspect.signature(find_extension).parameters) == ["prob", "max_iters"]
        assert [f.name for f in fields(ScanStats)] == ["depths", "stop"]

    @pytest.mark.parametrize("rho,delta,kmax,depths", [
        (states.product_mixture(3, 3, 12, 0), 1.0, None, [2, 4, 8, 12]),
        (states.product_mixture(2, 2, 4, 0), 1.0, 3, [2, 3]),
    ])
    def test_depths_double_up_to_the_bound(self, monkeypatch, rho, delta, kmax, depths):
        found = symext.ExtensionResult(True, None, 0.0, 1)
        monkeypatch.setattr(symext, "find_extension", lambda prob, **kw: found)
        stats = ScanStats()
        separability_scan(rho, delta, kmax, stats=stats)
        assert [d.k for d in stats.depths] == depths

    def test_two_by_three_four_term_mixture_reaches_the_bound(self):
        # rank 4 of 6: on whole cones its search stalls at k = 4 within SCAN_ITERS
        stats = ScanStats()
        v = separability_scan(states.product_mixture(2, 3, 4, 0), 1.0, stats=stats)
        assert v.outcome == SEPARABLE and v.reason == "symext_depth_k8"
        assert all(d.face_dims[0] < sym_dim(2, d.k) * 3 for d in stats.depths if d.iterations > 1)

    def test_guards_run_before_any_iteration(self, monkeypatch):
        monkeypatch.setattr(symext, "find_extension", lambda *a, **k: pytest.fail("iterated"))
        with pytest.raises(DimensionGuardError):
            separability_scan(states.product_mixture(3, 2, 12, 0), 0.5)


class TestScanStats:
    @staticmethod
    def scan(monkeypatch, rho, delta, **kwargs):
        """Scan with a fresh record; also return the iterations find_extension
        reported and the number of NPT presolves run."""
        spent, presolves = [], []
        real_find, real_presolve = symext.find_extension, symext._npt_certificate

        def count(prob, **kw):
            res = real_find(prob, **kw)
            spent.append(res.iterations)
            return res

        def presolve(*args):
            presolves.append(args)
            return real_presolve(*args)

        monkeypatch.setattr(symext, "find_extension", count)
        monkeypatch.setattr(symext, "_npt_certificate", presolve)
        stats = ScanStats()
        verdict = separability_scan(rho, delta, stats=stats, **kwargs)
        return verdict, stats, sum(spent), len(presolves)

    def test_stall_is_the_last_depth(self, monkeypatch):
        monkeypatch.setattr(symext, "SCAN_ITERS", 100)
        v, stats, spent, presolves = self.scan(monkeypatch, states.product_mixture(2, 2, 4, 0),
                                               2.0)
        last = stats.depths[-1]
        assert v.reason == f"symext_stalled_k{last.k}" == "symext_stalled_k4"
        assert stats.stop == "stalled" and presolves == 1
        assert [d.k for d in stats.depths] == [2, 4]
        assert [d.found for d in stats.depths] == [True, False]
        assert last.iterations == 100 and last.residual == v.detail
        assert len(last.residuals) == 10 and last.residuals[-1] == last.residual
        assert sum(d.iterations for d in stats.depths) == spent

    def test_depth_reached(self, monkeypatch):
        v, stats, spent, _ = self.scan(monkeypatch, states.product_mixture(2, 2, 4, 0), 2.0)
        assert v.outcome == SEPARABLE and v.reason == "symext_depth_k4"
        assert stats.stop == "depth"
        assert [d.k for d in stats.depths] == [2, 4] and all(d.found for d in stats.depths)
        assert all(len(d.residuals) == d.iterations // 10 for d in stats.depths)
        assert sum(d.iterations for d in stats.depths) == spent > 0

    @pytest.mark.parametrize("rho,delta,kwargs,stop,ran,decided", [
        (states.bell(), 0.5, {}, "presolve", True, True),
        (states.werner(1 / 3 + 1e-8), 0.5, {}, "presolve", True, True),
        (states.werner(0.2), 2.0, {}, "depth", True, False),
        (states.bell(), 9.0, {}, "trivial_bound", False, False),
        (states.werner(0.2), 0.5, {"kmax": 3}, "kmax", True, False),
    ])
    def test_stop_reasons(self, monkeypatch, rho, delta, kwargs, stop, ran, decided):
        v, stats, spent, presolves = self.scan(monkeypatch, rho, delta, **kwargs)
        assert (stats.stop, presolves == 1) == (stop, ran)
        assert sum(d.iterations for d in stats.depths) == spent
        if decided:
            assert stats.depths == [] and v.reason.endswith("_k2")
