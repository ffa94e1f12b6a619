import numpy as np
import pytest

from conftest import partial_trace, random_local_unitaries
from sepscan import states
from sepscan.core import DensityMatrix, eig_hermitian, lambda_min, partial_transpose
from sepscan.onesided import (
    EIG_TOL,
    ENTANGLED,
    NORM_TOL,
    SEPARABLE,
    UNKNOWN,
    Verdict,
    ccnr_test,
    frobenius_ball_test,
    lambda_min_ball_test,
    pipeline,
    ppt_test,
    two_by_n_pt_test,
)

# Necessary tests that PPT implies, so the pipeline does not run them:
# PPT => reduction => majorization => entropic.  They are the reference
# for TestImplicationChain.


def reduction_test(rho: DensityMatrix) -> Verdict:
    ra = partial_trace(rho.mat, rho.m, rho.n, "B")
    rb = partial_trace(rho.mat, rho.m, rho.n, "A")
    lo = min(
        lambda_min(np.kron(ra, np.eye(rho.n)) - rho.mat),
        lambda_min(np.kron(np.eye(rho.m), rb) - rho.mat),
    )
    if lo < -EIG_TOL:
        return Verdict(ENTANGLED, "reduction", True, lo)
    return Verdict(UNKNOWN, "reduction", False, lo)


def _renyi2(mat) -> float:
    return -float(np.log(np.trace(mat @ mat).real))


def _von_neumann(mat) -> float:
    vals = np.clip(eig_hermitian(mat), 0.0, None)
    vals = vals[vals > 1e-15]
    return -float(np.sum(vals * np.log(vals)))


def entropic_test(rho: DensityMatrix, alpha: int = 2) -> Verdict:
    """Global Renyi entropy below either marginal's proves entanglement."""
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    s = _renyi2 if alpha == 2 else _von_neumann
    ra = partial_trace(rho.mat, rho.m, rho.n, "B")
    rb = partial_trace(rho.mat, rho.m, rho.n, "A")
    gap = s(rho.mat) - max(s(ra), s(rb))
    if gap < -NORM_TOL:
        return Verdict(ENTANGLED, f"entropic_a{alpha}", True, gap)
    return Verdict(UNKNOWN, f"entropic_a{alpha}", False, gap)


def majorization_test(rho: DensityMatrix) -> Verdict:
    """Global spectrum majorized by each marginal spectrum (zero-padded)."""
    d = rho.dim
    lam = eig_hermitian(rho.mat)
    worst = 0.0
    for which, dim in (("B", rho.m), ("A", rho.n)):
        marg = eig_hermitian(partial_trace(rho.mat, rho.m, rho.n, which))
        padded = np.concatenate([marg, np.zeros(d - dim)])
        excess = float(np.max(np.cumsum(lam) - np.cumsum(padded)))
        worst = max(worst, excess)
    if worst > EIG_TOL:
        return Verdict(ENTANGLED, "majorization", True, worst)
    return Verdict(UNKNOWN, "majorization", False, worst)


DOMINATED = [
    reduction_test,
    majorization_test,
    lambda r: entropic_test(r, 2),
    lambda r: entropic_test(r, 1),
]


def horodecki_3x3(a: float) -> DensityMatrix:
    """P. Horodecki's 3x3 state: PPT for a in [0, 1], entangled for 0 < a < 1."""
    mat = a * np.eye(9)
    for i in (0, 4, 8):
        for j in (0, 4, 8):
            mat[i, j] = a
    b = np.sqrt(1.0 - a * a) / 2.0
    mat[6, 6] = mat[8, 8] = (1.0 + a) / 2.0
    mat[6, 8] = mat[8, 6] = b
    return DensityMatrix.make(3, 3, mat / (8.0 * a + 1.0))


def real_product_mixture(m: int, n: int, terms: int, seed: int) -> DensityMatrix:
    """Mixture of real product projectors: equal to its partial transposes bit for bit."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(terms))
    mat = np.zeros((m * n, m * n))
    for i in range(terms):
        a = rng.standard_normal(m)
        b = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        mat += p[i] * np.kron(np.outer(a, a), np.outer(b, b))
    return DensityMatrix.make(m, n, mat)


BELL = states.bell()
MAXMIXED22 = states.maximally_mixed(2, 2)
MAXMIXED33 = states.maximally_mixed(3, 3)

NECESSARY = [ppt_test, *DOMINATED, ccnr_test]


class TestPpt:
    def test_bell_entangled(self):
        v = ppt_test(BELL)
        assert v.outcome == ENTANGLED
        assert abs(v.detail + 0.5) < 1e-9

    def test_maximally_mixed_exact(self):
        v = ppt_test(MAXMIXED22)
        assert v.outcome == SEPARABLE and v.exact

    def test_three_by_three_unknown(self):
        assert ppt_test(MAXMIXED33).outcome == UNKNOWN


class TestReduction:
    def test_bell(self):
        v = reduction_test(BELL)
        assert v.outcome == ENTANGLED
        assert abs(v.detail + 0.5) < 1e-9

    def test_maximally_mixed(self):
        assert reduction_test(MAXMIXED22).outcome == UNKNOWN

    def test_product_states_pass(self):
        for seed in range(10):
            rho = states.random_pure_product(2, 3, seed)
            assert reduction_test(rho).outcome == UNKNOWN


class TestEntropic:
    def test_bell(self):
        v = entropic_test(BELL, 2)
        assert v.outcome == ENTANGLED
        assert abs(v.detail + np.log(2)) < 1e-8

    def test_maximally_mixed(self):
        assert entropic_test(MAXMIXED22, 2).outcome == UNKNOWN

    def test_werner_half(self):
        # direct scalar computation fixes the expected outcome
        rho = states.werner(0.5)
        tr2 = np.trace(rho.mat @ rho.mat).real
        s_global = -np.log(tr2)
        s_marg = np.log(2.0)  # both marginals are I/2
        v = entropic_test(rho, 2)
        expected = ENTANGLED if s_global < s_marg - 1e-8 else UNKNOWN
        assert v.outcome == expected == UNKNOWN  # 0.5 is below the 1/sqrt(3) threshold


class TestMajorization:
    def test_bell(self):
        assert majorization_test(BELL).outcome == ENTANGLED

    def test_maximally_mixed(self):
        assert majorization_test(MAXMIXED22).outcome == UNKNOWN

    def test_separable_mixtures_pass(self):
        for seed in range(10):
            rho = states.product_mixture(2, 3, 5, seed)
            assert majorization_test(rho).outcome == UNKNOWN


class TestCcnr:
    def test_bell(self):
        v = ccnr_test(BELL)
        assert v.outcome == ENTANGLED
        assert abs(v.detail - 2.0) < 1e-8

    def test_pure_product(self):
        rho = states.random_pure_product(2, 3, 1)
        v = ccnr_test(rho)
        assert v.outcome == UNKNOWN
        assert abs(v.detail - 1.0) < 1e-8

    def test_maximally_mixed(self):
        v = ccnr_test(MAXMIXED22)
        assert v.outcome == UNKNOWN
        assert abs(v.detail - 0.5) < 1e-9


class TestSufficientBalls:
    def test_frobenius_maximally_mixed(self):
        assert frobenius_ball_test(MAXMIXED22).outcome == SEPARABLE

    def test_frobenius_bell(self):
        v = frobenius_ball_test(BELL)
        assert v.outcome == UNKNOWN
        assert abs(v.detail - 0.75) < 1e-9

    def test_frobenius_weak_bell_mixture(self):
        mat = 0.95 * MAXMIXED22.mat + 0.05 * BELL.mat
        rho = DensityMatrix.make(2, 2, mat)
        assert frobenius_ball_test(rho).outcome == SEPARABLE

    def test_lambda_min_maximally_mixed(self):
        assert lambda_min_ball_test(MAXMIXED22).outcome == SEPARABLE

    def test_lambda_min_bell(self):
        assert lambda_min_ball_test(BELL).outcome == UNKNOWN

    def test_lambda_min_three_by_three(self):
        assert lambda_min_ball_test(MAXMIXED33).outcome == SEPARABLE


class TestTwoByN:
    def test_maximally_mixed(self):
        assert two_by_n_pt_test(MAXMIXED22).outcome == SEPARABLE

    def test_bell(self):
        assert two_by_n_pt_test(BELL).outcome == UNKNOWN

    def test_real_diagonal_two_by_three(self):
        rho = DensityMatrix.make(2, 3, np.diag([0.3, 0.2, 0.1, 0.05, 0.15, 0.2]))
        assert two_by_n_pt_test(rho).outcome == SEPARABLE

    def test_rejects_wrong_dimension(self):
        rho = states.maximally_mixed(3, 3)
        with pytest.raises(ValueError):
            two_by_n_pt_test(rho)

    def test_real_product_mixture_is_exact(self):
        rho = real_product_mixture(2, 4, 4, 0)
        v = two_by_n_pt_test(rho)
        assert v.outcome == SEPARABLE and v.exact and v.detail == 0.0

    def test_perturbed_invariance_is_not_exact(self):
        rho = real_product_mixture(2, 4, 4, 0)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = g + g.conj().T
        h = h - partial_transpose(h, 2, 4, "A")  # Hermitian, traceless, T_A-odd
        h *= 1e-10 / np.linalg.norm(h)
        v = two_by_n_pt_test(DensityMatrix.make(2, 4, rho.mat + h))
        assert v.outcome == SEPARABLE and not v.exact
        assert 0.0 < v.detail <= NORM_TOL


class TestPipeline:
    def test_bell_via_ppt(self):
        v = pipeline(BELL)
        assert v.outcome == ENTANGLED and v.reason == "ppt"

    def test_maximally_mixed_via_ball(self):
        v = pipeline(MAXMIXED22)
        assert v.outcome == SEPARABLE and v.reason == "frobenius_ball"

    def test_one_by_one_state_is_separable(self):
        # the only 1x1 state is the product state; the ball's radius is unbounded there
        v = pipeline(states.maximally_mixed(1, 1))
        assert (v.outcome, v.reason, v.exact) == (SEPARABLE, "frobenius_ball", True)

    def test_werner_point_four(self):
        v = pipeline(states.werner(0.4))
        assert v.outcome == ENTANGLED and v.reason == "ppt" and v.exact

    def test_bell_stats_stop_at_ppt(self):
        tests = []
        pipeline(BELL, stats=tests)
        assert [v.reason for v in tests] == ["frobenius_ball", "lambda_min_ball", "ppt"]
        assert tests[-1] == pipeline(BELL)

    def test_undecided_3x3_stats_list_every_test(self):
        tests = []
        v = pipeline(states.product_mixture(3, 3, 12, 0), stats=tests)
        assert v.outcome == UNKNOWN and v.reason == "pipeline"
        assert [t.reason for t in tests] == ["frobenius_ball", "lambda_min_ball", "ppt", "ccnr"]
        assert all(t.outcome == UNKNOWN and t.detail is not None for t in tests)

    def test_two_by_four_runs_the_transpose_test_after_ppt(self):
        tests = []
        v = pipeline(real_product_mixture(2, 4, 4, 0), stats=tests)
        assert v.reason == "two_by_n_pt" and v.exact
        assert [t.reason for t in tests][2:] == ["ppt", "two_by_n_pt"]

    def test_werner_ppt_eigenvalue(self):
        for w in (0.2, 0.4, 0.7):
            lo = np.min(np.linalg.eigvalsh(partial_transpose(states.werner(w).mat, 2, 2, "B")))
            assert abs(lo - (1 - 3 * w) / 4) < 1e-10


class TestSoundness:
    def test_no_necessary_test_flags_constructed_separables(self):
        cases = 0
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            for seed in range(20):
                rho = states.product_mixture(m, n, 6, seed)
                for test in NECESSARY:
                    assert test(rho).outcome != ENTANGLED
                cases += 1
        assert cases == 60

    def test_reduction_implies_ppt_on_two_by_n(self):
        hits = 0
        for n in (2, 3):
            for seed in range(40):
                rho = states.random_full_rank(2, n, seed)
                if reduction_test(rho).outcome == ENTANGLED:
                    hits += 1
                    assert ppt_test(rho).outcome == ENTANGLED
        assert hits > 0

    def test_local_unitary_invariance(self):
        targets = [BELL, states.werner(0.6), states.product_mixture(2, 3, 4, 3)]
        for rho in targets:
            base = pipeline(rho).outcome
            for seed in range(8):
                u, v = random_local_unitaries(rho.m, rho.n, seed)
                uv = np.kron(u, v)
                rotated = DensityMatrix.make(rho.m, rho.n, uv @ rho.mat @ uv.conj().T)
                assert pipeline(rotated).outcome == base


class TestImplicationChain:
    """PPT => reduction => majorization => entropic: after PPT passes none can fire."""

    SHAPES = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]

    def test_passing_ppt_passes_every_dominated_test(self):
        ppt_passed = npt = 0
        for m, n in self.SHAPES:
            d = m * n
            for seed in range(8):
                full = states.random_full_rank(m, n, seed)
                # mixed with I/d just enough that rho^{T_B} becomes singular
                lo = lambda_min(partial_transpose(full.mat, m, n, "B"))
                t = 1.0 / (1.0 - d * min(lo, 0.0))
                boundary = DensityMatrix.make(m, n, t * full.mat + (1.0 - t) * np.eye(d) / d)
                for rho in (full, boundary, states.product_mixture(m, n, d, seed)):
                    if ppt_test(rho).outcome == ENTANGLED:
                        npt += 1
                        continue
                    ppt_passed += 1
                    for test in DOMINATED:
                        assert test(rho).outcome == UNKNOWN
        assert ppt_passed >= 2 * len(self.SHAPES) * 8 and npt > 0


class TestBoundEntangled:
    """Horodecki's PPT entangled states: PPT cannot decide them, CCNR after it does."""

    @pytest.mark.parametrize("a", [round(0.05 * i, 2) for i in range(1, 20)])
    def test_ccnr_decides_after_ppt(self, a):
        rho = horodecki_3x3(a)
        assert ppt_test(rho).outcome == UNKNOWN
        assert all(test(rho).outcome == UNKNOWN for test in DOMINATED)
        tests = []
        v = pipeline(rho, stats=tests)
        assert v.outcome == ENTANGLED and v.reason == "ccnr"
        assert [t.reason for t in tests] == ["frobenius_ball", "lambda_min_ball", "ppt", "ccnr"]
