import ast
import inspect
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QZERO,
    ExactComplex,
    certificate_state,
    dyadic_certificate,
    exact_rows,
    frobenius_sq,
    mat_sub,
    qrat,
    rational_matrix_to_json,
    rational_separable_decomposition,
    rational_state_of,
    rational_unit_vector,
    reference_verify,
    vec_norm_sq,
)
from sepscan import cli, qsep, serialize, states
from sepscan.nets import build_net
from sepscan.qsep import (
    BitWidthError,
    CertificateFormatError,
    ExactMatrix,
    QRat,
    QsepCertificate,
    QsepInstance,
    bits_required,
    error_bound_normalization_exact,
    error_bound_sigma_sq,
    exact_matrix,
    reduce_wmem_to_qsep,
    truncate_decomposition,
    verify_certificate,
)
from sepscan.serialize import qsep_certificate_from_json, qsep_certificate_to_json
from sepscan.witness import wsep_solve


def wmem_out_to_wmem(rho, delta: float):
    """Shift an out-biased membership query to a plain one.

    rho0 = rho + delta (rho - I/(mn))/2 pushes the state away from the
    maximally mixed point; delta0 = delta / (2 sqrt(mn(mn-1))).  rho0 stays
    Hermitian with unit trace but may leave the PSD cone for boundary
    states, so its minimum eigenvalue is reported rather than validated.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    d = rho.dim
    eye = np.eye(d) / d
    mat0 = rho.mat + delta * (rho.mat - eye) / 2.0
    delta0 = delta / (2.0 * (d * (d - 1)) ** 0.5)
    lam_min = float(np.linalg.eigvalsh(mat0)[0])
    return mat0, delta0, lam_min


fractions_st = st.fractions(min_value=-1, max_value=1, max_denominator=10**6)


def diag_half_instance():
    """rho = diag(1/2, 0, 0, 1/2) with generous accuracy parameters."""
    rows = []
    for i in range(4):
        rows.append(
            tuple(
                qrat(Fraction(1, 2)) if i == j and i in (0, 3) else QZERO for j in range(4)
            )
        )
    return QsepInstance(
        2,
        2,
        exact_rows(rows),
        delta_p=Fraction(1, 256),
        eps_prime=Fraction(1, 8),
        delta_prime=Fraction(1, 8),
    )


def exact_diag_terms():
    e0 = (qrat(1), qrat(0))
    e1 = (qrat(0), qrat(1))
    zero = (QZERO, QZERO)
    terms = [
        (Fraction(1, 2), e0, e0),
        (Fraction(1, 2), e1, e1),
    ]
    while len(terms) < 16:
        terms.append((Fraction(0), zero, zero))
    return terms


def exact_diag_certificate():
    return dyadic_certificate(2, 2, 8, exact_diag_terms())


def scalars(terms):
    """Every scalar of (weight, alpha, beta) terms, in order."""
    for w, alpha, beta in terms:
        yield w
        for z in (*alpha, *beta):
            yield z.re
            yield z.im


def truncated_pairs(x: Fraction, p: int):
    """(input, output) for each scalar of a 1x2 decomposition carrying x at
    the weight, a real and an imaginary position, truncated at p bits."""
    y = Fraction(math.sqrt(1.0 - float(x) ** 2))  # unit vectors within 1e-9, as truncation needs
    decomp = [
        (abs(x), (QRat(x, y),), (QRat(y, Fraction(0)), QRat(Fraction(0), x))),
        (1 - abs(x), (qrat(1),), (qrat(1), QZERO)),
    ]
    cert = truncate_decomposition(decomp, p, 1, 2)
    return list(zip(scalars(decomp), scalars(cert.terms)))


class TestTruncation:
    """`truncate_decomposition` moves each scalar toward zero by less than 2^-p."""

    def test_representable_unchanged(self):
        pairs = truncated_pairs(Fraction(1, 2), 1)
        dyadic = [(s, t) for s, t in pairs if (s * 2).denominator == 1]
        assert len(dyadic) == len(pairs) - 2  # all but sqrt(3/4), written twice
        assert all(s == t for s, t in dyadic)

    def test_one_third_at_8_bits(self):
        for x in (Fraction(1, 3), Fraction(-1, 3)):
            _, (s, t) = truncated_pairs(x, 8)[:2]  # the real part of alpha
            assert s == x and t == x.numerator * Fraction(85, 256)
            assert abs(s - t) < Fraction(1, 256)

    @given(x=fractions_st, p=st.integers(1, 40))
    @settings(max_examples=200, deadline=None)
    def test_error_below_two_to_minus_p(self, x, p):
        for s, t in truncated_pairs(x, p):
            assert t == Fraction(math.trunc(s * 2**p), 2**p)
            assert abs(s - t) < Fraction(1, 2**p)
            assert abs(t) <= abs(s)  # toward zero never overshoots

    @given(x=fractions_st, p=st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, x, p):
        _, (_, t) = truncated_pairs(x, p)[:2]
        _, (_, again) = truncated_pairs(t, p)[:2]
        assert again == t

    @pytest.mark.parametrize("where", ["weight", "alpha"])
    def test_scalar_above_one_raises(self, where):
        over = Fraction(1) + Fraction(1, 10**10)  # within the 1e-9 tolerances
        w, alpha = (over, (qrat(1),)) if where == "weight" else (Fraction(1), (qrat(over),))
        decomp = [(w, alpha, (qrat(1), QZERO))]
        truncate_decomposition(decomp, 20, 1, 2)  # 2^20 over truncates to 2^20, 2^40 over does not
        with pytest.raises(BitWidthError):
            truncate_decomposition(decomp, 40, 1, 2)


class TestTruncationReadsExactly:
    """Float, complex and Fraction scalars truncate to the integers of their exact values."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_numpy_atoms_truncate_like_their_fractions(self, m, n):
        rng = np.random.default_rng(m * n)
        decomp = []
        for w in rng.dirichlet(np.ones(m * n)):
            a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            decomp.append((w, a / np.linalg.norm(a), b / np.linalg.norm(b)))
        exact = [
            (Fraction(w), tuple(QRat(Fraction(z.real), Fraction(z.imag)) for z in a),
             tuple(QRat(Fraction(z.real), Fraction(z.imag)) for z in b))
            for w, a, b in decomp
        ]
        for p in (8, 30, 60):
            cert = truncate_decomposition(decomp, p, m, n)
            assert cert == truncate_decomposition(exact, p, m, n)
            for s, t in zip(scalars(exact), scalars(cert.terms)):
                assert t == Fraction(math.trunc(s * 2**p), 2**p)

    def test_tolerances_are_exact(self):
        unit = (qrat(1), QZERO)
        inside = 1 - Fraction(1, 10**9)
        truncate_decomposition([(inside, unit, unit), (1 - inside, unit, unit)], 8, 2, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            truncate_decomposition([(inside - Fraction(1, 10**12), unit, unit)], 8, 2, 2)
        short = (qrat(Fraction(1) - Fraction(1, 10**9)), QZERO)  # norm^2 = 1 - 2e-9 + 1e-18
        with pytest.raises(ValueError, match="unit"):
            truncate_decomposition([(Fraction(1), short, unit)], 8, 2, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            truncate_decomposition([(Fraction(-1), unit, unit), (2, unit, unit)], 8, 2, 2)


class TestExactComplex:
    """The reference's complex arithmetic is exact."""

    @given(
        a=fractions_st, b=fractions_st, c=fractions_st, d=fractions_st
    )
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_modulus(self, a, b, c, d):
        x, y = ExactComplex(a, b), ExactComplex(c, d)
        assert (x * y).abs2() == x.abs2() * y.abs2()

    def test_conjugation(self):
        x = qrat(Fraction(2, 3), Fraction(-1, 5))
        assert (x * x.conj()).im == 0
        assert (x * x.conj()).re == x.abs2()


class TestVerifyCertificate:
    def test_exact_decomposition_accepts_with_zero_residuals(self):
        res = verify_certificate(diag_half_instance(), exact_diag_certificate())
        assert res.accepted
        assert res.normalization_residual == 0
        assert res.distance_sq == 0

    def test_all_zero_certificate_rejected(self):
        zero = ((0, 0), (0, 0))
        cert = QsepCertificate(2, 2, 8, ((0, zero, zero),) * 16)
        res = verify_certificate(diag_half_instance(), cert)
        assert not res.accepted
        assert res.distance_sq == Fraction(1, 2)  # tr(rho^2) for the diagonal state

    @pytest.mark.parametrize("where", ["weight", "alpha", "beta"])
    def test_integer_above_two_to_the_p_is_refused(self, where):
        # weight 4 (integer 1024 over 2^8) with beta (1/2, 0) would reconstruct |00><00|
        # exactly and pass both checks; scalars above 1 are not p-bit numbers
        weight, alpha, beta = 1024, ((256, 0), (0, 0)), ((128, 0), (0, 0))
        if where == "alpha":
            weight, alpha = 256, ((-257, 0), (0, 0))
        elif where == "beta":
            weight, beta = 256, ((256, 0), (0, 257))
        padding = (0, ((0, 0),) * 2, ((0, 0),) * 2)
        with pytest.raises(BitWidthError):
            QsepCertificate(2, 2, 8, ((weight, alpha, beta),) + (padding,) * 15)
        QsepCertificate(2, 2, 8, ((256, ((256, 0), (0, 0)), ((0, -256), (0, 0))),) + (padding,) * 15)

    def test_bit_width_violation_raises(self):
        inst = diag_half_instance()  # delta_p = 2^-8
        obj = qsep_certificate_to_json(exact_diag_certificate())
        obj["terms"][0]["alpha"][0]["re"] = {"num": "1", "den": "3"}  # not dyadic
        with pytest.raises(BitWidthError):
            qsep_certificate_from_json(obj, inst)

    def test_dimension_mismatch_raises(self):
        inst = diag_half_instance()
        zero2, zero3 = ((0, 0),) * 2, ((0, 0),) * 3
        cert = QsepCertificate(2, 3, 8, ((0, zero2, zero3),) * 36)
        with pytest.raises(CertificateFormatError):
            verify_certificate(inst, cert)

    def test_certificate_length_enforced(self):
        zero = ((0, 0), (0, 0))
        with pytest.raises(CertificateFormatError):
            QsepCertificate(2, 2, 8, ((256, zero, zero),))

    def test_truncated_random_decomposition_accepts(self):
        decomp = rational_separable_decomposition(2, 2, 6, seed=3)
        rho = rational_state_of(decomp, 2, 2)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 2))
        p = bits_required(inst.delta_p)
        cert = truncate_decomposition(decomp, p, 2, 2)
        res = verify_certificate(inst, cert)
        assert res.accepted


def instance_for(decomp, m, n, delta=Fraction(1, 4)):
    return reduce_wmem_to_qsep(rational_state_of(decomp, m, n), m, n, delta)


def random_dyadic_certificate(m, n, p, seed, padding):
    """Random p-bit scalars in [-1, 1]; the first `padding` terms get weight zero."""
    rng = np.random.default_rng(seed)
    one = 2**p

    def scalar(lo=-one):
        return Fraction(int(rng.integers(lo, one + 1)), one)

    terms = []
    for t in range(m * m * n * n):
        w = Fraction(0) if t < padding else scalar(0)
        alpha = tuple(QRat(scalar(), scalar()) for _ in range(m))
        beta = tuple(QRat(scalar(), scalar()) for _ in range(n))
        terms.append((w, alpha, beta))
    # the extremes of the range, on a term that carries weight
    w, alpha, beta = terms[padding]
    terms[padding] = (Fraction(1), (qrat(-1, 1),) + alpha[1:], (qrat(1, -1),) + beta[1:])
    return dyadic_certificate(m, n, p, terms)


def has_negative_component(cert):
    return any(
        x.re < 0 or x.im < 0 for _, alpha, beta in cert.terms for x in (*alpha, *beta)
    )


def float_rounded_state(decomp, m, n):
    """The decomposition's state in floats, read back as exact dyadic rationals.

    Hermitian with trace exactly 1 (the last diagonal entry absorbs the
    rounding), and within ~1e-15 of the exact state, at numpy speed.
    """
    d = m * n
    mat = np.zeros((d, d), dtype=complex)
    for w, alpha, beta in decomp:
        a = np.array([complex(float(x.re), float(x.im)) for x in alpha])
        b = np.array([complex(float(x.re), float(x.im)) for x in beta])
        v = np.kron(a, b)
        mat += float(w) * np.outer(v, v.conj())
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = qrat(float(mat[i, i].real))
        for j in range(i + 1, d):
            rows[i][j] = qrat(float(mat[i, j].real), float(mat[i, j].imag))
            rows[j][i] = rows[i][j].conj()
    rest = sum((rows[i][i].re for i in range(d - 1)), Fraction(0))
    rows[d - 1][d - 1] = qrat(1 - rest)
    return tuple(tuple(r) for r in rows)


SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]


class TestIntegerPath:
    """The integer check equals the Fraction reference in conftest, field for field."""

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_truncated_certificates_match_reference(self, m, n):
        for seed in range(2):
            decomp = rational_separable_decomposition(m, n, m * n, seed=seed)
            inst = instance_for(decomp, m, n)
            cert = truncate_decomposition(decomp, bits_required(inst.delta_p), m, n)
            assert sum(1 for w, _, _ in cert.terms if w == 0) == m * m * n * n - m * n
            assert has_negative_component(cert)
            res = verify_certificate(inst, cert)
            assert res == reference_verify(inst, cert)
            assert res.accepted

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_rejected_certificates_match_reference(self, m, n):
        decomp = rational_separable_decomposition(m, n, m * n, seed=5)
        inst = instance_for(decomp, m, n)
        p = bits_required(inst.delta_p)
        other = rational_separable_decomposition(m, n, 2, seed=6)
        cert = truncate_decomposition(other, p, m, n)
        res = verify_certificate(inst, cert)
        assert res == reference_verify(inst, cert)
        assert not res.accepted
        assert res.distance_sq >= inst.delta_prime**2

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_dyadic_certificates_match_reference(self, m, n, seed):
        """Zero-weight padding with nonzero vectors, signs everywhere, entries of +-1."""
        decomp = rational_separable_decomposition(m, n, 3, seed=seed)
        rho = rational_state_of(decomp, m, n)
        p = 5
        inst = QsepInstance(m, n, exact_rows(rho), Fraction(1, 2**p), Fraction(1, 3),
                            Fraction(5, 7))
        cert = random_dyadic_certificate(m, n, p, seed, padding=m * n)
        res = verify_certificate(inst, cert)
        assert res == reference_verify(inst, cert)
        assert res.normalization_residual > 0

    def test_unit_entries_verify_exactly(self):
        inst = diag_half_instance()
        zero = (QZERO, QZERO)
        e0 = (qrat(-1), QZERO)
        e1 = (QZERO, qrat(0, 1))
        e1_conj = (QZERO, qrat(0, -1))
        terms = [(Fraction(1, 2), e0, e0), (Fraction(1, 2), e1, e1_conj)]
        terms += [(Fraction(0), zero, zero)] * 14
        cert = dyadic_certificate(2, 2, 8, terms)
        res = verify_certificate(inst, cert)
        assert res == reference_verify(inst, cert)
        assert res.accepted and res.normalization_residual == 0 and res.distance_sq == 0

    def test_unit_weight_verifies_exactly(self):
        rows = tuple(
            tuple(qrat(1) if i == j == 1 else QZERO for j in range(4)) for i in range(4)
        )
        inst = QsepInstance(2, 2, exact_rows(rows), Fraction(1, 256), Fraction(1, 8),
                            Fraction(1, 8))
        zero = (QZERO, QZERO)
        alpha, beta = (qrat(0, -1), QZERO), (QZERO, qrat(-1))
        terms = [(Fraction(1), alpha, beta)] + [(Fraction(0), zero, zero)] * 15
        cert = dyadic_certificate(2, 2, 8, terms)
        res = verify_certificate(inst, cert)
        assert res == reference_verify(inst, cert)
        assert res.accepted and res.normalization_residual == 0 and res.distance_sq == 0

    def test_acceptance_bounds_are_strict(self):
        # one half-weight term of diag(1/2, 0, 0, 1/2): gap 1/2, distance_sq 1/4
        zero = (QZERO, QZERO)
        e0 = (qrat(1), QZERO)
        terms = ((Fraction(1, 2), e0, e0),) + ((Fraction(0), zero, zero),) * 15
        cert = dyadic_certificate(2, 2, 8, terms)
        rho = diag_half_instance().rho
        for eps, delta, accepted in [
            (Fraction(1, 2), Fraction(1), False),
            (Fraction(1), Fraction(1, 2), False),
            (Fraction(513, 1024), Fraction(513, 1024), True),
        ]:
            inst = QsepInstance(2, 2, rho, Fraction(1, 256), eps, delta)
            res = verify_certificate(inst, cert)
            assert res == reference_verify(inst, cert)
            assert (res.normalization_residual, res.distance_sq) == (Fraction(1, 2), Fraction(1, 4))
            assert res.accepted is accepted

    @pytest.mark.parametrize(
        "bad",
        [Fraction(1, 3), Fraction(1, 2**9), Fraction(3, 2), Fraction(257, 256)],
        ids=["non_dyadic", "too_fine", "above_one", "one_step_above_one"],
    )
    @pytest.mark.parametrize("where", ["weight", "alpha_re", "beta_im", "alpha_re_neg"])
    def test_bit_width_errors(self, bad, where):
        inst = diag_half_instance()  # delta_p = 2^-8
        obj = qsep_certificate_to_json(exact_diag_certificate())
        term = obj["terms"][0]
        if where == "alpha_re_neg":
            bad = -bad
        scalar = {"num": str(bad.numerator), "den": str(bad.denominator)}
        if where == "weight":
            term["weight"] = scalar
        elif where.startswith("alpha_re"):
            term["alpha"][0]["re"] = scalar
        else:
            term["beta"][1]["im"] = scalar
        with pytest.raises(BitWidthError):
            qsep_certificate_from_json(obj, inst)

    def test_full_four_by_four_certificate_accepts_quickly(self):
        # 256 weighted terms; the Fraction reference needs seconds here, so it is not run
        decomp = rational_separable_decomposition(4, 4, 256, seed=7)
        rho = float_rounded_state(decomp, 4, 4)
        inst = reduce_wmem_to_qsep(rho, 4, 4, Fraction(1, 4))
        cert = truncate_decomposition(decomp, bits_required(inst.delta_p), 4, 4)
        assert all(w > 0 for w, _, _ in cert.terms)
        started = time.perf_counter()
        res = verify_certificate(inst, cert)
        elapsed = time.perf_counter() - started
        assert res.accepted
        assert res.normalization_residual < inst.eps_prime
        assert elapsed < 1.0


class TestInstanceValidation:
    def test_trace_must_be_exactly_one(self):
        rows = tuple(
            tuple(qrat(Fraction(1, 3)) if i == j else QZERO for j in range(4))
            for i in range(4)
        )
        with pytest.raises(CertificateFormatError):
            QsepInstance(2, 2, exact_rows(rows), Fraction(1, 16), Fraction(1), Fraction(1))

    def test_non_hermitian_rejected(self):
        rows = [[QZERO for _ in range(4)] for _ in range(4)]
        for i in range(4):
            rows[i][i] = qrat(Fraction(1, 4))
        rows[0][1] = qrat(Fraction(1, 8))
        with pytest.raises(CertificateFormatError):
            QsepInstance(2, 2, exact_rows(rows), Fraction(1, 16), Fraction(1), Fraction(1))


def respelled(obj, k: int):
    """A copy of an instance JSON with every matrix scalar written as num*k / den*k."""
    obj = json.loads(json.dumps(obj))
    for row in obj["matrix"]:
        for z in row:
            for x in (z["re"], z["im"]):
                x.update(num=str(int(x["num"]) * k), den=str(int(x["den"]) * k))
    return obj


class TestExactMatrix:
    """rho as Gaussian integers over the least common denominator of its entries."""

    def test_lowest_terms_from_any_spelling(self):
        half = ExactMatrix((((1, 0), (0, 1)), ((0, -1), (1, 0))), 2)
        for k in (1, 3, -1, -4):
            rows = [[((k, 2 * k), (0, 5 * k)), ((0, k), (k, 2 * k))],
                    [((0, -k), (-k, 2 * k)), ((2 * k, 4 * k), (0, -k))]]
            assert exact_matrix(rows) == half
        assert exact_matrix([[((0, 7), (0, -3))]]) == ExactMatrix((((0, 0),),), 1)

    def test_least_common_denominator(self):
        rows = [[((1, 6), (1, 4)), ((5, 12), (0, 1))]]
        assert exact_matrix(rows) == ExactMatrix((((2, 3), (5, 0)),), 12)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_matrix([[((1, 2), (1, 0))]])

    def test_float_and_fraction_parts_give_one_instance(self):
        decomp = rational_separable_decomposition(2, 3, 6, seed=4)
        rho = float_rounded_state(decomp, 2, 3)  # Fraction parts, all but the last a float's
        floats = [[QRat(float(z.re), float(z.im)) for z in row] for row in rho]
        floats[-1][-1] = rho[-1][-1]  # the entry that makes the trace exactly 1
        for delta in (Fraction(1, 2), Fraction(1, 7)):
            inst = reduce_wmem_to_qsep(rho, 2, 3, delta)
            assert reduce_wmem_to_qsep(floats, 2, 3, delta) == inst
            assert reduce_wmem_to_qsep(inst.rho, 2, 3, delta) == inst

    @staticmethod
    def parent_format(inst) -> dict:
        """The instance as the per-scalar encoding writes it, each part in lowest terms."""
        obj = serialize.qsep_instance_to_json(inst)
        rows = [[QRat(Fraction(re, inst.rho.den), Fraction(im, inst.rho.den)) for re, im in row]
                for row in inst.rho.rows]
        obj["matrix"] = rational_matrix_to_json(rows)
        return obj

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 4)])
    def test_spellings_decode_to_equal_instances(self, m, n):
        decomp = rational_separable_decomposition(m, n, m * n, seed=m + n)
        inst = reduce_wmem_to_qsep(rational_state_of(decomp, m, n), m, n, Fraction(1, 4))
        written = serialize.qsep_instance_to_json(inst)
        for obj in [written, self.parent_format(inst)]:
            for k in (1, 2, -1, -6):
                assert serialize.qsep_instance_from_json(respelled(obj, k)) == inst

    def test_parent_format_files_read_back_equal(self):
        decomp = rational_separable_decomposition(2, 2, 4, seed=8)
        rho = rational_state_of(decomp, 2, 2)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 2))
        obj = self.parent_format(inst)
        assert obj["matrix"] == rational_matrix_to_json(rho)
        assert serialize.qsep_instance_from_json(obj) == inst
        exact, m, n = serialize.rational_density_from_json(obj)
        assert (exact, m, n) == (inst.rho, 2, 2)
        assert verify_certificate(inst, truncate_decomposition(decomp, 16, 2, 2)).accepted

    @pytest.mark.parametrize("where", ["re", "im", "delta_p"])
    def test_zero_denominator_is_input_error(self, where):
        inst = diag_half_instance()
        obj = self.parent_format(inst)
        scalar = obj["delta_p"] if where == "delta_p" else obj["matrix"][1][2][where]
        scalar["den"] = "0"
        with pytest.raises(serialize.InputFormatError, match="bad rational scalar"):
            serialize.qsep_instance_from_json(obj)

    def test_unit_trace_and_hermitian_checks_in_integers(self):
        obj = serialize.qsep_instance_to_json(diag_half_instance())
        obj["matrix"][3][3]["re"]["num"] = "2"  # trace 3/2
        with pytest.raises(CertificateFormatError, match="3/2"):
            serialize.qsep_instance_from_json(obj)
        obj = serialize.qsep_instance_to_json(diag_half_instance())
        obj["matrix"][0][0]["im"]["num"] = "1"  # a diagonal entry off the real line
        with pytest.raises(CertificateFormatError, match="Hermitian"):
            serialize.qsep_instance_from_json(obj)


class TestErrorBounds:
    def test_sigma_bound_values(self):
        # (m n)^6 2^-(2p - 15), the square of (m n)^3 2^-(p - 7.5)
        assert error_bound_sigma_sq(2, 2, 16) == Fraction(64**2, 2**17)
        assert error_bound_sigma_sq(2, 2, 24) == Fraction(64**2, 2**33)
        assert error_bound_sigma_sq(2, 3, 20) == Fraction(216**2, 2**25)

    def test_normalization_bound_values(self):
        assert error_bound_normalization_exact(2, 2, 16) == Fraction(1, 32)
        assert error_bound_normalization_exact(2, 2, 10) == 2
        assert error_bound_normalization_exact(3, 3, 20) == Fraction(729, 2**15)

    def test_exact_squares_match_floats(self):
        assert float(error_bound_sigma_sq(2, 2, 16)) == pytest.approx((64 * 2**-8.5) ** 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            error_bound_sigma_sq(2, 2, 7)


class TestReduction:
    def test_two_by_two_delta_one_gives_p15(self):
        decomp = rational_separable_decomposition(2, 2, 4, seed=0)
        rho = rational_state_of(decomp, 2, 2)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1))
        p = bits_required(inst.delta_p)
        assert p == 15
        cube = Fraction(64)
        assert cube * (Fraction(2) ** (8 - p) + Fraction(2) ** (5 - p)) <= 1
        assert cube * (Fraction(2) ** (8 - 14) + Fraction(2) ** (5 - 14)) > 1
        assert inst.eps_prime == error_bound_normalization_exact(2, 2, p) == cube * 2 ** (5 - p)

    def test_error_budget_always_fits(self):
        decomp = rational_separable_decomposition(2, 3, 4, seed=1)
        rho = rational_state_of(decomp, 2, 3)
        for delta in (Fraction(1), Fraction(1, 3), Fraction(1, 10)):
            inst = reduce_wmem_to_qsep(rho, 2, 3, delta)
            assert inst.eps_prime + inst.delta_prime <= delta

    def test_halving_delta_increments_p(self):
        decomp = rational_separable_decomposition(2, 2, 4, seed=2)
        rho = rational_state_of(decomp, 2, 2)
        for delta in (Fraction(1), Fraction(2, 7), Fraction(1, 13)):
            p1 = bits_required(reduce_wmem_to_qsep(rho, 2, 2, delta).delta_p)
            p2 = bits_required(reduce_wmem_to_qsep(rho, 2, 2, delta / 2).delta_p)
            assert p2 == p1 + 1


def looped_bits(target: Fraction, start: int) -> int:
    """The loop that chose p before: smallest p >= start with 2^p >= target."""
    p = start
    while Fraction(2) ** p < target:
        p += 1
    return p


positive_fractions = st.one_of(
    st.integers(0, 70).map(lambda k: Fraction(1, 2**k)),  # dyadic, up to 1
    st.fractions(min_value=Fraction(1, 10**12), max_value=1, max_denominator=10**12),
    st.fractions(min_value=1, max_value=10**6, max_denominator=1000),  # above 1
).filter(lambda x: x > 0)


class TestBitsInIntegers:
    """p from bit_length of a ceiling quotient equals the old power-of-two loop."""

    @given(x=positive_fractions)
    @settings(max_examples=300, deadline=None)
    def test_bits_required_matches_the_loop(self, x):
        assert bits_required(x) == looped_bits(1 / x, 0)

    @given(delta=positive_fractions, m=st.integers(1, 4), n=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_reduction_matches_the_loop(self, delta, m, n):
        rho = tuple(tuple(qrat(1) if i == j == 0 else QZERO for j in range(m * n))
                    for i in range(m * n))
        p = looped_bits(288 * Fraction((m * n) ** 3) / delta, 1)
        assert reduce_wmem_to_qsep(rho, m, n, delta).delta_p == Fraction(1, 2**p)

    @pytest.mark.parametrize("x,p", [
        (Fraction(1), 0), (Fraction(1, 2), 1), (Fraction(1, 3), 2), (Fraction(1, 4), 2),
        (Fraction(1, 5), 3), (Fraction(3, 2), 0), (Fraction(10**6), 0),
        (Fraction(2, 2**40 + 1), 40),
    ])
    def test_boundary_values(self, x, p):
        assert bits_required(x) == looped_bits(1 / x, 0) == p


def encoded(x: Fraction, k: int) -> dict:
    """x as {"num", "den"} with both parts multiplied by k (k < 0 flips both signs)."""
    return {"num": str(x.numerator * k), "den": str(x.denominator * k)}


def reencoded_certificate_json(cert: QsepCertificate, k: int) -> dict:
    """The JSON of `cert` with every scalar written unreduced, as num*k / den*k."""

    def vec(v):
        return [{"re": encoded(x.re, k), "im": encoded(x.im, k)} for x in v]

    terms = [{"weight": encoded(w, k), "alpha": vec(a), "beta": vec(b)} for w, a, b in cert.terms]
    return {"m": cert.m, "n": cert.n, "terms": terms}


def exact(x) -> Fraction:
    return Fraction(int(x["num"]), int(x["den"]))


def cli_verify(capsys, tmp_path, inst, obj):
    """Exit code and report of `sepscan qsep-verify` on `inst` and the JSON value `obj`."""
    inst_path, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    serialize.dump_json(serialize.qsep_instance_to_json(inst), inst_path)
    cert_path.write_text(json.dumps(obj))
    code = cli.main(["qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path)])
    return code, json.loads(capsys.readouterr().out)


# (tamper, error) for one scalar; None marks an equal scalar written another way
SCALAR_TAMPERS = {
    "den0": (lambda x: x.update(den="0"), serialize.InputFormatError),
    "den3": (lambda x: x.update(num="1", den="3"), BitWidthError),  # in [-1, 1], not dyadic
    "too_fine": (lambda x: x.update(num="1", den=str(2**70)), BitWidthError),
    "above_one": (lambda x: x.update(num="5", den="4"), BitWidthError),
    "below_minus_one": (lambda x: x.update(num="-5", den="4"), BitWidthError),
    "unreduced": (lambda x: x.update(num=str(2 * int(x["num"])), den=str(2 * int(x["den"]))),
                  None),
    "negative_den": (lambda x: x.update(num=str(-int(x["num"])), den=str(-int(x["den"]))),
                     None),
    "missing_den": (lambda x: x.pop("den"), serialize.InputFormatError),
    "not_an_integer": (lambda x: x.update(num="one"), serialize.InputFormatError),
    "empty": (lambda x: x.clear(), serialize.InputFormatError),
}

# (tamper, error) for the file's structure
SHAPE_TAMPERS = {
    "no_terms": (lambda c: c.pop("terms"), serialize.InputFormatError),
    "no_m": (lambda c: c.pop("m"), serialize.InputFormatError),
    "m_not_an_integer": (lambda c: c.update(m="two"), serialize.InputFormatError),
    "term_missing": (lambda c: c["terms"].pop(), serialize.InputFormatError),
    "extra_term": (lambda c: c["terms"].append(c["terms"][0]), serialize.InputFormatError),
    "short_alpha": (lambda c: c["terms"][3]["alpha"].pop(), serialize.InputFormatError),
    "scalar_without_re": (lambda c: c["terms"][3]["beta"][0].pop("re"),
                          serialize.InputFormatError),
    "negative_weight": (lambda c: c["terms"][3]["weight"].update(num="-1"),
                        serialize.InputFormatError),
    "wrong_m": (lambda c: c.update(m=3), serialize.InputFormatError),
    "terms_not_a_list": (lambda c: c.update(terms={"a": 1}), serialize.InputFormatError),
    # the first scalar that is not a p-bit dyadic is found before the shape is checked
    "non_dyadic_and_wrong_n": (lambda c: (c["terms"][0]["alpha"][0]["re"].update(den="3"),
                                          c.update(n=3)), BitWidthError),
    "non_dyadic_then_den0": (lambda c: (c["terms"][0]["alpha"][0]["re"].update(den="3"),
                                        c["terms"][5]["beta"][0]["im"].update(den="0")),
                             BitWidthError),
}


class TestScaledDecoder:
    """`qsep_certificate_from_json`: files to integers over 2^p, or exit 64 for `qsep-verify`."""

    @given(
        shape=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
        p=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        k=st.sampled_from([1, 1, 2, 3, -1, -6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_certificates_give_identical_results(self, shape, p, seed, k):
        """Decoded terms equal Fraction(num, den) of the file, written unreduced or negated."""
        m, n = shape
        rho = rational_state_of(rational_separable_decomposition(m, n, 2, seed=seed % 50), m, n)
        inst = QsepInstance(m, n, exact_rows(rho), Fraction(1, 2**p), Fraction(1, 3),
                            Fraction(5, 7))
        cert = random_dyadic_certificate(m, n, p, seed, padding=seed % (m * n))
        obj = reencoded_certificate_json(cert, k)
        decoded = qsep_certificate_from_json(obj, inst)

        def vector(v):
            return tuple(QRat(exact(x["re"]), exact(x["im"])) for x in v)

        want = tuple((exact(t["weight"]), vector(t["alpha"]), vector(t["beta"]))
                     for t in obj["terms"])
        assert decoded.terms == want
        assert decoded == cert

    @staticmethod
    def certificate():
        decomp = rational_separable_decomposition(2, 2, 4, seed=21)
        inst = reduce_wmem_to_qsep(rational_state_of(decomp, 2, 2), 2, 2, Fraction(1, 2))
        cert = truncate_decomposition(decomp, bits_required(inst.delta_p), 2, 2)
        return inst, qsep_certificate_to_json(cert)

    def test_valid_certificate_is_accepted(self, capsys, tmp_path):
        inst, obj = self.certificate()
        code, report = cli_verify(capsys, tmp_path, inst, obj)
        assert (code, report["result"]["accepted"]) == (0, True)

    @pytest.mark.parametrize("where", ["weight", "alpha", "beta"])
    @pytest.mark.parametrize("name", SCALAR_TAMPERS)
    def test_tampered_scalar(self, capsys, tmp_path, name, where):
        tamper, error = SCALAR_TAMPERS[name]
        inst, obj = self.certificate()
        term = obj["terms"][0]
        tamper(term["weight"] if where == "weight" else term[where][1]["im"])
        code, report = cli_verify(capsys, tmp_path, inst, obj)
        if error is None:  # an equal scalar written another way verifies as the original
            _, original = self.certificate()
            decoded = qsep_certificate_from_json(obj, inst)
            assert decoded == qsep_certificate_from_json(original, inst)
            assert (code, report["result"]["accepted"]) == (0, True)
        else:
            with pytest.raises(error):
                qsep_certificate_from_json(obj, inst)
            assert (code, report["kind"]) == (64, "input")

    @pytest.mark.parametrize("name", SHAPE_TAMPERS)
    def test_tampered_shape(self, capsys, tmp_path, name):
        tamper, error = SHAPE_TAMPERS[name]
        inst, obj = self.certificate()
        tamper(obj)
        with pytest.raises(error):
            qsep_certificate_from_json(obj, inst)
        code, report = cli_verify(capsys, tmp_path, inst, obj)
        assert (code, report["kind"]) == (64, "input")

    def test_not_an_object(self, capsys, tmp_path):
        inst, obj = self.certificate()
        with pytest.raises(serialize.InputFormatError):
            qsep_certificate_from_json([obj], inst)
        code, report = cli_verify(capsys, tmp_path, inst, [obj])
        assert (code, report["kind"]) == (64, "input")

    def test_scale_must_match_the_instance(self):
        inst, obj = self.certificate()
        finer = QsepInstance(2, 2, inst.rho, inst.delta_p / 2, inst.eps_prime, inst.delta_prime)
        cert = qsep_certificate_from_json(obj, finer)
        assert cert.p == bits_required(inst.delta_p) + 1
        with pytest.raises(CertificateFormatError):
            verify_certificate(inst, cert)



class TestCertificateWriter:
    """`qsep_certificate_to_json` writes each integer over 2^p as a ratio in lowest terms."""

    @staticmethod
    def searched():
        # certified after an oracle call, so the atoms include a maximizer with complex entries
        rho = states.product_mixture(2, 3, 12, 0)
        res = wsep_solve(rho, 0.3, build_net(2, 0.03, method="band"))
        assert res.stop == "certificate" and res.iterations >= 1
        return res.instance, res.certificate

    @staticmethod
    def truncated():
        decomp = rational_separable_decomposition(2, 2, 4, seed=21)
        inst = reduce_wmem_to_qsep(rational_state_of(decomp, 2, 2), 2, 2, Fraction(1, 2))
        return inst, truncate_decomposition(decomp, bits_required(inst.delta_p), 2, 2)

    @pytest.mark.parametrize("source", ["searched", "truncated"])
    def test_writes_the_terms_and_reads_back(self, source):
        inst, cert = getattr(self, source)()

        def ratio(x: Fraction) -> dict:
            return {"num": str(x.numerator), "den": str(x.denominator)}

        def vector(v):
            return [{"re": ratio(z.re), "im": ratio(z.im)} for z in v]

        want = {"m": cert.m, "n": cert.n, "terms": [
            {"weight": ratio(w), "alpha": vector(a), "beta": vector(b)} for w, a, b in cert.terms
        ]}
        obj = qsep_certificate_to_json(cert)
        assert obj == want
        assert has_negative_component(cert) and any(w == 0 for w, _, _ in cert.scaled)
        assert qsep_certificate_from_json(json.loads(json.dumps(obj)), inst) == cert

class TestPropositionsEndToEnd:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("p", [12, 16, 20])
    def test_truncation_errors_respect_bounds(self, m, n, p):
        for seed in range(4):
            decomp = rational_separable_decomposition(m, n, 5, seed=seed)
            rho = rational_state_of(decomp, m, n)
            cert = truncate_decomposition(decomp, p, m, n)
            sigma = certificate_state(cert)
            dist_sq = frobenius_sq(mat_sub(rho, sigma))
            assert dist_sq < error_bound_sigma_sq(m, n, p)
            total = sum(t[0] for t in cert.terms)
            worst = Fraction(0)
            for w, alpha, beta in cert.terms:
                if w == 0:
                    continue
                worst = max(worst, abs(1 - vec_norm_sq(alpha) * vec_norm_sq(beta) * total))
            assert worst < error_bound_normalization_exact(m, n, p)


class TestWmemOutTransform:
    def test_maximally_mixed_is_fixed_point(self):
        rho = states.maximally_mixed(2, 2)
        mat0, delta0, lam = wmem_out_to_wmem(rho, 0.3)
        np.testing.assert_allclose(mat0, rho.mat, atol=1e-12)
        assert lam == pytest.approx(0.25)

    def test_delta_scaling(self):
        rho = states.maximally_mixed(2, 2)
        _, delta0, _ = wmem_out_to_wmem(rho, 0.12)
        assert delta0 == pytest.approx(0.12 / (2 * np.sqrt(12.0)))

    def test_shift_norm_identity(self):
        rho = states.werner(0.7)
        delta = 0.2
        mat0, _, _ = wmem_out_to_wmem(rho, delta)
        eye = np.eye(4) / 4
        lhs = np.linalg.norm(rho.mat - mat0)
        rhs = delta / 2 * np.linalg.norm(rho.mat - eye)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs <= delta / 2 + 1e-12


def assert_float_free(module, names):
    """No float literal, float() or np/numpy/math attribute in any function of
    these names (every `__post_init__`, say, not only the last)."""
    tree = ast.parse(inspect.getsource(module))
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    missing = [f for f in names if f not in defs]
    assert not missing, f"functions vanished: {missing}"
    for name in names:
        for node in (n for d in defs[name] for n in ast.walk(d)):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                raise AssertionError(f"float literal {node.value} in {name}")
            if isinstance(node, ast.Name) and node.id == "float":
                raise AssertionError(f"float() call in {name}")
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("np", "numpy", "math"):
                    raise AssertionError(f"{node.value.id}.{node.attr} used in {name}")


class TestNoFloatAudit:
    VERIFICATION_PATH = [
        "verify_certificate",
        "_check_terms",
        "terms",
        "truncate_decomposition",
        "_common",
        "exact_matrix",
        "__post_init__",  # the instance's shape, Hermitian and trace checks, the range check
        "_ceil_log2",
        "bits_required",
        "reduce_wmem_to_qsep",
        "error_bound_normalization_exact",
    ]
    # the decoders of `sepscan qsep-verify`: the certificate's, with its nested
    # `scaled` and `vector`, and the instance's, down to its header and ratio
    # readers; and the certificate writer, which works on the same integers
    DECODER_PATH = [
        "qsep_certificate_to_json",
        "qsep_certificate_from_json",
        "qsep_instance_from_json",
        "rational_density_from_json",
        "header_from_json",
        "_ratio_from_json",
    ]

    def test_verification_path_is_float_free(self):
        assert_float_free(qsep, self.VERIFICATION_PATH)

    def test_decoders_are_float_free(self):
        assert_float_free(serialize, self.DECODER_PATH)

    def test_audit_catches_numpy(self):
        with pytest.raises(AssertionError, match="np.array used in matrix_from_json"):
            assert_float_free(serialize, ["matrix_from_json"])

    def test_module_imports_neither_numpy_nor_math(self):
        tree = ast.parse(inspect.getsource(qsep))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
        assert imported == {"__future__", "dataclasses", "fractions"}


class TestRationalHelpers:
    def test_stereographic_vectors_are_exactly_unit(self):
        rng = np.random.default_rng(5)
        for m in (2, 3):
            v = rational_unit_vector(m, rng)
            assert vec_norm_sq(v) == 1

    def test_state_of_decomposition_has_unit_trace(self):
        decomp = rational_separable_decomposition(2, 3, 5, seed=9)
        rho = rational_state_of(decomp, 2, 3)
        tr = sum((rho[i][i].re for i in range(6)), Fraction(0))
        assert tr == 1
