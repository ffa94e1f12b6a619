"""Exact certificate machinery for near-separable decompositions.

A certificate is a list of m^2 n^2 weighted product terms whose scalars
are p-bit dyadic rationals, and acceptance checks the two requirements

  (1)  |1 - ||alpha_i||^2 ||beta_i||^2 sum_j p_j| < eps'   for all i
  (2)  tr((rho - sigma~)^2) < delta'^2

exactly, with sigma~ the unnormalized reconstruction.  Zero-weight
padding terms are exempt from (1): they carry no state and would
otherwise force their zero vectors to look normalized.

An instance holds rho as an `ExactMatrix`, Gaussian integers over the least
common denominator D of its entries, which `exact_matrix` builds from the
integer ratios (num, den) every producer reads.

"p-bit number" means a dyadic rational a / 2^p with |a| <= 2^p (all
certified scalars are bounded by one in magnitude).  A `QsepCertificate`
therefore holds each scalar x as the integer x 2^p, and refuses an integer
outside [-2^p, 2^p]: `truncate_decomposition` makes one, and
`serialize.qsep_certificate_from_json` decodes a file straight to one, with
no `Fraction` per scalar.  The check runs on those
Python integers: alpha_i (x) beta_i holds Gaussian integers over 2^(2p)
and sigma~ 2^(5p) = sum_i W_i v_i v_i† is an integer matrix (W_i = p_i 2^p),
summed over its upper triangle.  The normalization gaps are integers over
2^(5p), and so is the distance tr((rho - sigma~)^2), over (D 2^(5p))^2:
one `Fraction` holds it.  No float, no numpy and no `math` touch this path.

Truncation is toward zero, matching the error budget of the closed-form
bounds m^3 n^3 2^-(p-7.5) (reconstruction, Euclidean) and
m^3 n^3 2^-(p-5) (normalization defect).  The weak-membership reduction
picks the smallest p with m^3 n^3 (2^-(p-8) + 2^-(p-5)) <= delta, so a
truncated exact decomposition always verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class BitWidthError(ValueError):
    """A certificate scalar does not fit in the advertised dyadic width."""


class CertificateFormatError(ValueError):
    """Certificate shape or instance dimensions are inconsistent."""


@dataclass(frozen=True)
class QRat:
    """Complex number with exact real and imaginary parts: int, float or Fraction."""

    re: Fraction
    im: Fraction


def _common(ratios) -> tuple[list[int], int]:
    """(num, den) integer ratios as integers over one positive denominator, the
    lcm of theirs; a zero denominator raises ZeroDivisionError."""
    den = 1
    for _, b in ratios:
        if den % b:  # lcm(den, b) = den |b| / gcd(den, b)
            den *= Fraction(den, b).denominator
    return [a * (den // b) for a, b in ratios], den


@dataclass(frozen=True)
class ExactMatrix:
    """A complex rational matrix as Gaussian integers over one denominator:
    entry (i, j) is (re + i im) / den with (re, im) = rows[i][j], and den > 0 is
    the least common denominator of the entries, so equal matrices compare equal."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    den: int


def exact_matrix(rows) -> ExactMatrix:
    """The matrix of rows of ((re_num, re_den), (im_num, im_den)) entries, in any
    spelling (unreduced, negative denominators), with no `Fraction` per scalar;
    a zero denominator raises ZeroDivisionError."""
    nums, den = _common([r for row in rows for z in row for r in z])
    g = den  # gcd(den, every numerator), which takes the lcm to lowest terms
    for x in nums:
        if x % g:
            g //= Fraction(x, g).denominator  # to gcd(x, g) = g / (g / gcd(x, g))
    nums = [x // g for x in nums] if g > 1 else nums
    pairs = zip(nums[::2], nums[1::2])
    return ExactMatrix(tuple(tuple(next(pairs) for _ in row) for row in rows), den // g)


@dataclass(frozen=True)
class QsepInstance:
    m: int
    n: int
    rho: ExactMatrix
    delta_p: Fraction
    eps_prime: Fraction
    delta_prime: Fraction

    def __post_init__(self):
        d = self.m * self.n
        rows = self.rho.rows
        if len(rows) != d or any(len(r) != d for r in rows):
            raise CertificateFormatError(f"rho must be {d}x{d}")
        if any(row[j] != (rows[j][i][0], -rows[j][i][1]) for i, row in enumerate(rows)
               for j in range(i, d)):
            raise CertificateFormatError("rho must be Hermitian with rational entries")
        trace = Fraction(sum(row[i][0] for i, row in enumerate(rows)), self.rho.den)
        if trace != 1:
            raise CertificateFormatError(f"rho trace must be exactly 1, got {trace}")
        if self.delta_p <= 0 or self.eps_prime <= 0 or self.delta_prime <= 0:
            raise CertificateFormatError("accuracy parameters must be positive")


def _check_terms(m: int, n: int, terms) -> None:
    want = m**2 * n**2
    if len(terms) != want:
        raise CertificateFormatError(
            f"certificate must list exactly {want} terms, got {len(terms)}"
        )
    for p, alpha, beta in terms:
        if p < 0:
            raise CertificateFormatError("weights must be nonnegative")
        if len(alpha) != m or len(beta) != n:
            raise CertificateFormatError("component vector dimensions are wrong")


@dataclass(frozen=True)
class QsepCertificate:
    """A certificate as integers over 2^p, the form `verify_certificate` checks.

    Term i of `scaled` is (W_i, a_i, b_i) with W_i = p_i 2^p, and a_i, b_i hold
    the (re, im) pairs of alpha_i 2^p and beta_i 2^p.  Every scalar is a p-bit
    dyadic in [-1, 1], so every integer lies in [-2^p, 2^p]; an integer
    outside raises BitWidthError.
    """

    m: int
    n: int
    p: int
    scaled: tuple[tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        one = 1 << self.p
        for i, (w, alpha, beta) in enumerate(self.scaled):
            if abs(w) > one or any(abs(re) > one or abs(im) > one for re, im in alpha + beta):
                raise BitWidthError(f"term {i} has a scalar above 1 in magnitude")
        _check_terms(self.m, self.n, self.scaled)

    @property
    def terms(self) -> tuple[tuple[Fraction, tuple[QRat, ...], tuple[QRat, ...]], ...]:
        """The terms as (weight, alpha, beta) with `Fraction` and `QRat` scalars.

        No code in `src` reads it: the JSON writer works on `scaled`.  The
        tests compare certificates with their exact references through it, and
        perfbench's `screen` workload writes its certificate files and rebuilds
        sigma~ in floats from it.
        """
        one = 1 << self.p

        def vector(v) -> tuple[QRat, ...]:
            return tuple(QRat(Fraction(re, one), Fraction(im, one)) for re, im in v)

        return tuple((Fraction(w, one), vector(a), vector(b)) for w, a, b in self.scaled)


def _ceil_log2(num: int, den: int) -> int:
    """Smallest p >= 0 with 2^p >= num/den, for positive integers num and den."""
    return (-(-num // den) - 1).bit_length()


def bits_required(delta_p: Fraction) -> int:
    """Smallest p with 2^p >= 1/delta_p."""
    if delta_p <= 0:
        raise ValueError("delta_p must be positive")
    return _ceil_log2(delta_p.denominator, delta_p.numerator)


@dataclass(frozen=True)
class VerificationResult:
    accepted: bool
    normalization_residual: Fraction  # max over nonzero terms of |1 - ...|
    distance_sq: Fraction  # tr((rho - sigma~)^2)


def verify_certificate(inst: QsepInstance, cert: QsepCertificate) -> VerificationResult:
    """Exact acceptance check of requirements (1) and (2) in integers over 2^(5p).

    `cert` must be over 2^p, p = bits_required(inst.delta_p).
    """
    if (inst.m, inst.n) != (cert.m, cert.n):
        raise CertificateFormatError(
            f"instance is {inst.m}x{inst.n}, certificate is {cert.m}x{cert.n}"
        )
    p = bits_required(inst.delta_p)
    if cert.p != p:
        raise CertificateFormatError(f"certificate is over 2^{cert.p}, the instance needs 2^{p}")
    terms = cert.scaled
    one = 1 << (5 * p)
    total_weight = sum(w for w, _, _ in terms)
    d = inst.m * inst.n
    # row i of the upper triangle of sigma~ 2^(5p), columns i..d-1
    sig_re = [[0] * (d - i) for i in range(d)]
    sig_im = [[0] * (d - i) for i in range(d)]
    worst_gap = 0
    for w, alpha, beta in terms:
        if w == 0:
            continue  # padding terms carry no state
        norm_a = sum(re * re + im * im for re, im in alpha)
        norm_b = sum(re * re + im * im for re, im in beta)
        worst_gap = max(worst_gap, abs(one - norm_a * norm_b * total_weight))
        v = [(ar * br - ai * bi, ar * bi + ai * br) for ar, ai in alpha for br, bi in beta]
        for i, (xr, xi) in enumerate(v):
            xr, xi = w * xr, w * xi  # w v_i conj(v_j), j >= i
            tail = v[i:]
            sig_re[i] = [s + xr * yr + xi * yi for s, (yr, yi) in zip(sig_re[i], tail)]
            sig_im[i] = [s + xi * yr - xr * yi for s, (yr, yi) in zip(sig_im[i], tail)]
    # rho_ij - sigma~_ij = (a_ij one - s_ij den) / (den one), a_ij / den the entries of rho
    den = inst.rho.den
    dist_num = 0
    for i, (row, row_re, row_im) in enumerate(zip(inst.rho.rows, sig_re, sig_im)):
        for k, ((a_re, a_im), s_re, s_im) in enumerate(zip(row[i:], row_re, row_im)):
            d_re = a_re * one - s_re * den
            d_im = a_im * one - s_im * den
            sq = d_re * d_re + d_im * d_im
            dist_num += sq if k == 0 else 2 * sq  # both (i, j) and (j, i)
    dist_sq = Fraction(dist_num, (den * one) ** 2)
    norm_residual = Fraction(worst_gap, one)
    accepted = norm_residual < inst.eps_prime and dist_sq < inst.delta_prime**2
    return VerificationResult(accepted, norm_residual, dist_sq)


def truncate_decomposition(
    decomp: list[tuple],
    p: int,
    m: int,
    n: int,
) -> QsepCertificate:
    """p-bit truncation of a normalized product decomposition, toward zero.

    Input terms are (weight, alpha, beta) with int, float or Fraction weights
    and QRat or Python number entries, each part read by `as_integer_ratio`.
    Each scalar x becomes the integer x 2^p truncated toward zero, so it moves
    by less than 2^-p; `QsepCertificate` refuses one above 1 in magnitude.
    The unit-norm and weight-sum checks run in integers.  Shorter
    decompositions are padded with zero terms up to m^2 n^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    want = m**2 * n**2
    if len(decomp) > want:
        raise ValueError(f"decomposition has {len(decomp)} > {want} terms")
    tol = 10**9  # |x - 1| <= 1e-9 as |num - den| tol <= den

    def truncated(x: int, den: int) -> int:
        """(x / den) 2^p truncated toward zero."""
        q = (abs(x) << p) // den
        return q if x >= 0 else -q

    def unit_vector(v) -> tuple[tuple[int, int], ...]:
        parts = [x for z in v for x in ((z.re, z.im) if isinstance(z, QRat) else (z.real, z.imag))]
        nums, den = _common([x.as_integer_ratio() for x in parts])
        if abs(sum(x * x for x in nums) - den * den) * tol > den * den:
            raise ValueError("decomposition vectors must be unit within 1e-9")
        t = [truncated(x, den) for x in nums]
        return tuple(zip(t[::2], t[1::2]))

    weights, wden = _common([w.as_integer_ratio() for w, _, _ in decomp])
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    terms = [
        (truncated(w, wden), unit_vector(alpha), unit_vector(beta))
        for w, (_, alpha, beta) in zip(weights, decomp)
    ]
    if abs(sum(weights) - wden) * tol > wden:
        raise ValueError("weights must sum to 1 within 1e-9")
    padding = (0, ((0, 0),) * m, ((0, 0),) * n)
    terms.extend([padding] * (want - len(terms)))
    return QsepCertificate(m, n, p, tuple(terms))


def error_bound_sigma_sq(m: int, n: int, p: int) -> Fraction:
    """Exact square of the reconstruction bound m^3 n^3 2^-(p-7.5).

    No code in `src` calls it: it states the paper's truncation
    proposition, which acceptance 6 checks on every truncated certificate.
    """
    if p < 8:
        raise ValueError("bound needs p >= 8")
    return Fraction((m * n) ** 6) * Fraction(2) ** (-(2 * p - 15))


def error_bound_normalization_exact(m: int, n: int, p: int) -> Fraction:
    """Normalization defect bound m^3 n^3 2^-(p-5), the instance's eps'."""
    return Fraction((m * n) ** 3) * Fraction(2) ** (-(p - 5))


def error_bound_reconstruction(m: int, n: int, p: int) -> Fraction:
    """Reconstruction bound m^3 n^3 2^-(p-8), the instance's delta'."""
    return Fraction((m * n) ** 3) * Fraction(2) ** (8 - p)


def reduction_bits(m: int, n: int, delta: Fraction) -> int:
    """The smallest p >= 1 whose combined truncation error fits under delta:
    m^3 n^3 (2^-(p-8) + 2^-(p-5)) <= delta, i.e. 2^p >= 288 m^3 n^3 / delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return max(1, _ceil_log2(288 * (m * n) ** 3 * delta.denominator, delta.numerator))


def reduce_wmem_to_qsep(rho, m: int, n: int, delta: Fraction) -> QsepInstance:
    """The instance of p = reduction_bits(m, n, delta): delta_p = 2^-p,
    delta' = m^3 n^3 2^-(p-8), eps' = m^3 n^3 2^-(p-5).

    rho is an `ExactMatrix`, or rows of QRat with int, float or Fraction parts.
    """
    if not isinstance(rho, ExactMatrix):
        rho = exact_matrix(
            [[(z.re.as_integer_ratio(), z.im.as_integer_ratio()) for z in row] for row in rho]
        )
    p = reduction_bits(m, n, delta)
    return QsepInstance(
        m,
        n,
        rho,
        delta_p=Fraction(1, 2**p),
        eps_prime=error_bound_normalization_exact(m, n, p),
        delta_prime=error_bound_reconstruction(m, n, p),
    )
