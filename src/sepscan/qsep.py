"""Exact certificate machinery for near-separable decompositions.

A certificate is a list of m^2 n^2 weighted product terms whose scalars
are p-bit dyadic rationals, and acceptance checks the two requirements

  (1)  |1 - ||alpha_i||^2 ||beta_i||^2 sum_j p_j| < eps'   for all i
  (2)  tr((rho - sigma~)^2) < delta'^2

exactly, with sigma~ the unnormalized reconstruction.  Zero-weight
padding terms are exempt from (1): they carry no state and would
otherwise force their zero vectors to look normalized.

"p-bit number" means a dyadic rational a / 2^p with |a| <= 2^p (all
certified scalars are bounded by one in magnitude).  A `QsepCertificate`
therefore holds each scalar x as the integer x 2^p, and refuses an integer
outside [-2^p, 2^p]: `truncate_decomposition` makes one, and
`serialize.qsep_certificate_from_json` decodes a file straight to one, with
no `Fraction` per scalar.  The check runs on those
Python integers: alpha_i (x) beta_i holds Gaussian integers over 2^(2p)
and sigma~ 2^(5p) = sum_i W_i v_i v_i† is an integer matrix (W_i = p_i 2^p),
summed over its upper triangle.  The normalization gaps are integers over
2^(5p), and so is the distance tr((rho - sigma~)^2), over (D 2^(5p))^2 with
D the common denominator of rho's entries: one `Fraction` holds it.  No
float, no numpy and no `math` touch this path.

Truncation is toward zero, matching the error budget of the closed-form
bounds m^3 n^3 2^-(p-7.5) (reconstruction, Euclidean) and
m^3 n^3 2^-(p-5) (normalization defect).  The weak-membership reduction
picks the smallest p with m^3 n^3 (2^-(p-8) + 2^-(p-5)) <= delta, so a
truncated exact decomposition always verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)


class BitWidthError(ValueError):
    """A certificate scalar does not fit in the advertised dyadic width."""


class CertificateFormatError(ValueError):
    """Certificate shape or instance dimensions are inconsistent."""


@dataclass(frozen=True)
class QRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: "QRat") -> "QRat":
        return QRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QRat") -> "QRat":
        return QRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QRat") -> "QRat":
        return QRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "QRat":
        return QRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def scale(self, c: Fraction) -> "QRat":
        return QRat(self.re * c, self.im * c)


QZERO = QRat(ZERO, ZERO)


def qrat(re, im=0) -> QRat:
    return QRat(Fraction(re), Fraction(im))


def vec_norm_sq(v: tuple[QRat, ...]) -> Fraction:
    total = ZERO
    for x in v:
        total += x.abs2()
    return total


def is_hermitian_rational(a) -> bool:
    d = len(a)
    for i in range(d):
        for j in range(d):
            if a[i][j].re != a[j][i].re or a[i][j].im != -a[j][i].im:
                return False
    return True


def rational_trace(a) -> QRat:
    t = QZERO
    for i in range(len(a)):
        t = t + a[i][i]
    return t


@dataclass(frozen=True)
class QsepInstance:
    m: int
    n: int
    rho: tuple[tuple[QRat, ...], ...]
    delta_p: Fraction
    eps_prime: Fraction
    delta_prime: Fraction

    def __post_init__(self):
        d = self.m * self.n
        if len(self.rho) != d or any(len(r) != d for r in self.rho):
            raise CertificateFormatError(f"rho must be {d}x{d}")
        if not is_hermitian_rational(self.rho):
            raise CertificateFormatError("rho must be Hermitian with rational entries")
        tr = rational_trace(self.rho)
        if tr.re != 1 or tr.im != 0:
            raise CertificateFormatError(f"rho trace must be exactly 1, got {tr.re}")
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
        """The terms as (weight, alpha, beta) with `Fraction` and `QRat` scalars."""
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
    # rho_ij - sigma~_ij = (a_ij one - s_ij den) / (den one), den the lcm of rho's denominators
    upper = [inst.rho[i][i:] for i in range(d)]
    den = 1
    for q in {x.denominator for row in upper for r in row for x in (r.re, r.im)}:
        den *= Fraction(den, q).denominator  # lcm(den, q) = den q / gcd(den, q)
    dist_num = 0
    for row, row_re, row_im in zip(upper, sig_re, sig_im):
        for k, (r, s_re, s_im) in enumerate(zip(row, row_re, row_im)):
            d_re = r.re.numerator * (den // r.re.denominator) * one - s_re * den
            d_im = r.im.numerator * (den // r.im.denominator) * one - s_im * den
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

    Input terms are (weight, alpha, beta) with exact Fraction/QRat scalars
    or floats (floats convert exactly before truncating).  Each scalar x
    becomes the integer x 2^p truncated toward zero, so it moves by less
    than 2^-p; `QsepCertificate` refuses one above 1 in magnitude.  Shorter
    decompositions are padded with zero terms up to m^2 n^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    want = m**2 * n**2
    if len(decomp) > want:
        raise ValueError(f"decomposition has {len(decomp)} > {want} terms")

    def to_qrat(x) -> QRat:
        if isinstance(x, QRat):
            return x
        if isinstance(x, complex):
            return QRat(Fraction(x.real), Fraction(x.imag))
        return QRat(Fraction(x), ZERO)

    def truncated(x: Fraction) -> int:
        """x 2^p truncated toward zero."""
        q = (abs(x.numerator) << p) // x.denominator
        return q if x.numerator >= 0 else -q

    def vector(v: tuple[QRat, ...]) -> tuple[tuple[int, int], ...]:
        return tuple((truncated(x.re), truncated(x.im)) for x in v)

    terms = []
    weight_sum = ZERO
    for w, alpha, beta in decomp:
        wf = w if isinstance(w, Fraction) else Fraction(w)
        if wf < 0:
            raise ValueError("weights must be nonnegative")
        weight_sum += wf
        ta = tuple(to_qrat(x) for x in alpha)
        tb = tuple(to_qrat(x) for x in beta)
        if abs(vec_norm_sq(ta) - 1) > Fraction(1, 10**9) or abs(
            vec_norm_sq(tb) - 1
        ) > Fraction(1, 10**9):
            raise ValueError("decomposition vectors must be unit within 1e-9")
        terms.append((truncated(wf), vector(ta), vector(tb)))
    if abs(weight_sum - 1) > Fraction(1, 10**9):
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


def reduce_wmem_to_qsep(
    rho: tuple[tuple[QRat, ...], ...],
    m: int,
    n: int,
    delta: Fraction,
) -> QsepInstance:
    """The instance of p = reduction_bits(m, n, delta): delta_p = 2^-p,
    delta' = m^3 n^3 2^-(p-8), eps' = m^3 n^3 2^-(p-5)."""
    p = reduction_bits(m, n, delta)
    return QsepInstance(
        m,
        n,
        rho,
        delta_p=Fraction(1, 2**p),
        eps_prime=error_bound_normalization_exact(m, n, p),
        delta_prime=error_bound_reconstruction(m, n, p),
    )
