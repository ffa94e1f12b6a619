"""Shared helpers: exact-rational separable states with known decompositions,
certificates of dyadic terms, the `Fraction` reference of certificate
verification with its own complex arithmetic, the parent's per-scalar
rational matrix encoding, random Hermitian operators, Haar-random local unitaries, graph
JSON, partial traces, the dense product basis that Bloch coordinates refer
to, the property check of a found extension, and the cutting-plane search
without its primal stop."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sepscan.core import _su_generators, from_bloch
from sepscan.qsep import (
    BitWidthError,
    CertificateFormatError,
    ExactMatrix,
    QRat,
    QsepCertificate,
    VerificationResult,
    bits_required,
    exact_matrix,
)
from sepscan.symext import ExtensionProblem, ExtensionResult, _ExtensionMaps
from sepscan.witness import RegionEmptyError, SearchStats, cut, initial_region
from sepscan.wopt import wopt_max


def dense_bloch_basis(m: int, n: int) -> np.ndarray:
    """All m^2 n^2 elements X_a (x) Y_b, A-index major, as one (m^2 n^2, mn, mn) array.

    The reference `to_bloch` and `from_bloch` are checked against; element 0
    is I/sqrt(mn) and has no coordinate.
    """
    xa, yb = _su_generators(m), _su_generators(n)
    return np.stack([np.kron(x, y) for x in xa for y in yb])


def cutting_plane_search(rho, delta: float, net) -> tuple[str, int, SearchStats]:
    """`wsep_solve`'s cuts from `initial_region`, `wopt_max` and `cut`, without
    its primal stop: the stop (witness, dikin_radius or region_empty), the
    number of oracle calls and the counters.  The region's center must stay
    off the origin."""
    stats = SearchStats()
    region = initial_region(rho)
    calls = 0
    while True:
        calls += 1
        a_hat = region.center / np.linalg.norm(region.center)
        oracle = wopt_max(from_bloch(a_hat, rho.m, rho.n), rho.m, rho.n, net)
        stats.oracle_evaluated += oracle.evaluated
        stats.oracle_bounded += oracle.bounded
        if float(region.rho_bloch @ a_hat) - oracle.value > 0.4 * delta:
            return "witness", calls, stats
        try:
            region = cut(region, a_hat, oracle.maximizer, stats)
        except RegionEmptyError:
            return "region_empty", calls, stats
        if region.radius_proxy < delta / 4.0:
            return "dikin_radius", calls, stats


def verify_extension(result: ExtensionResult, prob: ExtensionProblem) -> dict:
    """Residuals of the extension properties for a found extension."""
    assert result.found and result.operator is not None
    maps = _ExtensionMaps(prob.rho.m, prob.rho.n, prob.k)
    x = result.operator
    reduced = maps.reduce_one(x)
    out = {
        "trace_back": float(np.linalg.norm(reduced - prob.rho.mat)),
        "psd": max(0.0, -float(np.linalg.eigvalsh(x)[0])),
        "unit_trace": abs(float(np.trace(x).real) - 1.0),
    }
    if prob.ppt:
        # the cones of T_B X and of the partial transposes of l = 1..k-1 copies
        worst = max(-float(np.linalg.eigvalsh(cone.image(x))[0]) for cone in maps.cones(True)[1:])
        out["ppt"] = max(0.0, worst)
    return out


def partial_trace(mat, m: int, n: int, which: str) -> np.ndarray:
    """Trace out subsystem 'A' (result n x n) or 'B' (result m x m)."""
    t = np.asarray(mat, dtype=complex).reshape(m, n, m, n)
    if which == "A":
        return np.einsum("iaib->ab", t)
    if which == "B":
        return np.einsum("akbk->ab", t)
    raise ValueError(f"which must be 'A' or 'B', got {which!r}")


@dataclass(frozen=True)
class ExactComplex(QRat):
    """A QRat with `Fraction` parts and the arithmetic the reference needs."""

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def scale(self, c: Fraction) -> "ExactComplex":
        return ExactComplex(self.re * c, self.im * c)


QZERO = ExactComplex(Fraction(0), Fraction(0))


def qrat(re, im=0) -> ExactComplex:
    return ExactComplex(Fraction(re), Fraction(im))


def exact_complex(z) -> ExactComplex:
    """Any QRat (int, float or Fraction parts) as an ExactComplex."""
    return qrat(z.re, z.im)


def vec_norm_sq(v) -> Fraction:
    return sum((Fraction(z.re) ** 2 + Fraction(z.im) ** 2 for z in v), Fraction(0))


def exact_rows(rho) -> ExactMatrix:
    """Rows of QRat as the `ExactMatrix` an instance holds."""
    return exact_matrix(
        [[(z.re.as_integer_ratio(), z.im.as_integer_ratio()) for z in row] for row in rho]
    )


def rational_rows(exact: ExactMatrix):
    """An `ExactMatrix` as rows of ExactComplex, one `Fraction` per part."""
    return tuple(
        tuple(ExactComplex(Fraction(re, exact.den), Fraction(im, exact.den)) for re, im in row)
        for row in exact.rows
    )


def rational_matrix_to_json(mat) -> list:
    """Rows of QRat in the per-scalar encoding, each part in lowest terms."""

    def part(x) -> dict:
        x = Fraction(x)
        return {"num": str(x.numerator), "den": str(x.denominator)}

    return [[{"re": part(z.re), "im": part(z.im)} for z in row] for row in mat]


def outer(v):
    return tuple(tuple(a * b.conj() for b in v) for a in v)


def kron(a, b):
    ra, rb = len(a), len(b)
    out = []
    for i in range(ra):
        for k in range(rb):
            row = []
            for j in range(ra):
                for l in range(rb):
                    row.append(a[i][j] * b[k][l])
            out.append(tuple(row))
    return tuple(out)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c: Fraction):
    return tuple(tuple(x.scale(c) for x in row) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def frobenius_sq(a) -> Fraction:
    """tr(A A†) = sum of squared moduli; equals tr(A^2) for Hermitian A."""
    total = Fraction(0)
    for row in a:
        for x in row:
            total += x.abs2()
    return total


def certificate_state(cert):
    """sigma~ = sum_i p_i alpha_i alpha_i† (x) beta_i beta_i†, one Fraction per operation."""
    d = cert.m * cert.n
    acc = tuple(tuple(QZERO for _ in range(d)) for _ in range(d))
    for p, alpha, beta in cert.terms:
        if p == 0:
            continue
        alpha, beta = tuple(map(exact_complex, alpha)), tuple(map(exact_complex, beta))
        acc = mat_add(acc, mat_scale(kron(outer(alpha), outer(beta)), p))
    return acc


def dyadic_certificate(m: int, n: int, p: int, terms) -> QsepCertificate:
    """The certificate of rational (weight, alpha, beta) terms that are p-bit dyadics."""

    def scaled(x: Fraction) -> int:
        q = x * 2**p
        assert q.denominator == 1, f"{x} is not a {p}-bit dyadic"
        return q.numerator

    def vector(v):
        return tuple((scaled(z.re), scaled(z.im)) for z in v)

    return QsepCertificate(m, n, p, tuple((scaled(w), vector(a), vector(b)) for w, a, b in terms))


def reference_verify(inst, cert) -> VerificationResult:
    """`qsep.verify_certificate` in plain `Fraction` arithmetic over the full matrix."""
    if (inst.m, inst.n) != (cert.m, cert.n):
        raise CertificateFormatError("dimension mismatch")
    p = bits_required(inst.delta_p)

    def check_p_bit(x):
        scaled = x * 2**p
        if scaled.denominator != 1 or abs(scaled.numerator) > 2**p:
            raise BitWidthError(f"{x} is not a {p}-bit dyadic rational in [-1, 1]")

    total_weight = Fraction(0)
    for w, alpha, beta in cert.terms:
        check_p_bit(w)
        for x in (*alpha, *beta):
            check_p_bit(x.re)
            check_p_bit(x.im)
        total_weight += w
    norm_residual = Fraction(0)
    for w, alpha, beta in cert.terms:
        if w != 0:
            gap = 1 - vec_norm_sq(alpha) * vec_norm_sq(beta) * total_weight
            norm_residual = max(norm_residual, abs(gap))
    dist_sq = frobenius_sq(mat_sub(rational_rows(inst.rho), certificate_state(cert)))
    accepted = norm_residual < inst.eps_prime and dist_sq < inst.delta_prime**2
    return VerificationResult(accepted, norm_residual, dist_sq)


def rational_unit_vector(m: int, rng: np.random.Generator, q: int = 7) -> tuple[ExactComplex, ...]:
    """Exact rational unit vector in C^m via stereographic projection.

    A rational point t in R^(2m-1) maps to ((1-|t|^2), 2t)/(1+|t|^2),
    which is exactly unit; the coordinates then pair up into complex parts.
    """
    d = 2 * m
    t = [Fraction(int(rng.integers(-q, q + 1)), int(rng.integers(1, q + 1))) for _ in range(d - 1)]
    norm_sq = sum(x * x for x in t)
    denom = 1 + norm_sq
    coords = [(1 - norm_sq) / denom] + [2 * x / denom for x in t]
    assert sum(c * c for c in coords) == 1
    return tuple(ExactComplex(coords[2 * i], coords[2 * i + 1]) for i in range(m))


def rational_weights(k: int, rng: np.random.Generator) -> list[Fraction]:
    raw = [int(rng.integers(1, 50)) for _ in range(k)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def rational_separable_decomposition(m: int, n: int, terms: int, seed: int):
    """(weights, alphas, betas) with exact rationals, sum of weights exactly 1."""
    rng = np.random.default_rng(seed)
    weights = rational_weights(terms, rng)
    alphas = [rational_unit_vector(m, rng) for _ in range(terms)]
    betas = [rational_unit_vector(n, rng) for _ in range(terms)]
    return list(zip(weights, alphas, betas))


def rational_state_of(decomp, m: int, n: int):
    """Exact rational density matrix of a normalized product decomposition."""
    d = m * n
    acc = tuple(tuple(QZERO for _ in range(d)) for _ in range(d))
    for w, alpha, beta in decomp:
        acc = mat_add(acc, mat_scale(kron(outer(alpha), outer(beta)), w))
    return acc


def random_hermitian_unit(d: int, seed: int) -> np.ndarray:
    """Random Hermitian operator with unit Hilbert-Schmidt norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return h / np.linalg.norm(h)


def random_local_unitaries(m: int, n: int, seed: int):
    """Haar-random unitaries on C^m and C^n."""
    rng = np.random.default_rng(seed)

    def haar(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return haar(m), haar(n)


def graph_to_json(graph) -> dict:
    edges = [
        [i, j]
        for i in range(graph.n)
        for j in range(i + 1, graph.n)
        if graph.adjacency[i, j]
    ]
    return {"n": graph.n, "edges": edges}
