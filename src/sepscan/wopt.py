"""Weak optimization of tr(A sigma) over the separable set.

Only the A-side of the product state is discretized by a net; for each
net point x the B-side is solved exactly through the top eigenvector of
the conditioned operator B_x = <x| A |x>.  The best value over the net
is within 2 * net.delta * ||A||_2 of the true maximum over all product
states (and hence, by linearity, over all separable states).

The scan maximizes the signed form by default, which is what the witness
search needs; "abs" mode maximizes |<x j|A|x j>| instead, and its
guarantee follows by applying the signed bound to both A and -A.

The scan is one kernel per chunk of net points.  B_x is linear in the
outer product conj(x) x^T, so a chunk's stack of B_x is one complex GEMM
against A regrouped as an (m^2, n^2) matrix.  Both modes read one
spectrum per point: the closed form for n <= 2, one `eigvalsh` for
n >= 3.  For n >= 3 the scan first takes an incumbent, the best exact
value among a few first-chunk points (those with the largest
trace/Frobenius bound, and an evenly strided sample), and from then on
the running best.  A point is skipped without an eigensolve only when
an unpivoted Cholesky factorization of M = (inc - PRUNE_TAU) I - B_x (in
abs mode also of (inc - PRUNE_TAU) I + B_x) completes with positive
pivots.  Cholesky's backward error is at most c n^2 u ||M|| with
||M|| <= 2 (||B_x|| <= ||A||_HS = 1), far below PRUNE_TAU, so a
completed factorization proves that the point's value is below the
incumbent, itself an actual net value: the maximum returned is the
exhaustive scan's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, DimensionMismatchError, hermitian_basis, proj, to_bloch
from .nets import DeltaNet

SCAN_CHUNK = 262_144
HS_NORM_TOL = 1e-8
PROBE_POINTS = 64
PROBE_STRIDE = 256
PRUNE_TAU = 1e-12


@dataclass(frozen=True)
class ProductState:
    alpha: Array  # unit vector in C^m
    beta: Array  # unit vector in C^n

    def matrix(self) -> Array:
        return np.kron(proj(self.alpha), proj(self.beta))

    def bloch(self) -> Array:
        m, n = self.alpha.shape[0], self.beta.shape[0]
        return to_bloch(self.matrix(), hermitian_basis(m, n))


@dataclass(frozen=True)
class WoptResult:
    maximizer: ProductState
    value: float
    guarantee: float  # additive: value >= product max - guarantee
    evaluated: int = 0  # net points whose spectrum the scan computed (0 for seesaw)


def _regrouped(a: Array, m: int, n: int) -> Array:
    """A as the (m^2, n^2) matrix R[(a, b), (j, l)] = A[a j, b l]."""
    a4 = np.asarray(a, dtype=complex).reshape(m, n, m, n)
    return a4.transpose(0, 2, 1, 3).reshape(m * m, n * n)


def _conditioned_batch(a_reg: Array, x: Array, n: int) -> Array:
    """B_x for each row of a (K, m) stack: vec(conj(x) x^T) @ R, as (K, n, n)."""
    outer = (np.conj(x)[:, :, None] * x[:, None, :]).reshape(x.shape[0], -1)
    return (outer @ a_reg).reshape(-1, n, n)


def conditioned_operator(a: Array, m: int, n: int, x: Array) -> Array:
    """The n x n Hermitian block (B_x)_{jk} = <x e_j| A |x e_k>."""
    x = np.asarray(x, dtype=complex)
    return _conditioned_batch(_regrouped(a, m, n), x[None, :], n)[0]


def quadratic_form(a: Array, m: int, n: int, alpha: Array, beta: Array) -> float:
    v = np.kron(alpha, beta)
    return float((np.conj(v) @ np.asarray(a, dtype=complex) @ v).real)


def _scan_values(bx: Array, mode: str) -> Array:
    """lambda_max of each matrix in a Hermitian (K, n, n) stack; in abs mode
    max(lambda_max, -lambda_min), read from the same spectrum."""
    n = bx.shape[-1]
    if n == 1:
        lo = hi = bx[:, 0, 0].real
    elif n == 2:
        half_tr = 0.5 * (bx[:, 0, 0].real + bx[:, 1, 1].real)
        rad = np.sqrt(
            0.25 * (bx[:, 0, 0].real - bx[:, 1, 1].real) ** 2 + np.abs(bx[:, 0, 1]) ** 2
        )
        lo, hi = half_tr - rad, half_tr + rad
    else:
        vals = np.linalg.eigvalsh(bx)
        lo, hi = vals[:, 0], vals[:, -1]
    return np.maximum(hi, -lo) if mode == "abs" else hi


def _probe(bx: Array, mode: str) -> Array:
    """Points whose exact values set the first incumbent: the PROBE_POINTS with
    the largest bound t + sqrt((n-1)/n) ||B_x - tI||_F (|t| + ... in abs mode),
    t = tr(B_x)/n, and every PROBE_STRIDE-th point, which spread over the net."""
    n = bx.shape[-1]
    t = np.einsum("kjj->k", bx.real) / n
    fro2 = np.einsum("kjl,kjl->k", bx.real, bx.real) + np.einsum("kjl,kjl->k", bx.imag, bx.imag)
    bound = (np.abs(t) if mode == "abs" else t) + np.sqrt(
        (n - 1) / n * np.maximum(fro2 - n * t * t, 0.0)
    )
    if bound.size <= PROBE_POINTS:
        return np.arange(bound.size)
    top = np.argpartition(bound, -PROBE_POINTS)[-PROBE_POINTS:]
    return np.union1d(top, np.arange(0, bound.size, PROBE_STRIDE))


def _certified_below(bx: Array, level: float, sign: float = 1.0) -> Array:
    """True where an unpivoted Cholesky of level*I - sign*B_x completes with all
    pivots > 0, which proves lambda_max(sign*B_x) < level up to the backward error.

    Works column by column on the lower triangle, vectorized over the stack.
    """
    n = bx.shape[-1]
    ok = np.ones(bx.shape[0], dtype=bool)
    low: dict[tuple[int, int], Array] = {}  # entries of L below the diagonal
    for j in range(n):
        d = level - sign * bx[:, j, j].real
        for k in range(j):
            d -= low[j, k].real ** 2 + low[j, k].imag ** 2
        ok &= d > 0.0
        inv_pivot = 1.0 / np.sqrt(np.where(ok, d, 1.0))
        for i in range(j + 1, n):
            c = -sign * bx[:, i, j]
            for k in range(j):
                c -= low[i, k] * np.conj(low[j, k])
            low[i, j] = c * inv_pivot
    return ok


def wopt_max(a: Array, m: int, n: int, net: DeltaNet, *, mode: str = "signed") -> WoptResult:
    """Scan the net, conditioning out the B side; deterministic tie-breaks.

    Requires ||A||_2 = 1 so the additive guarantee is exactly 2*net.delta.
    Returns the maximum of the exhaustive scan; `evaluated` counts the net
    points that reached an eigensolve (all of them when n <= 2).
    """
    a = np.asarray(a, dtype=complex)
    if net.m != m:
        raise DimensionMismatchError(f"net lives on C^{net.m}, operator A-side is C^{m}")
    if a.shape != (m * n, m * n):
        raise DimensionMismatchError(f"operator shape {a.shape} does not match {m}x{n}")
    hs = float(np.linalg.norm(a))
    if not abs(hs - 1.0) <= HS_NORM_TOL:  # also rejects a non-finite norm
        raise ValueError(f"operator must have unit Hilbert-Schmidt norm, got {hs}")
    if mode not in ("signed", "abs"):
        raise ValueError(f"mode must be 'signed' or 'abs', got {mode!r}")

    a_reg = _regrouped(a, m, n)
    best_val = incumbent = -np.inf
    best_idx = -1
    evaluated = 0
    pts = net.points
    for start in range(0, pts.shape[0], SCAN_CHUNK):
        bx = _conditioned_batch(a_reg, pts[start : start + SCAN_CHUNK], n)
        idx = None
        if n >= 3:
            if start == 0:
                probe = _probe(bx, mode)
                incumbent = float(_scan_values(bx[probe], mode).max())
            level = max(incumbent, best_val) - PRUNE_TAU
            keep = ~_certified_below(bx, level)
            if mode == "abs":
                keep |= ~_certified_below(bx, level, -1.0)
            if start == 0:
                keep[probe] = True
            idx = np.flatnonzero(keep)
            if idx.size == 0:
                continue
            bx = bx[idx]
        vals = _scan_values(bx, mode)
        evaluated += vals.shape[0]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_idx = start + (i if idx is None else int(idx[i]))
    x_star = pts[best_idx]
    bx = conditioned_operator(a, m, n, x_star)
    vals, vecs = np.linalg.eigh(bx)
    if mode == "abs" and -vals[0] > vals[-1]:
        beta = vecs[:, 0]
    else:
        beta = vecs[:, -1]
    value = quadratic_form(a, m, n, x_star, beta)
    if mode == "abs":
        value = abs(value)
    return WoptResult(ProductState(x_star, beta), value, 2.0 * net.delta, evaluated)


def seesaw_max(
    a: Array,
    m: int,
    n: int,
    init: list[tuple[Array, Array]],
    *,
    iters: int = 120,
) -> WoptResult:
    """Alternating top-eigenvector ascent over product states from each start in `init`.

    Local refinement: each step conditions one side out and takes the top
    eigenvector of the other, so the form is nondecreasing.  Unlike the
    net scan it carries no additive guarantee (guarantee field is inf).
    """
    a = np.asarray(a, dtype=complex)
    a4 = a.reshape(m, n, m, n)
    best: tuple[float, Array, Array] | None = None
    for alpha, beta in init:
        alpha = np.asarray(alpha, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        prev = -np.inf
        for _ in range(iters):
            bx = np.einsum("a,ajbl,b->jl", np.conj(alpha), a4, alpha)
            beta = np.linalg.eigh(bx)[1][:, -1]
            cy = np.einsum("j,ajbl,l->ab", np.conj(beta), a4, beta)
            alpha = np.linalg.eigh(cy)[1][:, -1]
            cur = quadratic_form(a, m, n, alpha, beta)
            if cur - prev < 1e-13:
                break
            prev = cur
        val = quadratic_form(a, m, n, alpha, beta)
        if best is None or val > best[0]:
            best = (val, alpha, beta)
    assert best is not None
    return WoptResult(ProductState(best[1], best[2]), best[0], np.inf)
