"""Weak optimization of tr(A sigma) over the separable set.

Only one side of the product state is discretized by a net; for each
net point x the other side is solved exactly through the top eigenvector
of the conditioned operator B_x = <x| A |x>.  The best value over the
net is within 2 * net.delta * ||A||_2 of the true maximum over all
product states (and hence, by linearity, over all separable states).
The net may live on either side: a net on C^n scans SWAP A SWAP, and the
maximizer comes back in the original order.

The scan maximizes the signed form by default, which is what the witness
search needs; "abs" mode maximizes |<x j|A|x j>| instead, and its
guarantee follows by applying the signed bound to both A and -A.

The scan works in real coordinates.  B_x is linear in xx^dagger, whose
m^2 real coordinates f(x) every net keeps (`DeltaNet.features`), so
B_x = sum_g f_g(x) G_g for m^2 Hermitian n x n blocks G_g, built once per
call from A.  Both forms the scan uses are read off these blocks.  Their
diagonal and the Re and Im of their upper triangle make the (n^2, m^2)
matrix C(A): one real GEMM of a chunk's features against it gives the n^2
real parameters of every B_x, one contiguous row each.  And every stack
that reaches an eigensolver is the same features times the blocks.  The
rows give the Frobenius bound u(x) = t + sqrt((n-1)/n) ||B_x - tI||_F >=
lambda_max, t = tr(B_x)/n (|t| in abs mode), with equality for n <= 2,
where it is the scan's value.  For n >= 3 the incumbent is the best exact
value among a few first-chunk points (the PROBE_POINTS largest u, and
every PROBE_STRIDE-th point), and from then on the running best.  A point
whose u is at most the level inc - PRUNE_TAU is skipped outright:
||B_x - tI||_F is summed from the centered entries, so u carries a
rounding error of a few ulps of ||B_x|| <= ||A||_HS = 1, far below
PRUNE_TAU.  A point that passes is skipped without an eigensolve only
when an unpivoted Cholesky factorization of M = level I - B_x (in abs
mode also of level I + B_x), run on its rows, completes with positive
pivots.  Cholesky's backward error is at most c n^2 u ||M|| with
||M|| <= 2, again far below PRUNE_TAU, so a completed factorization
proves that the point's value is below the incumbent, itself an actual
net value.  Only the points left over reach `eigvalsh` (the probe first
takes its own level from the probe point of largest u, which spares most
of the probe its eigensolve).  The maximum returned is the exhaustive
scan's, and ties go to the first net index.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Array, DimensionMismatchError, _local_basis, proj
from .nets import DeltaNet

SCAN_CHUNK = 262_144
HS_NORM_TOL = 1e-8
HERMITIAN_TOL = 1e-10
PROBE_POINTS = 64
PROBE_STRIDE = 256
PRUNE_TAU = 1e-12
SEESAW_ITERS = 120


@dataclass(frozen=True)
class ProductState:
    alpha: Array  # unit vector in C^m
    beta: Array  # unit vector in C^n

    def bloch(self) -> Array:
        """Bloch coordinates of P_alpha (x) P_beta, built without the product:
        its realignment is v(P_alpha) v(P_beta)^T (v stacks columns), so the
        coordinates are the outer product of the two local ones."""
        a = _local_basis(self.alpha.shape[0]) @ proj(self.alpha).ravel(order="F")
        b = _local_basis(self.beta.shape[0]) @ proj(self.beta).ravel(order="F")
        return np.outer(a.real, b.real).ravel()[1:]


@dataclass(frozen=True)
class WoptResult:
    maximizer: ProductState
    value: float
    guarantee: float  # additive: value >= product max - guarantee
    evaluated: int = 0  # net points whose spectrum the scan computed (0 for seesaw)
    bounded: int = 0  # net points whose Frobenius bound cleared the level (all for n <= 2)


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[Array, Array, Array]:
    """0..k-1, then the row and column indices of the upper triangle of a k x k
    matrix in `np.triu_indices` order."""
    i, j = np.triu_indices(k, 1)
    return np.arange(k), i, j


def _conditioned_blocks(a: Array, m: int, n: int) -> Array:
    """The (m^2, n, n) blocks G with B_x = sum_g f_g(x) G_g, f(x) the
    `projector_features` of x: A_aa, then (A_ab + A_ba)/2 and i (A_ab - A_ba)/2
    for a < b, A_ab being the n x n block A[a., b.]."""
    a4 = a.reshape(m, n, m, n)
    d, i, j = _pairs(m)
    upper, lower = a4[i, :, j], a4[j, :, i]
    return np.concatenate([a4[d, :, d], (upper + lower) / 2, 1j * (upper - lower) / 2])


def _conditioned_map(blocks: Array) -> Array:
    """C(A), the real (n^2, m^2) matrix with C(A) @ f(x) = the rows of B_x: the
    blocks' diagonal, then Re and Im of their upper triangle."""
    d, i, j = _pairs(blocks.shape[-1])
    upper = blocks[:, i, j]
    return np.ascontiguousarray(
        np.concatenate([blocks[:, d, d].real, upper.real, upper.imag], axis=1).T
    )


def _conditioned(feats: Array, blocks: Array) -> Array:
    """The (K, n, n) stack of B_x = sum_g f_g G_g for the (m^2, K) features f,
    one real GEMM against the blocks' (Re, Im) pairs.  Only its upper triangle
    is read (UPLO="U"): that is the operator the rows describe, also when A is
    Hermitian only to within HERMITIAN_TOL."""
    g, n = blocks.shape[0], blocks.shape[-1]
    flat = blocks.reshape(g, n * n).view(float)
    return (feats.T @ flat).view(complex).reshape(-1, n, n)


def _swapped(a: Array, m: int, n: int) -> Array:
    """SWAP A SWAP, the operator on C^n (x) C^m."""
    return a.reshape(m, n, m, n).transpose(1, 0, 3, 2).reshape(m * n, m * n)


def quadratic_form(a: Array, alpha: Array, beta: Array) -> float:
    v = np.kron(alpha, beta)
    return float((np.conj(v) @ np.asarray(a, dtype=complex) @ v).real)


def _scan_values(bx: Array, mode: str) -> Array:
    """lambda_max of each matrix in a Hermitian (K, n, n) stack; in abs mode
    max(lambda_max, -lambda_min), read from the same spectrum."""
    vals = np.linalg.eigvalsh(bx, UPLO="U")
    return np.maximum(vals[:, -1], -vals[:, 0]) if mode == "abs" else vals[:, -1]


def _frobenius_bound(rows: Array, n: int, mode: str) -> Array:
    """u = t + sqrt((n-1)/n) ||B_x - tI||_F >= lambda_max (|t| + ... in abs mode),
    t = tr(B_x)/n, from the (n^2, K) rows.  The diagonal is centered before it
    is squared, so no cancellation against n t^2 enters the root.  For n <= 2
    the bound is the spectrum's end itself: lambda_max (max(lambda_max,
    -lambda_min) in abs mode)."""
    t = rows[:n].sum(axis=0)
    t /= n
    dev = rows[:n] - t
    spread = np.einsum("jk,jk->k", dev, dev)
    del dev
    off = np.einsum("jk,jk->k", rows[n:], rows[n:])
    off *= 2.0
    spread += off
    del off
    spread *= (n - 1) / n
    np.sqrt(spread, out=spread)
    spread += np.abs(t) if mode == "abs" else t
    return spread


def _probe(bound: Array) -> Array:
    """Points whose exact values set the first incumbent: the PROBE_POINTS with
    the largest bound and every PROBE_STRIDE-th point, which spread over the net."""
    if bound.size <= PROBE_POINTS:
        return np.arange(bound.size)
    top = np.argpartition(bound, -PROBE_POINTS)[-PROBE_POINTS:]
    return np.union1d(top, np.arange(0, bound.size, PROBE_STRIDE))


def _certified_below(rows: Array, n: int, level: float, sign: float = 1.0) -> Array:
    """True where an unpivoted Cholesky M = R^dagger R of M = level*I - sign*B_x
    completes with all pivots > 0, which proves lambda_max(sign*B_x) < level up
    to the backward error.

    Works row by row of R on the (n^2, K) rows of B_x, vectorized over K.
    """
    q = n * (n - 1) // 2
    ok = np.ones(rows.shape[1], dtype=bool)
    r: dict[tuple[int, int], Array] = {}  # entries of R above the diagonal
    p = 0  # the rows of B_x[j, i], i > j, come in this loop's order
    for j in range(n):
        d = level - sign * rows[j]
        for k in range(j):
            d -= r[k, j].real ** 2 + r[k, j].imag ** 2
        ok &= d > 0.0
        inv_pivot = 1.0 / np.sqrt(np.where(ok, d, 1.0))
        for i in range(j + 1, n):
            c = (-sign) * rows[n + p] + (-sign * 1j) * rows[n + q + p]
            p += 1
            for k in range(j):
                c -= r[k, j].conj() * r[k, i]
            r[j, i] = c * inv_pivot
    return ok


def _survivors(rows: Array, n: int, level: float, mode: str) -> Array:
    """Column indices of the (n^2, K) rows that no Cholesky certificate rules out."""
    below = _certified_below(rows, n, level)
    if mode == "abs":
        below &= _certified_below(rows, n, level, -1.0)
    return np.flatnonzero(~below)


def wopt_max(a: Array, m: int, n: int, net: DeltaNet, *, mode: str = "signed") -> WoptResult:
    """Scan the net, conditioning out the other side; deterministic tie-breaks.

    A must be Hermitian with ||A||_HS = 1, so the additive guarantee is
    2*net.delta.  The net may live on C^m or on C^n.  Returns the maximum of
    the exhaustive scan; `evaluated` counts the net points that reached an
    eigensolve and `bounded` those whose Frobenius bound cleared the level
    (both all of them when the conditioned side has dimension <= 2).
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (m * n, m * n):
        raise DimensionMismatchError(f"operator shape {a.shape} does not match {m}x{n}")
    if net.m not in (m, n):
        raise DimensionMismatchError(f"net lives on C^{net.m}, operator sides are C^{m} and C^{n}")
    hs = float(np.linalg.norm(a))
    if not abs(hs - 1.0) <= HS_NORM_TOL:  # also rejects a non-finite norm
        raise ValueError(f"operator must have unit Hilbert-Schmidt norm, got {hs}")
    skew = float(np.linalg.norm(a - a.conj().T))
    if skew > HERMITIAN_TOL:
        raise ValueError(f"operator must be Hermitian, ||A - A^dagger||_F = {skew}")
    if mode not in ("signed", "abs"):
        raise ValueError(f"mode must be 'signed' or 'abs', got {mode!r}")
    swap = net.m != m
    if swap:
        a, m, n = _swapped(a, m, n), n, m

    blocks = _conditioned_blocks(a, m, n)
    cmap = _conditioned_map(blocks)
    feats = net.features
    best_val, best_idx = -np.inf, -1
    evaluated = bounded = 0
    for start in range(0, net.size, SCAN_CHUNK):
        rows = cmap @ feats[:, start : start + SCAN_CHUNK]
        bound = _frobenius_bound(rows, n, mode)
        if n <= 2:  # the bound is exact
            vals, idx = bound, None
            bounded += vals.size
        else:
            if start == 0:
                # the probe's best value; the probe point of largest bound gives
                # the level that spares most of the probe its eigensolve
                probe = _probe(bound)
                first = probe[np.argmax(bound[probe])]
                level = _scan_values(_conditioned(feats[:, first : first + 1], blocks), mode)[0]
                idx = probe[_survivors(rows[:, probe], n, level - PRUNE_TAU, mode)]
                vals = _scan_values(_conditioned(feats[:, idx], blocks), mode)
                evaluated += vals.size
                i = int(np.argmax(vals))
                best_val, best_idx = float(vals[i]), int(idx[i])
            level = best_val - PRUNE_TAU
            keep = bound > level
            del bound
            bounded += int(np.count_nonzero(keep))
            if start == 0:
                keep[probe] = False  # already evaluated or ruled out
            idx = np.flatnonzero(keep)
            del keep
            if idx.size == 0:
                continue
            if idx.size < rows.shape[1]:
                rows = rows[:, idx]  # the kept columns only, from here on
            live = _survivors(rows, n, level, mode)
            if live.size == 0:
                continue
            idx = idx[live]
            vals = _scan_values(_conditioned(feats[:, start + idx], blocks), mode)
        evaluated += vals.size
        i = int(np.argmax(vals))
        j = start + (i if idx is None else int(idx[i]))
        if vals[i] > best_val or (vals[i] == best_val and j < best_idx):
            best_val, best_idx = float(vals[i]), j
    x_star = net.points[best_idx]
    top = _conditioned(feats[:, best_idx : best_idx + 1], blocks)[0]
    vals, vecs = np.linalg.eigh(top, UPLO="U")
    if mode == "abs" and -vals[0] > vals[-1]:
        other = vecs[:, 0]
    else:
        other = vecs[:, -1]
    value = quadratic_form(a, x_star, other)
    if mode == "abs":
        value = abs(value)
    maximizer = ProductState(other, x_star) if swap else ProductState(x_star, other)
    return WoptResult(maximizer, value, 2.0 * net.delta, evaluated, bounded)


def seesaw_max(a: Array, m: int, n: int, init: list[tuple[Array, Array]]) -> WoptResult:
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
        for _ in range(SEESAW_ITERS):
            bx = np.einsum("a,ajbl,b->jl", np.conj(alpha), a4, alpha)
            beta = np.linalg.eigh(bx)[1][:, -1]
            cy = np.einsum("j,ajbl,l->ab", np.conj(beta), a4, beta)
            alpha = np.linalg.eigh(cy)[1][:, -1]
            cur = quadratic_form(a, alpha, beta)
            if cur - prev < 1e-13:
                break
            prev = cur
        val = quadratic_form(a, alpha, beta)
        if best is None or val > best[0]:
            best = (val, alpha, beta)
    assert best is not None
    return WoptResult(ProductState(best[1], best[2]), best[0], np.inf)
