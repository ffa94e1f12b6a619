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
call from A.  Both forms the scan uses are read off these blocks.  The
centered blocks G_g - tr(G_g)/n I make the (n^2 + 1, m^2) matrix C(A),
whose rows give t = tr(B_x)/n, the diagonal deviations B_jj - t, and
sqrt(2) Re and sqrt(2) Im of the upper triangle, so that ||rows[1:]|| =
||B_x - tI||_F: one real GEMM of a tile's features against it gives the
n^2 + 1 parameters of every B_x in the tile, one contiguous row each.
And every stack that reaches an eigensolver is the same features times
the blocks.

The net is scanned in tiles of SCAN_TILE // (n^2 + 1) points, so a
tile's rows hold at most SCAN_TILE floats and no temporary grows with the
net: at 16,384 floats, 128 KiB, they stay below glibc's default mmap
threshold and come from the heap, not from fresh pages on every call.

The rows give the Frobenius bound u(x) = t + sqrt((n-1)/n) ||rows[1:]||
>= lambda_max (|t| in abs mode), with equality for n <= 2, where it is
the scan's value.  For n >= 3 the first incumbent is the exact value at
the first tile's point of largest u, and from then on the running best.
A point whose u is at most the level inc + PRUNE_TAU is skipped outright.
The deviations are formed inside the GEMM from the centered blocks, so
nothing cancels against n t^2: each row is a sum of m^2 products whose
magnitudes add up to at most 2 (sum_g ||G_g||_F^2 <= ||A||_HS^2 = 1 and
||f(x)|| <= sqrt(2)), so it is off by a few m^2 ulps, and the norm, being
1-Lipschitz in the rows, passes that on without amplifying it: u is
exact to far below PRUNE_TAU.  The points the bound keeps are gathered
until they fill a tile and at least CERTIFY_BATCH points, or the net
ends: a batch that wide amortizes the ~n^3/6 vectorized steps of the
certificate.  A gathered point is skipped without an eigensolve only
when an unpivoted Cholesky factorization of M = level I - B_x (in abs
mode also of level I + B_x), run on its rows, completes with positive
pivots.  Cholesky's backward error is at most c n^2 u ||M|| with
||M|| <= 2, again far below PRUNE_TAU, so a completed factorization
proves that the point's value is below the incumbent plus PRUNE_TAU, the
incumbent being an actual net value.  Only the points left over reach
`eigvalsh`, and one replaces the incumbent only with a larger value: the
maximum returned is the exhaustive scan's within PRUNE_TAU, and among
near-ties the first index examined wins.  A witness invariant under U (x) U
or U (x) U* ties the incumbent at every net point, which a certificate at
the incumbent itself cannot rule out.  For n <= 2 the maximum is the
exhaustive scan's, ties going to the first net index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Array, DimensionMismatchError, _local_basis, proj
from .nets import DeltaNet

SCAN_TILE = 16_384  # floats of a tile's rows
CERTIFY_BATCH = 1024  # points per Cholesky batch at least, to amortize its ~n^3/6 steps
HS_NORM_TOL = 1e-8
HERMITIAN_TOL = 1e-10
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
    """C(A), the real (n^2 + 1, m^2) matrix with C(A) @ f(x) = the rows of B_x:
    t = tr(B_x)/n, the diagonal deviations B_jj - t, then sqrt(2) Re and
    sqrt(2) Im of the upper triangle, so that ||rows[1:]|| = ||B_x - tI||_F.
    The deviations are read off the centered blocks G_g - tr(G_g)/n I."""
    d, i, j = _pairs(blocks.shape[-1])
    diag = blocks[:, d, d].real
    t = diag.mean(axis=1, keepdims=True)
    upper = math.sqrt(2.0) * blocks[:, i, j]
    return np.ascontiguousarray(np.concatenate([t, diag - t, upper.real, upper.imag], axis=1).T)


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
    v = (alpha[:, None] * beta).ravel()  # kron(alpha, beta), without np.kron's overhead
    return float((np.conj(v) @ np.asarray(a, dtype=complex) @ v).real)


def _scan_values(bx: Array, mode: str) -> Array:
    """lambda_max of each matrix in a Hermitian (K, n, n) stack; in abs mode
    max(lambda_max, -lambda_min), read from the same spectrum."""
    vals = np.linalg.eigvalsh(bx, UPLO="U")
    return np.maximum(vals[:, -1], -vals[:, 0]) if mode == "abs" else vals[:, -1]


def _frobenius_bound(rows: Array, n: int, mode: str) -> Array:
    """u = t + sqrt((n-1)/n) ||B_x - tI||_F >= lambda_max (|t| + ... in abs mode)
    from the (n^2 + 1, K) rows of `_conditioned_map`.  For n <= 2 the bound is
    the spectrum's end itself: lambda_max (max(lambda_max, -lambda_min) in abs
    mode)."""
    spread = np.einsum("jk,jk->k", rows[1:], rows[1:])
    np.sqrt(spread, out=spread)
    spread *= math.sqrt((n - 1) / n)
    spread += np.abs(rows[0]) if mode == "abs" else rows[0]
    return spread


def _certified_below(rows: Array, n: int, level: float, sign: float = 1.0) -> Array:
    """True where an unpivoted Cholesky M = R^dagger R of M = level*I - sign*B_x
    completes with all pivots > 0, which proves lambda_max(sign*B_x) < level up
    to the backward error.

    Works row by row of R on the (n^2 + 1, K) rows of B_x, vectorized over K:
    each diagonal entry of B_x is t + (B_jj - t), each off-diagonal one the
    scaled pair over sqrt(2).
    """
    q = n * (n - 1) // 2
    ok = np.ones(rows.shape[1], dtype=bool)
    shifted = level - sign * rows[0]
    off = -sign * math.sqrt(0.5)
    r: dict[tuple[int, int], Array] = {}  # entries of R above the diagonal
    p = 1 + n  # the rows of B_x[j, i], i > j, come in this loop's order
    for j in range(n):
        d = shifted - sign * rows[1 + j]
        for k in range(j):
            d -= r[k, j].real ** 2 + r[k, j].imag ** 2
        ok &= d > 0.0
        inv_pivot = 1.0 / np.sqrt(np.where(ok, d, 1.0))
        for i in range(j + 1, n):
            c = off * rows[p] + (off * 1j) * rows[q + p]
            p += 1
            for k in range(j):
                c -= r[k, j].conj() * r[k, i]
            r[j, i] = c * inv_pivot
    return ok


def _survivors(rows: Array, n: int, level: float, mode: str) -> Array:
    """Column indices of the (n^2 + 1, K) rows that no Cholesky certificate rules out."""
    below = _certified_below(rows, n, level)
    if mode == "abs":
        below &= _certified_below(rows, n, level, -1.0)
    return np.flatnonzero(~below)


def wopt_max(a: Array, m: int, n: int, net: DeltaNet, *, mode: str = "signed") -> WoptResult:
    """Scan the net, conditioning out the other side; deterministic tie-breaks.

    A must be Hermitian with ||A||_HS = 1, so the additive guarantee is
    2*net.delta.  The net may live on C^m or on C^n.  Returns the maximum of
    the exhaustive scan, within PRUNE_TAU when the conditioned side has
    dimension >= 3, where among near-ties the first index examined wins (the
    module docstring says why); `evaluated` counts the net points that reached an
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
    tile = max(SCAN_TILE // cmap.shape[0], 1)
    batch = max(tile, CERTIFY_BATCH)
    best_val, best_idx = -np.inf, -1
    evaluated = bounded = 0
    held: list[tuple[Array, Array]] = []  # net indices and rows the bound kept
    count = 0
    for start in range(0, net.size, tile):
        rows = cmap @ feats[:, start : start + tile]
        bound = _frobenius_bound(rows, n, mode)
        if n <= 2:  # the bound is exact
            evaluated += bound.size
            bounded += bound.size
            i = int(np.argmax(bound))
            if bound[i] > best_val:
                best_val, best_idx = float(bound[i]), start + i
            continue
        if start == 0:  # the first incumbent: the exact value at the largest bound
            best_idx = int(np.argmax(bound))
            top = _conditioned(feats[:, best_idx : best_idx + 1], blocks)
            best_val = float(_scan_values(top, mode)[0])
            evaluated = bounded = 1  # its bound clears the level
            bound[best_idx] = -np.inf  # so that it is not evaluated again
        keep = bound > best_val + PRUNE_TAU
        bounded += int(np.count_nonzero(keep))
        idx = np.flatnonzero(keep)
        if idx.size:
            held.append((start + idx, rows if idx.size == rows.shape[1] else rows[:, idx]))
            count += idx.size
        # certify what the bound kept once it fills a batch, or at the end
        if count == 0 or (count < batch and start + tile < net.size):
            continue
        if len(held) == 1:
            idx, rows = held[0]
        else:
            idx = np.concatenate([h[0] for h in held])
            rows = np.concatenate([h[1] for h in held], axis=1)
        held, count = [], 0
        live = _survivors(rows, n, best_val + PRUNE_TAU, mode)
        if live.size == 0:
            continue
        idx = idx[live]
        vals = _scan_values(_conditioned(feats[:, idx], blocks), mode)
        evaluated += vals.size
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_idx = float(vals[i]), int(idx[i])
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
