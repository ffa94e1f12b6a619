"""Executable reduction chain: clique -> simplex program -> robust
semidefinite feasibility -> separable-set optimization.

The three instance transformations, with the conventions that make the
numeric identities hold exactly:

* clique threshold c becomes the midpoint/quarter-width of the interval
  [1 - 1/(c-1), 1 - 1/c]; the simplex maximum H(A) = max y^T A y equals
  1 - 1/kappa for the clique number kappa, so yes/no instances land on
  opposite sides of the interval.

* the substitution y_i -> x_i^2 turns H(A) into a sum of squared
  quadratic forms over the unit sphere: with blocks carrying
  sqrt(A_ij / 2) at (i, j) and (j, i),
  F(B) = max_{||x||=1} sum_{i<j} (x^T B^{ij} x)^2 = H(A) exactly
  (a sqrt(A_ij) convention would double-count the off-diagonal pair).

* the block operator with first block row/column (0, B_1 ... B_{M-1})
  satisfies max over product states of <a (x) b|B|a (x) b> =
  sqrt(max_x sum_i (x^T B_i x)^2): for fixed unit b with w_i = b^T B_i b,
  the optimum over a of sum_i 2 Re(conj(a_0) a_i) w_i is ||w||_2, attained
  at a_0 = 1/sqrt(2), a_i = w_i/(sqrt(2)||w||).  The separable-set
  thresholds are therefore a rational bracket of
  [sqrt(zeta - eta), sqrt(zeta + eta)], which preserves yes/no answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .core import Array
from .wopt import seesaw_max

MAX_EXACT_CLIQUE = 12
MAX_CHAIN_VERTICES = 6  # the largest graph verify_chain takes
RSDF_STARTS = 32  # random starts of the Newton ascent, besides the basis vectors
RSDF_ITERS = 400


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: Array  # symmetric 0/1, zero diagonal

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            # a float vertex would raise IndexError, a bool would index as a mask
            integral = all(type(v) is int or isinstance(v, np.integer) for v in (i, j))
            if not integral or i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j}) for {n} vertices")
            a[i, j] = a[j, i] = 1
        return Graph(n, a)

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValueError("adjacency shape mismatch")
        if not np.array_equal(a, a.T) or np.any(np.diag(a) != 0):
            raise ValueError("adjacency must be symmetric with zero diagonal")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0/1")

    @staticmethod
    def complete(n: int) -> "Graph":
        a = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
        return Graph(n, a)


@dataclass(frozen=True)
class WmqsInstance:
    a: Array
    zeta: Fraction
    eta: Fraction

    def __post_init__(self):
        if np.any(self.a < 0) or self.eta <= 0:
            raise ValueError("matrix must be nonnegative and eta positive")


@dataclass(frozen=True)
class RsdfInstance:
    blocks: tuple[Array, ...]
    zeta: Fraction
    eta: Fraction

    def __post_init__(self):
        for b in self.blocks:
            if not np.array_equal(b, b.T):
                raise ValueError("blocks must be symmetric")


@dataclass(frozen=True)
class WvalInstance:
    b: Array  # real symmetric (m n) x (m n) with the block pattern
    m: int
    n: int
    gamma: Fraction
    epsilon: Fraction


def max_clique(g: Graph) -> int:
    """Clique number by exhaustive enumeration (single vertices count)."""
    if g.n > MAX_EXACT_CLIQUE:
        raise ValueError(f"exact enumeration capped at {MAX_EXACT_CLIQUE} vertices")
    if g.n == 0:
        return 0
    a = g.adjacency
    best = 1
    for size in range(g.n, 1, -1):
        if size <= best:
            break
        for combo in combinations(range(g.n), size):
            ok = all(a[i, j] for i, j in combinations(combo, 2))
            if ok:
                return size
    return best


def simplex_grid_max(a: Array, steps: int) -> float:
    """max y^T A y over the grid of denominator-`steps` points of the simplex.

    No code in `src` calls it but `motzkin_straus_value`: it is the grid side
    of the Motzkin-Straus theorem, max over the simplex of y^T A y =
    1 - 1/kappa, which acceptance 7 checks on 100 random graphs.  The grid
    points are the compositions of `steps` into n parts, built as one
    integer array a leading coordinate at a time.
    """
    n = a.shape[0]
    counts = np.zeros((1, 0), dtype=np.int64)  # the leading coordinates chosen so far
    for _ in range(n - 1):
        width = steps - counts.sum(axis=1) + 1  # choices for the next coordinate
        row = np.repeat(np.arange(len(counts)), width)
        take = np.arange(len(row)) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack([counts[row], take])
    y = np.column_stack([counts, steps - counts.sum(axis=1)]) / steps
    return float(np.max(np.einsum("si,ij,sj->s", y, a, y)))


@dataclass(frozen=True)
class CliqueQuadraticReport:
    kappa: int
    value: float  # 1 - 1/kappa
    grid_max: float
    grid_steps: int


def motzkin_straus_value(g: Graph) -> CliqueQuadraticReport:
    """Exact clique number against the simplex quadratic maximum.

    No code in `src` calls it: it states the Motzkin-Straus theorem that the
    first reduction rests on, max over the simplex of y^T A y = 1 - 1/kappa,
    which acceptance 7 checks on 100 random graphs.
    """
    kappa = max_clique(g)
    value = 1.0 - 1.0 / kappa if kappa else 0.0
    steps = 40 if g.n <= 4 else 20
    grid = simplex_grid_max(g.adjacency.astype(float), steps)
    return CliqueQuadraticReport(kappa, value, grid, steps)


def clique_interval(c: int) -> tuple[Fraction, Fraction]:
    if c < 2:
        raise ValueError("clique threshold must be >= 2")
    return Fraction(1) - Fraction(1, c - 1), Fraction(1) - Fraction(1, c)


def clique_to_wmqs(g: Graph, c: int) -> WmqsInstance:
    """Threshold interval [1-1/(c-1), 1-1/c]: midpoint and quarter width."""
    if not 2 <= c <= g.n:
        raise ValueError(f"clique threshold must lie in [2, {g.n}], got {c}")
    lo, hi = clique_interval(c)
    zeta = (lo + hi) / 2
    eta = (hi - lo) / 4
    return WmqsInstance(g.adjacency.astype(float), zeta, eta)


def wmqs_to_rsdf(inst: WmqsInstance) -> RsdfInstance:
    """One block per vertex pair, sqrt(A_ij / 2) off-diagonal."""
    n = inst.a.shape[0]
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = math.sqrt(inst.a[i, j] / 2.0)
            blocks.append(b)
    return RsdfInstance(tuple(blocks), inst.zeta, inst.eta)


@dataclass(frozen=True)
class AscentStats:
    iterations: int  # steps until the last start stopped, at most RSDF_ITERS
    capped: int  # starts still climbing after RSDF_ITERS steps


def rsdf_value(
    blocks, *, seed: int = 0, stats: list[AscentStats] | None = None
) -> tuple[float, Array]:
    """F = max over the unit sphere of sum_i (x^T B_i x)^2, by damped Newton ascent.

    All starts (RSDF_STARTS seeded Gaussians, then the basis vectors) climb
    together as rows of one array.  With w_i = x^T B_i x, F = sum_i w_i^2,
    M = sum_i w_i B_i and the Euclidean Hessian H = 4M + 8 sum_i (B_i x)(B_i x)^T,
    each row steps to x + d, normalized, where d solves the bordered system

        [[mu I - H + 4F I, x], [x^T, 0]] [d; lambda] = [4(Mx - Fx); 0],

    that is (mu - T) d = g on the tangent plane, with g the Riemannian
    gradient and T = P(H - 4F)P, P = I - x x^T, the Riemannian Hessian.  One
    batched `eigh` of T solves it and gives T's largest eigenvalue.  Each row
    keeps its own damping mu > 0 (Levenberg-Marquardt with Nielsen's
    update), raised to at least 1.1 times that eigenvalue, so mu - T is
    positive definite and d is an ascent direction also at a saddle.  A step
    that does not lower F is taken, and mu is scaled by a factor from 1/3
    to 2 that falls as the ratio of actual to predicted gain rises; a step
    that lowers F is refused and mu grows by a factor that doubles with
    each refusal in a row.  At a degenerate maximum (an outside vertex
    adjacent to kappa - 1 clique vertices) F falls off quartically, so a
    fixed-step gradient ascent closes the gap like 1/t^2, while these
    steps close a fixed share of it each.

    A row's value never decreases.  A row stops after a taken step that
    gains less than 1e-14, after a refused step whose predicted gain is
    below 1e-14, or at RSDF_ITERS steps; the best start wins, the first on
    ties.  `stats`, when given, gets one AscentStats appended.
    """
    blocks = np.stack(blocks)
    k, dim, _ = blocks.shape
    flat = blocks.reshape(k * dim, dim).T  # x @ flat stacks B_1 x .. B_k x (blocks are symmetric)
    eye = np.eye(dim)
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.standard_normal((RSDF_STARTS, dim)), eye])
    norms = np.linalg.norm(x, axis=1)
    x = x[norms >= 1e-12] / norms[norms >= 1e-12, None]

    def forms(x):
        bx = (x @ flat).reshape(len(x), k, dim)
        w = np.matmul(bx, x[:, :, None])[:, :, 0]  # w[s, i] = x_s^T B_i x_s
        return bx, w, np.einsum("si,si->s", w, w)

    bx, w, val = forms(x)
    mu = np.ones(len(x))
    grow = np.full(len(x), 2.0)  # mu's factor on the next refused step
    rows = np.arange(len(x))  # start index of each row still climbing
    end_x, end_val = x.copy(), val.copy()  # where each start stopped
    steps = 0
    while len(rows) and steps < RSDF_ITERS:
        steps += 1
        grad = 4.0 * (np.matmul(w[:, None, :], bx)[:, 0, :] - val[:, None] * x)
        hess = 4.0 * np.tensordot(w, blocks, axes=1) + 8.0 * np.matmul(bx.transpose(0, 2, 1), bx)
        xx = x[:, :, None] * x[:, None, :]
        tangent = (eye - xx) @ (hess - 4.0 * val[:, None, None] * eye) @ (eye - xx)
        # x's zero eigenvalue moves to -1, so that d stays tangent
        lam, vec = np.linalg.eigh(tangent - xx)
        mu = np.maximum(mu, 1.1 * lam[:, -1])
        g = np.einsum("sji,sj->si", vec, grad)  # the gradient in T's eigenbasis
        coef = g / (mu[:, None] - lam)
        cand = x + np.einsum("sij,sj->si", vec, coef)
        cand /= np.sqrt(np.einsum("si,si->s", cand, cand))[:, None]
        # the model's gain g.d + d.T T d / 2, equal to (g.d + mu d.d) / 2 as (mu - T) d = g
        pred = 0.5 * (np.einsum("si,si->s", g, coef) + mu * np.einsum("si,si->s", coef, coef))
        cand_bx, cand_w, cand_val = forms(cand)
        gain = cand_val - val
        up = gain >= 0
        ratio = np.divide(gain, pred, out=np.zeros_like(gain), where=pred > 0)
        mu = np.where(up, np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), grow) * mu
        grow = np.where(up, 2.0, 2.0 * grow)
        x = np.where(up[:, None], cand, x)
        bx = np.where(up[:, None, None], cand_bx, bx)
        w = np.where(up[:, None], cand_w, w)
        val = np.where(up, cand_val, val)
        done = np.where(up, gain < 1e-14, pred < 1e-14)
        if done.any():
            end_x[rows[done]], end_val[rows[done]] = x[done], val[done]
            go = ~done
            rows, x, bx, w, val, mu, grow = rows[go], x[go], bx[go], w[go], val[go], mu[go], grow[go]
    end_x[rows], end_val[rows] = x, val
    if stats is not None:
        stats.append(AscentStats(steps, len(rows)))
    best = int(np.argmax(end_val))
    return float(end_val[best]), end_x[best]


def _sqrt_bracket(t: Fraction, scale: int = 2**48) -> tuple[Fraction, Fraction]:
    """Rationals strictly bracketing sqrt(t) within ~2/scale."""
    if t < 0:
        raise ValueError("negative operand")
    v = (t.numerator * scale * scale) // t.denominator
    r = math.isqrt(v)
    return Fraction(max(r - 1, 0), scale), Fraction(r + 2, scale)


def rsdf_to_wval(inst: RsdfInstance) -> WvalInstance:
    """Assemble the block operator and map thresholds through the square root."""
    blocks = inst.blocks
    if not blocks:
        raise ValueError("at least one block required")
    dims = {b.shape[0] for b in blocks}
    if len(dims) != 1:
        raise ValueError("all blocks must share one dimension")
    n = dims.pop()
    m = len(blocks) + 1
    b = np.zeros((m * n, m * n))
    for i, blk in enumerate(blocks, start=1):
        b[0:n, i * n : (i + 1) * n] = blk
        b[i * n : (i + 1) * n, 0:n] = blk
    # separable maximum equals sqrt(F); bracket the transformed interval
    lo_in = inst.zeta - inst.eta
    hi_in = inst.zeta + inst.eta
    if lo_in < 0:
        lo_in = Fraction(0)
    _, lo_up = _sqrt_bracket(lo_in)
    hi_dn, _ = _sqrt_bracket(hi_in)
    if not lo_up < hi_dn:
        raise ValueError("threshold interval too narrow to bracket in rationals")
    gamma = (lo_up + hi_dn) / 2
    epsilon = (hi_dn - lo_up) / 2
    return WvalInstance(b, m, n, gamma, epsilon)


def product_state_from_block_vector(blocks, x: Array) -> tuple[Array, Array]:
    """The optimal product pair for the block operator given the sphere point."""
    blocks = np.stack(blocks)
    w = x @ blocks @ x
    norm = float(np.linalg.norm(w))
    m = blocks.shape[0] + 1
    alpha = np.zeros(m, dtype=complex)
    if norm < 1e-15:
        alpha[0] = 1.0
    else:
        alpha[0] = 1.0 / math.sqrt(2.0)
        alpha[1:] = w / (math.sqrt(2.0) * norm)
    return alpha, x.astype(complex)


def wval_value(inst: WvalInstance, x: Array) -> float:
    """max over separable states of tr(B sigma), by a seesaw ascent seeded with
    the product state built from x, a sphere point of `rsdf_value` on the
    instance's blocks."""
    b = inst.b
    hs = float(np.linalg.norm(b))
    if hs < 1e-15:
        return 0.0
    blocks = [
        b[0 : inst.n, i * inst.n : (i + 1) * inst.n] for i in range(1, inst.m)
    ]
    alpha, beta = product_state_from_block_vector(blocks, x)
    res = seesaw_max(b / hs, inst.m, inst.n, init=[(alpha, beta)])
    return res.value * hs


@dataclass(frozen=True)
class ChainReport:
    kappa: int
    clique_threshold: int
    expected_yes: bool
    decided_yes: bool
    simplex_value: float  # 1 - 1/kappa
    rsdf_value: float
    wval_value: float
    gamma: float
    epsilon: float
    ascent: AscentStats  # of the block-form ascent

    @property
    def consistent(self) -> bool:
        return self.expected_yes == self.decided_yes


def verify_chain(g: Graph, c: int, *, seed: int = 0) -> ChainReport:
    """Run all three transformations and compare the final decision with
    exact clique enumeration."""
    if g.n > MAX_CHAIN_VERTICES:
        raise ValueError(f"chain verification capped at {MAX_CHAIN_VERTICES} vertices")
    kappa = max_clique(g)
    wmqs = clique_to_wmqs(g, c)
    rsdf = wmqs_to_rsdf(wmqs)
    ascent: list[AscentStats] = []
    f_val, x = rsdf_value(rsdf.blocks, seed=seed, stats=ascent)
    wval = rsdf_to_wval(rsdf)
    # wval's blocks are rsdf's, so the ascent above already found the seesaw start
    value = wval_value(wval, x)
    decided = value > float(wval.gamma)
    return ChainReport(
        kappa=kappa,
        clique_threshold=c,
        expected_yes=kappa >= c,
        decided_yes=decided,
        simplex_value=1.0 - 1.0 / kappa if kappa else 0.0,
        rsdf_value=f_val,
        wval_value=value,
        gamma=float(wval.gamma),
        epsilon=float(wval.epsilon),
        ascent=ascent[0],
    )


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                a[i, j] = a[j, i] = 1
    return Graph(n, a)
