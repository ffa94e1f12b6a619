"""Cutting-plane search for entanglement witnesses.

The search space is the unit ball of traceless Hermitian operators in
Bloch coordinates.  Each round takes the analytic center of the current
region, normalizes it, and asks the weak-optimization oracle for the
best separable value of that direction.  Either the direction detects
the state (margin above 2*epsilon with epsilon = delta/5, of which the
oracle error accounts for at most epsilon), or the region is cut by a
halfspace through the origin.

Cut geometry: witnesses satisfy x . (v(rho) - v(sigma_A)) > 0, so the
halfspace keeping that side is always sound.  When the tested center had
a small positive observed margin, the normal is additionally projected
orthogonal to the center so the cut passes through both the origin and
the center; the projection can erode witnesses by at most the observed
margin (<= 2*epsilon), which the detection threshold already absorbs.

Interior points: all cuts pass through the origin, so the region is a
cone in the unit ball.  Each cut starts Newton at d/(2||d||), d the
least-distance point of {N d >= 1} (one NNLS), once min N d/||d|| > 1e-9
is checked; only when that fails does a HiGHS LP run, and only the LP
may certify that the region is empty.

Termination declares the state delta-close to the separable set when the
largest semi-axis of the Dikin ellipsoid at the analytic center drops
below delta/4, when the region empties, or when the iteration cap
4*(m^2 n^2 - 1)*ln(8/delta) + 64 fires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, DensityMatrix, from_bloch, to_bloch
from .nets import DeltaNet, NetTooCoarseError
from .onesided import ENTANGLED, SEPARABLE, Verdict
from .wopt import ProductState, WoptResult, wopt_max

NEWTON_DECREMENT_TOL = 1e-12
NEWTON_MAX_STEPS = 200


class RegionEmptyError(RuntimeError):
    """The feasible region has no interior left."""


class NumericalBreakdownError(RuntimeError):
    """A cut degenerated (normal vanished)."""


@dataclass(frozen=True)
class SearchRegion:
    """Unit Bloch ball cut by halfspaces {x : n . x >= 0}."""

    normals: Array  # (k, dim) unit rows
    center: Array
    radius_proxy: float  # largest Dikin semi-axis at the center
    rho_bloch: Array


@dataclass
class SearchStats:  # work counters of one search, filled in as it runs
    newton_steps: int = 0  # accepted damped-Newton steps
    lp_calls: int = 0
    unconverged_centerings: int = 0  # centerings left with decrement >= 1/2
    oracle_evaluated: int = 0  # sum of WoptResult.evaluated
    oracle_bounded: int = 0  # sum of WoptResult.bounded


@dataclass(frozen=True)
class WitnessCert:
    operator: Array  # traceless, unit Hilbert-Schmidt norm
    bloch: Array
    margin: float  # tr(A rho) - oracle value
    delta: float

    def sup_normalized_bloch(self) -> Array:
        """Coefficient vector rescaled to sup-norm one for emission."""
        return self.bloch / np.max(np.abs(self.bloch))


@dataclass(frozen=True)
class WsepResult:
    verdict: Verdict
    witness: WitnessCert | None
    iterations: int
    stop: str  # witness, dikin_radius, region_empty or cap
    stats: SearchStats


def _barrier_parts(normals: Array, x: Array):
    return normals @ x, 1.0 - float(x @ x)


def _barrier_value(normals: Array, x: Array) -> float:
    s, ball = _barrier_parts(normals, x)
    if ball <= 0.0 or (s.size and np.min(s) <= 0.0):
        return np.inf
    return -float(np.sum(np.log(s))) - math.log(ball)


def _barrier_grad_hess(normals: Array, x: Array):
    s, ball = _barrier_parts(normals, x)
    dim = x.shape[0]
    g = 2.0 * x / ball
    h = (2.0 / ball) * np.eye(dim) + (4.0 / ball**2) * np.outer(x, x)
    w = normals / s[:, None]
    return g - w.sum(axis=0), h + w.T @ w


def analytic_center(normals: Array, x0: Array, stats: SearchStats) -> tuple[Array, float]:
    """Damped-Newton minimizer of the log barrier; returns (center, dikin radius).

    Newton stops once the decrement lambda^2 = g . H^-1 g <= NEWTON_DECREMENT_TOL.
    The Dikin radius 1/sqrt(lambda_min(H)) is divided by 1 - r, r = lambda/(1 - lambda):
    self-concordance gives ||x - x*||_x <= r, so this bounds the radius at the
    true center x*.  For lambda >= 1/2 there is no bound, and the radius is inf.
    """
    x = np.asarray(x0, dtype=float).copy()
    base = _barrier_value(normals, x)
    if base == np.inf:
        raise RegionEmptyError("starting point is not strictly feasible")
    for _ in range(NEWTON_MAX_STEPS):
        g, h = _barrier_grad_hess(normals, x)
        dx = -np.linalg.solve(h, g)
        slope = float(g @ dx)  # -lambda^2
        if -slope <= NEWTON_DECREMENT_TOL:
            break
        t = 1.0
        while t > 1e-14:
            cand = x + t * dx
            val = _barrier_value(normals, cand)
            if val < base + 0.25 * t * slope:
                x, base = cand, val
                stats.newton_steps += 1
                break
            t *= 0.5
        else:
            break
    s, ball = _barrier_parts(normals, x)
    if ball <= 1e-30 or (s.size and np.min(s) <= 1e-30):
        raise RegionEmptyError("interior collapsed during centering")
    g, h = _barrier_grad_hess(normals, x)
    w, v = np.linalg.eigh(h)
    # H >= (2/ball) I exactly, so anything smaller is roundoff from the
    # huge slack terms; flooring keeps the radius conservative
    w = np.maximum(w, 2.0 / ball)
    lam = math.sqrt(float(np.sum((v.T @ g) ** 2 / w)))
    if lam >= 0.5:
        stats.unconverged_centerings += 1
        return x, math.inf
    return x, 1.0 / math.sqrt(float(w[0])) / (1.0 - lam / (1.0 - lam))


def initial_region(rho: DensityMatrix, stats: SearchStats) -> SearchRegion:
    """Unit Bloch ball, cut by v(rho) . x >= 0 when v(rho) is nonzero."""
    v = to_bloch(rho.mat, rho.m, rho.n)
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        normals, x0 = np.empty((0, v.shape[0])), np.zeros(v.shape[0])
    else:
        normals, x0 = (v / nv)[None, :], v / (2.0 * nv)
    center, radius = analytic_center(normals, x0, stats)
    return SearchRegion(normals, center, radius, v)


def _feasible_start(normals: Array, stats: SearchStats) -> Array:
    """Strictly interior point of {x : N x >= 0, ||x|| < 1}, or RegionEmptyError.

    The LDP min ||d|| s.t. N d >= 1 is the NNLS on E = [N^T; 1^T], f = e_last
    (Lawson-Hanson): d = -r[:dim] / r[dim], r = E u - f.  Its acceptance implies
    the LP's t > 1e-9 too, since d/||d|| lies in the LP's box.
    """
    from scipy.optimize import linprog, nnls

    k, dim = normals.shape
    if k == 0:
        return np.zeros(dim)
    e_last = np.eye(dim + 1)[-1]
    try:
        u, _ = nnls(np.vstack([normals.T, np.ones(k)]), e_last)
    except RuntimeError:  # NNLS iteration limit: the LP decides
        u = np.zeros(k)
    d = np.sign(1.0 - u.sum()) * (normals.T @ u)  # -r[:dim] / r[dim] up to a positive factor
    nd = float(np.linalg.norm(d))
    if nd > 0.0 and np.min(normals @ d) > 1e-9 * nd:
        return 0.5 * d / nd
    stats.lp_calls += 1
    # variables (d, t): maximize t subject to n_i . d >= t, -1 <= d_j <= 1
    a_ub = np.hstack([-normals, np.ones((k, 1))])
    bounds = [(-1.0, 1.0)] * dim + [(None, None)]
    res = linprog(-e_last, A_ub=a_ub, b_ub=np.zeros(k), bounds=bounds, method="highs")
    if not res.success or res.x is None or res.x[-1] <= 1e-9:
        raise RegionEmptyError("cut cone has no interior")
    return 0.5 * res.x[:dim] / np.linalg.norm(res.x[:dim])


def cut(region: SearchRegion, a: Array, sigma_a: ProductState, stats: SearchStats) -> SearchRegion:
    """Halfspace through the origin (and through a when its margin was >= 0).

    a is the tested center (unnormalized Bloch position); sigma_a the
    oracle maximizer for the normalized candidate.
    """
    g = region.rho_bloch - sigma_a.bloch()
    na = float(np.linalg.norm(a))
    if na > 1e-12:
        a_hat = a / na
        observed = float(g @ a_hat)
        normal = g - observed * a_hat if observed > 0 else g
    else:
        normal = g
    norm = float(np.linalg.norm(normal))
    if norm < 1e-12:
        raise NumericalBreakdownError("cut normal vanished")
    normals = np.vstack([region.normals, normal[None, :] / norm])
    start = _feasible_start(normals, stats)
    center, radius = analytic_center(normals, start, stats)
    return SearchRegion(normals, center, radius, region.rho_bloch)


def iteration_cap(dim: int, delta: float) -> int:
    return int(math.ceil(4.0 * dim * math.log(8.0 / delta))) + 64


def wsep_solve(rho: DensityMatrix, delta: float, net: DeltaNet) -> WsepResult:
    """Weak separation: a detecting witness, or the assertion that rho is
    within delta of the separable set in Euclidean norm.  The net may cover
    either side; the smaller side, C^min(m, n), gives the smallest net."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if net.delta > delta / 10.0 + 1e-12:
        raise NetTooCoarseError(
            f"net covering radius {net.delta} exceeds delta/10 = {delta / 10}"
        )
    eps = delta / 5.0
    dim = rho.dim**2 - 1
    stop = "cap"
    stats = SearchStats()
    region = initial_region(rho, stats)
    fallback = np.eye(dim)[0]
    cert = None
    for iterations in range(1, iteration_cap(dim, delta) + 1):
        a = region.center
        na = float(np.linalg.norm(a))
        a_hat = a / na if na > 1e-12 else fallback
        candidate = from_bloch(a_hat, rho.m, rho.n)
        oracle: WoptResult = wopt_max(candidate, rho.m, rho.n, net)
        stats.oracle_evaluated += oracle.evaluated
        stats.oracle_bounded += oracle.bounded
        margin = float(region.rho_bloch @ a_hat) - oracle.value
        if margin > 2.0 * eps:
            cert, stop = WitnessCert(candidate, a_hat, margin, delta), "witness"
            break
        try:
            region = cut(region, a if na > 1e-12 else fallback * 1e-9, oracle.maximizer, stats)
        except RegionEmptyError:
            stop = "region_empty"
            break
        if region.radius_proxy < delta / 4.0:
            stop = "dikin_radius"
            break
    if cert is not None:
        verdict = Verdict(ENTANGLED, "witness_search", False, cert.margin)
    else:
        verdict = Verdict(SEPARABLE, "witness_search", False, region.radius_proxy)
    return WsepResult(verdict, cert, iterations, stop, stats)


def revalidate(cert: WitnessCert, rho: DensityMatrix, net: DeltaNet) -> float:
    """Margin of a previously emitted witness against a (finer) net.

    No code in `src` calls it: it states the search's soundness claim that a
    detected margin above 2*epsilon leaves a strictly positive true margin, so
    the witness re-validates on any finer net; acceptance 2 checks it on every
    witness the search emits.
    """
    oracle = wopt_max(cert.operator, rho.m, rho.n, net)
    return float(to_bloch(rho.mat, rho.m, rho.n) @ cert.bloch) - oracle.value
