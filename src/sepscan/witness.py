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
cone in the unit ball, and by Gordan's theorem the cone {x : N x >= 0}
has an interior exactly when p, the point of least norm in the convex
hull of the cut normals, is nonzero; then p/||p|| is its deepest unit
direction, with every slack n_i . p/||p|| >= ||p||.  Wolfe's algorithm
(Math. Programming 11, 1976) finds p and its weights lambda, each cut
starting from the previous cut's weights with a 0 on the new row.  It
stops on one of two checked certificates: interior, min N p/||p|| > 1e-9,
where Newton starts at sqrt(k/(k+2)) p/||p|| (k normals; the barrier's
minimum along every ray from the origin); or empty, ||N^T lambda|| <= 1e-9,
so every unit x has min_i n_i . x <= 1e-9 (a Euclidean thickness, which
unlike a box slack does not depend on the generator basis).  The first
region, the one cut v(rho) . x >= 0, is in closed form (`initial_region`).
The center of k >= 1 cuts has norm sqrt(k/(k+2)).  The first region has no
cut, and center 0, only when ||v(rho)|| < 1e-12; iteration 0's primal distance,
at most ||v(rho)||, is then below `target` (> 0.44 delta) for delta > 3e-12, and
its exact check has certified every such state tried (maximally mixed, 1x1-2x4).

The primal: every oracle maximizer sigma_i is a product state, so the
least-norm point of conv{v(sigma_i) - v(rho)} (Gilbert's algorithm for
separability, Brierley, Navascues and Vertesi, arXiv:1609.05011) measures
how close a known separable mixture is to rho.  The atoms are the mn
computational product states, whose rows are the outer products of the
local bases' diagonal columns, and every maximizer.  The primal point of
iteration 0 is diag(rho), in closed form: the atoms' hull is the diagonal
states, and diag(rho) is both the nearest of them to rho and the nearest
point of the affine hull of the atoms it weighs (Wolfe's corral invariant).
After each oracle call that finds no witness, the same Wolfe solver runs
warm on the atoms, and stops as soon as the distance is at most the
current target, first delta', the QSEP distance of
`qsep.reduce_wmem_to_qsep` for (m, n, delta).  One check runs on the primal
of every iteration, 0 included, whose distance is at most the target.  The
first builds the exact instance (once per search), from `exact_image` of
rho: its floats as integers over one power of two, with the last diagonal
entry set for trace exactly 1.  The corral's weights and atoms are
truncated to a `QsepCertificate` and checked in exact arithmetic.  An
accepted check stops the search on `certificate` with an exact
`SeparableAssured`: it proves that the exact image of rho lies within
delta' < delta of the certificate's sigma~, which is delta-closeness, not
separability (an entangled state within delta of the separable set may get
it).  A rejected check halves the target, and the search cuts on; floats
alone never give a verdict.

Termination also declares the state delta-close to the separable set
when the largest semi-axis of the Dikin ellipsoid at the analytic center
drops below delta/4, when the region empties, or when the iteration cap
4*(m^2 n^2 - 1)*ln(8/delta) + 64 fires.  A state within delta' of its
diagonal, a 1x1 state among them, is certified with no oracle call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import qsep  # called through the module, so spans installed on it time the checks
from .core import Array, DensityMatrix, _local_basis, from_bloch, ket, to_bloch
from .nets import DeltaNet, NetTooCoarseError
from .onesided import ENTANGLED, SEPARABLE, Verdict
from .qsep import QsepCertificate, QsepInstance, VerificationResult
from .wopt import ProductState, WoptResult, wopt_max

NEWTON_DECREMENT_TOL = 1e-12
NEWTON_MAX_STEPS = 200
THICKNESS_TOL = 1e-9  # cones no thicker than this are empty


class RegionEmptyError(RuntimeError):
    """The feasible region has no interior left.

    From the cut-cone solve, `weights` is the certificate: lambda >= 0,
    sum 1, with ||N^T lambda|| <= THICKNESS_TOL.
    """

    def __init__(self, message: str, weights: Array | None = None):
        super().__init__(message)
        self.weights = weights


class NumericalBreakdownError(RuntimeError):
    """A cut degenerated (normal vanished)."""


@dataclass(frozen=True)
class SearchRegion:
    """Unit Bloch ball cut by halfspaces {x : n . x >= 0}."""

    normals: Array  # (k, dim) unit rows
    weights: Array  # (k,) convex weights of least_norm
    least_norm: Array  # the point of least norm in conv(normals); 0 without normals
    center: Array
    radius_proxy: float  # largest Dikin semi-axis at the center
    rho_bloch: Array


@dataclass
class SearchStats:  # work counters of one search, filled in as it runs
    newton_steps: int = 0  # accepted damped-Newton steps
    ldp_steps: int = 0  # min-norm-point affine solves (major plus minor cycles)
    unconverged_centerings: int = 0  # centerings left with decrement >= 1/2
    oracle_evaluated: int = 0  # sum of WoptResult.evaluated
    oracle_bounded: int = 0  # sum of WoptResult.bounded
    primal_solves: int = 0  # affine solves of the primal min-norm-point problem
    primal_distance: float | None = None  # last float distance from v(rho) to the atoms' hull
    certificate_checks: int = 0  # exact checks of truncated primal certificates


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
    stop: str  # witness, certificate, dikin_radius, region_empty or cap
    stats: SearchStats
    instance: QsepInstance | None = None  # with `certificate`, on the certificate stop
    certificate: QsepCertificate | None = None


def _barrier_grad_hess(normals: Array, x: Array, s: Array, ball: float):
    w = normals / s[:, None]
    h = w.T @ w + (4.0 / ball**2) * np.outer(x, x)
    h.flat[:: x.shape[0] + 1] += 2.0 / ball
    return 2.0 * x / ball - w.sum(axis=0), h


def analytic_center(normals: Array, x0: Array, stats: SearchStats) -> tuple[Array, float]:
    """Damped-Newton minimizer of the log barrier; returns (center, dikin radius).

    Newton stops once the decrement lambda^2 = g . H^-1 g <= NEWTON_DECREMENT_TOL.
    The Dikin radius 1/sqrt(lambda_min(H)) is divided by 1 - r, r = lambda/(1 - lambda):
    self-concordance gives ||x - x*||_x <= r, so this bounds the radius at the
    true center x*.  For lambda >= 1/2 there is no bound, and the radius is inf.
    """
    x = np.asarray(x0, dtype=float).copy()
    s, ball = normals @ x, 1.0 - float(x @ x)  # slacks of the current iterate
    if ball <= 0.0 or (s.size and np.min(s) <= 0.0):
        raise RegionEmptyError("starting point is not strictly feasible")
    base = -float(np.sum(np.log(s))) - math.log(ball)
    for _ in range(NEWTON_MAX_STEPS):
        g, h = _barrier_grad_hess(normals, x, s, ball)
        dx = -np.linalg.solve(h, g)
        slope = float(g @ dx)  # -lambda^2
        if -slope <= NEWTON_DECREMENT_TOL:
            break
        # along x + t dx the slacks are s + t N dx and ball - 2t x.dx - t^2 dx.dx
        sdx, xdx, dxdx = normals @ dx, float(x @ dx), float(dx @ dx)
        t = 1.0
        while t > 1e-14:
            s_t, ball_t = s + t * sdx, ball - t * (2.0 * xdx + t * dxdx)
            if ball_t > 0.0 and not (s_t.size and np.min(s_t) <= 0.0):
                val = -float(np.sum(np.log(s_t))) - math.log(ball_t)
                if val < base + 0.25 * t * slope:
                    x, s, ball, base = x + t * dx, s_t, ball_t, val
                    stats.newton_steps += 1
                    break
            t *= 0.5
        else:
            break
    else:  # the last step moved x
        g, h = _barrier_grad_hess(normals, x, s, ball)
    if ball <= 1e-30 or (s.size and np.min(s) <= 1e-30):
        raise RegionEmptyError("interior collapsed during centering")
    w, v = np.linalg.eigh(h)
    # H >= (2/ball) I exactly, so anything smaller is roundoff from the
    # huge slack terms; flooring keeps the radius conservative
    w = np.maximum(w, 2.0 / ball)
    lam = math.sqrt(float(np.sum((v.T @ g) ** 2 / w)))
    if lam >= 0.5:
        stats.unconverged_centerings += 1
        return x, math.inf
    return x, 1.0 / math.sqrt(float(w[0])) / (1.0 - lam / (1.0 - lam))


def _affine_min_norm(points: Array) -> tuple[Array, Array]:
    """Least-norm point y of the affine hull of the rows, and its affine weights.

    With D the rows minus the first, p0, and D^T = QR, y = p0 - Q Q^T p0.
    Projecting twice makes Q^T y roundoff of y rather than of p0, so the
    rows' slacks n_i . y stay equal even when y is tiny.
    """
    p0 = points[0]
    if len(points) == 1:
        return p0.copy(), np.ones(1)
    q, r = np.linalg.qr((points[1:] - p0).T)
    c = q.T @ p0
    y = p0 - q @ c
    c2 = q.T @ y
    y -= q @ c2
    beta = np.linalg.solve(r, -(c + c2))
    return y, np.concatenate(([1.0 - beta.sum()], beta))


def _major_cycle(points: Array, lam: Array, j: int) -> tuple[Array, Array, int]:
    """One major cycle of Wolfe's algorithm: row j joins the corral (the rows
    with weight).  Each minor cycle solves for the corral's affine least-norm
    point y; while some affine weight is <= 0, the weights move toward y's
    until one drops to 0 and its row leaves.  Returns the new weights, y and
    the number of affine solves."""
    lam = lam.copy()
    corral = np.append(np.flatnonzero(lam), j)
    solves = 0
    while True:
        solves += 1
        y, mu = _affine_min_norm(points[corral])
        if np.all(mu > 0.0):
            lam[corral] = mu
            return lam, y, solves
        cur = lam[corral]
        out = np.flatnonzero(mu <= 0.0)
        ratios = cur[out] / (cur[out] - mu[out])
        step = np.maximum(cur + float(np.min(ratios)) * (mu - cur), 0.0)
        step[out[np.argmin(ratios)]] = 0.0
        lam[corral] = step
        corral = corral[step > 0.0]


def _hull_norm(points: Array, lam: Array) -> float:
    """||P^T lam||, summed over the rows with weight."""
    corral = np.flatnonzero(lam)
    return float(np.linalg.norm(points[corral].T @ lam[corral]))


def _min_norm_point(
    points: Array, weights: Array, point: Array, floor: float
) -> tuple[Array, Array, int]:
    """Wolfe's algorithm for the least-norm point of the hull of the rows.

    It starts from `weights` (>= 0, sum 1) and their `point` (computed with
    them, not as P^T weights: in floats that loses the direction of a
    tiny point), or from the last row when all weights are 0.  While the row
    of least slack p_j . x improves on x, a major cycle brings it in.  In
    exact arithmetic ||x|| falls with every cycle and the entering row keeps
    its weight, so the loop is finite.  It returns the weights, their point
    and the number of affine solves: at the least-norm point up to roundoff,
    or after the first cycle whose weights have ||P^T lam|| <= floor.
    """
    lam, x = np.array(weights, dtype=float), point
    if not lam.any():
        lam[-1], x = 1.0, points[-1]
    solves = 0
    while True:
        nx = math.sqrt(float(x @ x))
        s = points @ x
        j = int(np.argmin(s))
        if s[j] >= nx * (nx - 1e-12) or lam[j] > 0.0:
            return lam, x, solves  # no row outside the corral improves on x
        new_lam, new_x, steps = _major_cycle(points, lam, j)
        solves += steps
        if new_lam[j] <= 0.0:  # roundoff undid the cycle, and x stays
            return lam, x, solves
        lam, x = new_lam, new_x
        if _hull_norm(points, lam) <= floor:
            return lam, x, solves


def _feasible_start(
    normals: Array, weights: Array, point: Array, stats: SearchStats
) -> tuple[Array, Array, Array]:
    """Strictly interior point of {x : N x >= 0, ||x|| < 1}, with p, the
    least-norm point of conv{n_i}, and its weights, from `_min_norm_point`
    warm-started at `weights` and `point`; or RegionEmptyError with weights
    whose combination has norm <= THICKNESS_TOL.
    """
    lam, x, solves = _min_norm_point(normals, weights, point, THICKNESS_TOL)
    stats.ldp_steps += solves
    size = _hull_norm(normals, lam)
    if size <= THICKNESS_TOL:
        raise RegionEmptyError(f"cut cone is empty: ||N^T lambda|| = {size:.3g}", lam)
    nx, k = math.sqrt(float(x @ x)), len(normals)
    if np.min(normals @ x) > THICKNESS_TOL * nx:
        return math.sqrt(k / (k + 2.0)) * x / nx, lam, x
    raise NumericalBreakdownError(f"least-norm point of norm {nx:.3g} is at the threshold")


def initial_region(rho: DensityMatrix) -> SearchRegion:
    """Unit Bloch ball, cut by n . x >= 0 with n = v(rho)/||v(rho)|| when v(rho)
    is nonzero, in closed form.  The one normal is its own least-norm point
    (weight 1), and the barrier -log(n . x) - log(1 - ||x||^2) is least at
    x = n/sqrt(3), the start `_feasible_start` gives one normal, where its
    Hessian is 3I + 6 nn^T: the Dikin radius is 1/sqrt(3).  Without the cut the
    center is 0, the Hessian 2I and the radius 1/sqrt(2)."""
    v = to_bloch(rho.mat, rho.m, rho.n)
    nv = float(np.linalg.norm(v))
    if nv < 1e-12:
        return SearchRegion(np.empty((0, v.shape[0])), np.zeros(0), np.zeros_like(v),
                            np.zeros_like(v), 1.0 / math.sqrt(2.0), v)
    n = v / nv
    center = math.sqrt(1 / 3.0) * n / math.sqrt(float(n @ n))
    return SearchRegion(n[None, :], np.ones(1), n, center, 1.0 / math.sqrt(3.0), v)


def cut(region: SearchRegion, a_hat: Array, row: Array, stats: SearchStats) -> SearchRegion:
    """Halfspace through the origin (and through the tested center when its
    margin was >= 0).

    a_hat is the unit Bloch direction that was tested; row the primal row v(sigma_a) -
    v(rho) that `wsep_solve` appended for sigma_a, the oracle maximizer of its candidate.
    """
    g = 0.0 - row  # v(rho) - v(sigma_a), +0 where they agree (-row would give -0)
    observed = float(g @ a_hat)
    normal = g - observed * a_hat if observed > 0 else g
    norm = float(np.linalg.norm(normal))
    if norm < 1e-12:
        raise NumericalBreakdownError("cut normal vanished")
    normals = np.vstack([region.normals, normal[None, :] / norm])
    start, weights, point = _feasible_start(
        normals, np.append(region.weights, 0.0), region.least_norm, stats
    )
    center, radius = analytic_center(normals, start, stats)
    return SearchRegion(normals, weights, point, center, radius, region.rho_bloch)


def iteration_cap(dim: int, delta: float) -> int:
    return int(math.ceil(4.0 * dim * math.log(8.0 / delta))) + 64


def exact_image(mat: Array) -> qsep.ExactMatrix:
    """The exact matrix of a float density matrix: the upper triangle's floats,
    mirrored, the real diagonal, and the last diagonal entry set so that the
    trace is exactly 1.  Every float is an integer over a power of two, so the
    entries are integers over the largest of those powers, and that is their
    lowest terms: a float over 2^k, k >= 1, has an odd numerator."""
    d = mat.shape[0]
    z = mat.tolist()
    q = d * (d - 1)  # the upper triangle's parts, row by row, then the diagonal's
    parts = [x for r in range(d) for c in range(r + 1, d) for x in (z[r][c].real, z[r][c].imag)]
    ratios = [x.as_integer_ratio() for x in parts + [z[r][r].real for r in range(d - 1)]]
    den = max((b for _, b in ratios), default=1)  # powers of two: the largest is their lcm
    nums = [a * (den // b) for a, b in ratios]
    nums.append(den - sum(nums[q:]))
    upper = iter(zip(nums[:q:2], nums[1:q:2]))
    rows = [[(0, 0)] * d for _ in range(d)]
    for r in range(d):
        rows[r][r] = (nums[q + r], 0)
        for c in range(r + 1, d):
            re, im = rows[r][c] = next(upper)
            rows[c][r] = (re, -im)
    return qsep.ExactMatrix(tuple(map(tuple, rows)), den)


def _computational_rows(m: int, n: int) -> Array:
    """Bloch rows of the mn product states |i>|j>, i-major: those of
    `ProductState.bloch`, which is the outer product of the local coordinates
    of E_ii and E_jj, the diagonal columns i (m + 1) and j (n + 1) of the
    local bases."""
    ea, eb = (_local_basis(d)[:, :: d + 1].real.T for d in (m, n))
    return (ea[:, None, :, None] * eb[None, :, None, :]).reshape(m * n, -1)[:, 1:]


def _diagonal_start(rho: DensityMatrix) -> tuple[Array, Array]:
    """Weights diag(rho) on the computational atoms, and their point computed by
    `to_bloch` (P^T lam in floats loses a tiny point's direction)."""
    lam = np.maximum(np.diag(rho.mat).real, 0.0)
    return lam / lam.sum(), -to_bloch(rho.mat - np.diag(np.diag(rho.mat)), rho.m, rho.n)


def _check_primal(
    inst: QsepInstance, atoms: list[ProductState], weights: Array
) -> tuple[QsepCertificate, VerificationResult]:
    """The truncated certificate of the atoms with weight, and its exact check."""
    decomp = [(w, atoms[i].alpha, atoms[i].beta) for i, w in enumerate(weights) if w > 0.0]
    cert = qsep.truncate_decomposition(decomp, qsep.bits_required(inst.delta_p), inst.m, inst.n)
    return cert, qsep.verify_certificate(inst, cert)


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
    stats = SearchStats()
    # the primal: atoms (the computational product states, then every oracle
    # maximizer) at v(sigma_i) - v(rho), their Wolfe weights and point; an
    # exact check runs when the float distance is at most `target`
    atoms = [ProductState(ket(i, rho.m), ket(j, rho.n)) for i in range(rho.m) for j in range(rho.n)]
    exact_delta = Fraction(delta)
    bits = qsep.reduction_bits(rho.m, rho.n, exact_delta)
    target = float(qsep.error_bound_reconstruction(rho.m, rho.n, bits))  # delta'
    region = initial_region(rho)
    points = _computational_rows(rho.m, rho.n) - region.rho_bloch
    lam, x = _diagonal_start(rho)  # the primal of iteration 0
    stats.primal_distance = math.sqrt(float(x @ x))
    stop, inst = "cap", None
    for iterations in range(iteration_cap(rho.dim**2 - 1, delta) + 1):
        if iterations:
            a_hat = region.center / float(np.linalg.norm(region.center))
            candidate = from_bloch(a_hat, rho.m, rho.n)
            oracle: WoptResult = wopt_max(candidate, rho.m, rho.n, net)
            stats.oracle_evaluated += oracle.evaluated
            stats.oracle_bounded += oracle.bounded
            margin = float(region.rho_bloch @ a_hat) - oracle.value
            if margin > 2.0 * eps:
                verdict = Verdict(ENTANGLED, "witness_search", False, margin)
                cert = WitnessCert(candidate, a_hat, margin, delta)
                return WsepResult(verdict, cert, iterations, "witness", stats)
            atoms.append(oracle.maximizer)
            points = np.vstack([points, oracle.maximizer.bloch() - region.rho_bloch])
            lam, x, solves = _min_norm_point(points, np.append(lam, 0.0), x, target)
            stats.primal_solves += solves
            stats.primal_distance = _hull_norm(points, lam)
        if stats.primal_distance <= target:
            if inst is None:  # built on the first check only
                inst = qsep.reduce_wmem_to_qsep(exact_image(rho.mat), rho.m, rho.n, exact_delta)
            stats.certificate_checks += 1
            qcert, check = _check_primal(inst, atoms, lam)
            if check.accepted:
                verdict = Verdict(SEPARABLE, "closeness_certificate", True,
                                  math.sqrt(check.distance_sq))
                return WsepResult(verdict, None, iterations, "certificate", stats, inst, qcert)
            target = stats.primal_distance / 2.0  # the next check waits for progress
        if iterations:
            try:
                region = cut(region, a_hat, points[-1], stats)
            except RegionEmptyError:
                stop = "region_empty"
                break
            if region.radius_proxy < delta / 4.0:
                stop = "dikin_radius"
                break
    verdict = Verdict(SEPARABLE, "witness_search", False, region.radius_proxy)
    return WsepResult(verdict, None, iterations, stop, stats)


def revalidate(cert: WitnessCert, rho: DensityMatrix, net: DeltaNet) -> float:
    """Margin of a previously emitted witness against a (finer) net.

    No code in `src` calls it: it states the search's soundness claim that a
    detected margin above 2*epsilon leaves a strictly positive true margin, so
    the witness re-validates on any finer net; acceptance 2 checks it on every
    witness the search emits.
    """
    oracle = wopt_max(cert.operator, rho.m, rho.n, net)
    return float(to_bloch(rho.mat, rho.m, rho.n) @ cert.bloch) - oracle.value
