"""Bounded search for (PPT) Bose-symmetric extensions by Douglas-Rachford splitting.

An extension candidate lives directly in Bose-symmetric coordinates: a
Hermitian operator X on Sym_k(C^m) (x) C^n, so permutation symmetry holds
by construction.  Feasibility asks for

* X >= 0, and optionally PSD partial transposes: transposing subsystem B,
  or l = 1..k-1 copies of A (the k inequivalent choices), and
* the extension property E(X) = rho, where E traces out k-1 copies of A.

Transposed copies are handled without ever materializing (C^m)^(x k):
transposing l copies acts as an ordinary transpose of the Sym_l factor
after branching Sym_k into Sym_l (x) Sym_(k-l), and the branching is an
isometry with closed-form binomial coefficients in the occupation basis.
E itself is one matrix product with an (m^2, d_sk^2) coefficient matrix.

The search works in the product space (X, Y_1, ..., Y_J).  One set is the
product of PSD cones (projection: an eigenvalue clip per component), the
other the affine set {Y_j = T_j(X), E(X) = rho} (projection: a
least-squares correction through the pseudo-inverse of E E*).  Relaxed
Douglas-Rachford (the ADMM of this splitting) alternates them; the
residual is the distance between the cone and affine iterates, which
tends to zero on feasible problems and to the gap between the two sets on
infeasible ones.  A positive residual when the iteration budget runs out
is no proof of anything: it may be slow convergence.

Rank-deficient states put every extension on the boundary of each cone,
where the splitting crawls, so the cone step clips onto a face instead
(facial reduction: Borwein and Wolkowicz 1981; Drusvyatskiy and
Wolkowicz, "The many faces of degeneracy in conic optimization", 2017).
E_j, the partial trace of Sym_j (x) B down to A (x) B (E_1 = id), and its
adjoint E_j^* are positive, so an extension X is orthogonal to PSD
operators fixed by the kernels of rho and rho^Gamma:

* X to E_k^*(P_ker rho), and T_B X to E_k^*(P_ker rho^Gamma);
* T_l X on Sym_l (x) Sym_(k-l) (x) B, whose Sym_l trace is the (k-l)-copy
  marginal of X, to I (x) E_(k-l)^*(P_ker rho); and, since its
  Sym_(k-l) trace is the transposed l-copy marginal, to
  E_l^*(P_ker rho^(T_A)) on Sym_l (x) B, tensored with I on Sym_(k-l).
  rho^(T_A) is the complex conjugate of rho^Gamma, and so is its kernel.

A PSD operator orthogonal to a PSD Q lives on ker Q, so each cone
iterate is clipped onto the face {V S V^dag : S >= 0}, V an orthonormal
basis of ker Q_j, and the affine set is cut down to X in the span of X's
face.  Clipping onto small faces while projecting onto the whole affine
set would leave two nearly parallel subspaces, between which the
splitting crawls as before, so the faces are used only when X's face is
proper and its span reaches rho; otherwise (every full-rank rho) all
cones stay whole.  The spans of the PPT faces do not cut the affine set,
so a few near-full-rank mixtures converge more slowly than on whole
cones.  The faces hold every extension: the feasible set is unchanged.

With PPT constraints, infeasibility is also decided exactly before any
iteration: every PPT extension satisfies E(T_B X) = rho^Gamma with
T_B X >= 0, so when `onesided.ppt_test` finds rho NPT, no depth k has one.

The trace-distance bound 4m/k for states with a k-copy Bose-symmetric
extension (the quantum de Finetti bound of Christandl, Koenig, Mitchison
and Renner, quant-ph/0602130) needs Bose symmetry alone, so
`separability_scan` searches the hierarchy without PPT cones: each
iteration clips one cone.  A k-extension yields every smaller one by a
partial trace, so the scan searches the depths 2, 4, 8, ... and then
ceil(4m/delta), whose extension decides delta-closeness to the separable
set in trace norm.  The scan's only route to Entangled is the NPT
presolve, which runs once, first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .core import Array, DensityMatrix, hermitize, partial_transpose
from .onesided import ENTANGLED, SEPARABLE, UNKNOWN, Verdict, ppt_test

MAX_DIM = 512  # ambient dimension d_sk n of an extension
SPLIT_MAX_DIM = 2048  # dimension of a branched, partially transposed copy
# over-relaxation of the Douglas-Rachford step
RELAXATION = 1.7
TOL = 1e-7  # PSD slack of an accepted iterate
FACE_TOL = 1e-10  # eigenvalue counted as zero when the cone faces are built (see _faces)
# largest mn searched on faces: the (mn)^2-square Gram of _nearest_on_face
# takes 4-5 s and 220-260 MB peak RSS to build at mn = 36 (2x18, 3x12, 4x9
# and 6x6 at their largest k; one Xeon core), growing as (mn)^6 and (mn)^4
FACE_MAX_MN = 36
SCAN_ITERS = 3000  # iteration budget of each depth of separability_scan


class DimensionGuardError(ValueError):
    """Problem size exceeds the configured limits."""


def copies_bound(m: int, delta: float) -> int:
    """Extension depth ceil(4m/delta) that certifies trace-norm delta-closeness."""
    if not 0 < delta < math.inf:  # also false for nan
        raise ValueError(f"delta must be positive and finite, got {delta}")
    return int(math.ceil(Fraction(4 * m) / Fraction(delta)))


def extension_gap(m: int, k: int) -> float:
    """Trace-distance bound 4m/k granted by a k-copy Bose-symmetric extension."""
    return 4.0 * m / k


def sym_dim(m: int, k: int) -> int:
    return math.comb(m + k - 1, k)


@lru_cache(maxsize=128)
def occupations(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Occupation vectors of Sym_k(C^m) in deterministic order."""
    out = []
    for combo in combinations_with_replacement(range(m), k):
        n = [0] * m
        for c in combo:
            n[c] += 1
        out.append(tuple(n))
    return tuple(out)


@lru_cache(maxsize=128)
def _single_copy_coeffs(m: int, k: int) -> Array:
    """Coefficient matrix of E: G[(i, j), (a, b)] = sqrt(n_i p_j)/k on pairs
    of occupations n = occ[a], p = occ[b] with n - e_i = p - e_j."""
    occ = occupations(m, k)
    index = {n: a for a, n in enumerate(occ)}
    gs = np.zeros((m, m, len(occ), len(occ)))
    for a, n in enumerate(occ):
        for i in range(m):
            if n[i] == 0:
                continue
            for j in range(m):
                p = list(n)
                p[i] -= 1
                p[j] += 1
                b = index[tuple(p)]
                gs[i, j, a, b] = math.sqrt(n[i] * p[j]) / k
    g = gs.reshape(m * m, len(occ) ** 2)
    g.setflags(write=False)
    return g


@lru_cache(maxsize=128)
def _branch_isometry(m: int, k: int, l: int) -> Array:
    """Sym_k -> Sym_l (x) Sym_(k-l) branching, sqrt(prod C(n_i, q_i)/C(k, l))."""
    occ_k = occupations(m, k)
    occ_l = occupations(m, l)
    occ_r = occupations(m, k - l)
    idx_l = {n: a for a, n in enumerate(occ_l)}
    idx_r = {n: a for a, n in enumerate(occ_r)}
    out = np.zeros((len(occ_l) * len(occ_r), len(occ_k)))
    denom = math.comb(k, l)
    for col, n in enumerate(occ_k):
        for q in occ_l:
            if any(qi > ni for qi, ni in zip(q, n)):
                continue
            r = tuple(ni - qi for ni, qi in zip(n, q))
            w = math.sqrt(math.prod(math.comb(ni, qi) for ni, qi in zip(n, q)) / denom)
            out[idx_l[q] * len(occ_r) + idx_r[r], col] = w
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ExtensionProblem:
    rho: DensityMatrix
    k: int
    ppt: bool = True

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("extension depth k must be >= 2")
        dsk = sym_dim(self.rho.m, self.k)
        if dsk * self.rho.n > MAX_DIM:
            raise DimensionGuardError(
                f"ambient dimension {dsk * self.rho.n} exceeds limit {MAX_DIM}"
            )
        if self.ppt:
            for l in range(1, self.k):
                split = sym_dim(self.rho.m, l) * sym_dim(self.rho.m, self.k - l) * self.rho.n
                if split > SPLIT_MAX_DIM:
                    raise DimensionGuardError(
                        f"transposed block dimension {split} exceeds limit {SPLIT_MAX_DIM}"
                    )


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of `find_extension`.

    Found: `operator` is the extension.  Not found with `budget_exhausted`
    means the iterations ran out: the residual is the last distance
    between the iterates, evidence only.  Not found without it means
    infeasibility was proved (the NPT presolve, at iteration 0): the
    residual is then a certified lower bound on the distance between the
    two sets of the splitting.
    """

    found: bool
    operator: Array | None  # Bose-symmetric coordinates, (d_sk n, d_sk n)
    residual: float
    iterations: int
    budget_exhausted: bool = False
    residuals: tuple[float, ...] = ()  # the residual at every 10th iteration
    # dimension of the face each cone was clipped onto (the cone's own
    # dimension where it stayed whole), when the loop ran
    face_dims: tuple[int, ...] = ()


def _paired(x: Array, a: int, b: int) -> Array:
    """Regroup an (ab, ab) operator as an (a^2, b^2) matrix: rows (i, j), columns (s, t)."""
    return x.reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)


def _unpaired(y: Array, a: int, b: int) -> Array:
    """Inverse of `_paired`."""
    return y.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


class _ExtensionMaps:
    """Linear maps of the feasibility problem for fixed (m, n, k)."""

    def __init__(self, m: int, n: int, k: int):
        self.m, self.n, self.k = m, n, k
        self.dsk = sym_dim(m, k)
        self.dim = self.dsk * n
        self.coeffs = _single_copy_coeffs(m, k)
        # E E* acts as gram (x) I_(n^2) on the paired layout
        self.gram = self.coeffs @ self.coeffs.T

    @cached_property
    def lifts(self) -> dict[int, Array]:
        # branch isometries lifted to Sym_k (x) B; real, so the adjoint is the transpose.
        # Built on first use: only the PPT cones read them (39 MB at m = n = 3, k = 12).
        return {l: np.kron(_branch_isometry(self.m, self.k, l), np.eye(self.n))
                for l in range(1, self.k)}

    def reduce_one(self, x: Array) -> Array:
        """Partial trace E down to one A copy plus B."""
        return _unpaired(self.coeffs @ _paired(x, self.dsk, self.n), self.m, self.n)

    def reduce_one_adjoint(self, y: Array) -> Array:
        return _marginal_adjoint(y, self.m, self.n, self.k)

    def transpose_b(self, x: Array) -> Array:
        return partial_transpose(x, self.dsk, self.n, "B")

    def transpose_copies(self, x: Array, l: int) -> Array:
        """Branch to Sym_l (x) Sym_(k-l) (x) B, then transpose the Sym_l factor."""
        lift = self.lifts[l]
        dl = sym_dim(self.m, l)
        dr = sym_dim(self.m, self.k - l)
        big = lift @ x @ lift.T
        t = big.reshape(dl, dr * self.n, dl, dr * self.n).transpose(2, 1, 0, 3)
        return t.reshape(dl * dr * self.n, dl * dr * self.n)

    def transpose_copies_adjoint(self, y: Array, l: int) -> Array:
        lift = self.lifts[l]
        dl = sym_dim(self.m, l)
        dr = sym_dim(self.m, self.k - l)
        t = y.reshape(dl, dr * self.n, dl, dr * self.n).transpose(2, 1, 0, 3)
        t = t.reshape(dl * dr * self.n, dl * dr * self.n)
        return lift.T @ t @ lift


def _psd_clip(x: Array) -> Array:
    vals, vecs = np.linalg.eigh(hermitize(x))
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def _face_clip(y: Array, face: Array | None) -> Array:
    """Nearest point to y on the PSD face {V S V^dag : S >= 0}, V = `face`;
    None stands for the whole cone."""
    if face is None:
        return _psd_clip(y)
    vals, vecs = np.linalg.eigh(hermitize(face.conj().T @ y @ face))
    w = face @ vecs
    return (w * np.clip(vals, 0.0, None)) @ w.conj().T


def _kernel(mat: Array) -> Array:
    """Orthonormal eigenvectors of the PSD `mat` with eigenvalue <= FACE_TOL."""
    vals, vecs = np.linalg.eigh(hermitize(mat))
    return vecs[:, vals <= FACE_TOL]


def _marginal_adjoint(y: Array, m: int, n: int, j: int) -> Array:
    """E_j^*: an operator on A (x) B to one on Sym_j(C^m) (x) B; E_1 is the identity."""
    return _unpaired(_single_copy_coeffs(m, j).T @ _paired(y, m, n), sym_dim(m, j), n)


def _faces(rho: DensityMatrix, k: int, ppt: bool) -> list[Array | None]:
    """Orthonormal basis of the face of each cone of `find_extension` on which
    every extension's image lies (None: the whole cone), in the order of its cones.

    Each face is the kernel of a PSD operator Q_j with tr(T_j(X) Q_j) = 0 for
    every extension X, built from kernel projectors of rho and rho^Gamma
    through the positive adjoints E_j^* of the partial traces.

    FACE_TOL = 1e-10 is the one threshold, for the kernels of rho and
    rho^Gamma (unit trace) and for those of the Q_j (0 <= Q_j <= 2I, as
    each E_j^* is unital).  Rounding leaves the zero eigenvalues of the
    float states in the tests and benchmark below 1e-15, and their least
    nonzero ones are above 1e-5 (above 1e-4 for the Q_j), so the cut sits
    far from both.  Counting a tiny true eigenvalue as zero cuts the faces
    off the extensions by about that much, far below TOL, which the
    acceptance test absorbs; a cut far too loose removes directions an
    extension needs, which costs a stall, never a wrong `found`, because
    acceptance reads the full cones.  A cut too tight leaves a cone whole.
    """
    m, n = rho.m, rho.n
    ker = _kernel(rho.mat)
    ker = ker @ ker.conj().T
    blocks = [_marginal_adjoint(ker, m, n, k)]
    if ppt:
        ker_b = _kernel(partial_transpose(rho.mat, m, n, "B"))
        ker_b = ker_b @ ker_b.conj().T
        blocks.append(_marginal_adjoint(ker_b, m, n, k))
        for l in range(1, k):
            dl, dr = sym_dim(m, l), sym_dim(m, k - l)
            # rho^(T_A) = conj(rho^Gamma), so its kernel is the conjugate of ker_b's
            left = _marginal_adjoint(ker_b.conj(), m, n, l).reshape(dl, n, dl, n)
            blocks.append(
                np.kron(np.eye(dl), _marginal_adjoint(ker, m, n, k - l))
                + np.einsum("ibjc,rs->irbjsc", left, np.eye(dr)).reshape(dl * dr * n, -1)
            )
    # a zero block has no kernel behind it: the whole cone
    return [_kernel(q) if q.any() else None for q in blocks]


def _nearest_on_face(rho: DensityMatrix, maps: _ExtensionMaps, face: Array):
    """The map g -> nearest X = V S V^dag to g with E(X) = rho in least
    squares, V = `face`: the affine set of `find_extension` cut down to the
    span of the face of X.

    With R(S) = E(V S V^dag), X = V (S_0 + R^*(lam)) V^dag for S_0 = V^dag g V
    and lam = G^+ (rho - R(S_0)), where G = R R^*: Y -> E(P E^*(Y) P), P = V V^dag,
    is an (mn)^2 square whatever the face's dimension.  E^* is completely
    positive and V^dag E^*(|psi><psi|) V = 0 for psi in ker rho, so R^*
    vanishes off operators on the range of rho: G has rank r^2 for rank-r
    rho.  Its other eigenvalues are rounding and are cut at FACE_TOL of the
    largest: on the rank-deficient product mixtures of the tests and the
    benchmark the cut ones are below 2e-15 of it and the kept ones above 6e-5.
    """
    m, n, dsk = rho.m, rho.n, maps.dsk
    k_ac = maps.coeffs.reshape(m, m, dsk, dsk)
    # P E^*(|a><c| (x) |b><d|) = P (K_ac (x) |b><d|), K_ac the (a, c) row of the coefficients
    pk = np.einsum("vbsB,acst->acvbtB", (face @ face.conj().T).reshape(dsk, n, dsk, n), k_ac,
                   optimize=True)
    # G[(abcd), (ABCD)] = tr(E^*(|ab><cd|)^dag P E^*(|AB><CD|) P)
    gram = np.einsum("ACvbtB,catDvd->abcdABCD", pk, pk, optimize=True)
    vals, vecs = np.linalg.eigh(hermitize(gram.reshape((m * n) ** 2, -1)))
    keep = vals > FACE_TOL * vals[-1]
    vals, vecs = vals[keep], vecs[:, keep]
    face_h = face.conj().T

    def nearest(g: Array) -> Array:
        s = face_h @ g @ face
        off = (rho.mat - maps.reduce_one(face @ s @ face_h)).ravel()
        lam = (vecs @ ((vecs.conj().T @ off) / vals)).reshape(m * n, m * n)
        return face @ (s + face_h @ maps.reduce_one_adjoint(lam) @ face) @ face_h

    return nearest


def _lowest(x: Array) -> float:
    return float(np.linalg.eigvalsh(hermitize(x))[0])


def _npt_certificate(rho: DensityMatrix, gram: Array) -> ExtensionResult | None:
    """Infeasibility of every PPT extension when `ppt_test` finds rho NPT.

    Any PPT extension has E(T_B X) = rho^Gamma with T_B X >= 0, and E maps
    PSD operators to PSD operators, so the affine and cone sets are at least
    dist_F(rho^Gamma, PSD) / ||E|| apart; ||E||^2 is the top eigenvalue of
    the Gram matrix of E.
    """
    if ppt_test(rho).outcome != ENTANGLED:
        return None
    vals = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.m, rho.n, "B"))
    bound = float(np.linalg.norm(vals[vals < 0]) / math.sqrt(np.linalg.eigvalsh(gram)[-1]))
    return ExtensionResult(False, None, bound, 0)


def find_extension(prob: ExtensionProblem, max_iters: int = 20_000) -> ExtensionResult:
    """Douglas-Rachford feasibility search for a (PPT) Bose-symmetric extension.

    With PPT constraints, an NPT state is rejected at iteration 0 with a
    certified residual (see `_npt_certificate`).  Otherwise each iteration
    clips z onto the cones (c), projects 2c - z onto the affine set (a) and
    moves z by RELAXATION * (a - c), starting from the affine point nearest
    the origin; a problem feasible there is accepted at iteration 1 without
    iterating.

    Success requires the affine iterate (extension property exact to
    machine precision, or within FACE_TOL on a face, below) to be PSD
    within TOL on every required cone.  It
    is tested every 10th iteration and whenever the residual falls below
    TOL, where it passes up to rounding: each c_j is PSD and
    ||a_j - c_j|| < TOL, so Weyl's inequality bounds lambda_min(a_j) below
    by -TOL.  The residual is ||a - c|| over all cones; if the
    budget runs out it is reported with `budget_exhausted`.  The
    residual of every 10th iteration is kept in `residuals`.

    When the start fails and mn <= FACE_MAX_MN, the search moves onto the
    faces (module docstring; `_faces`, `_nearest_on_face`) if X's face is
    proper and its span reaches rho within FACE_TOL; a cone whose face is
    whole is clipped as before.  Otherwise every cone stays whole and the
    iterates are those without faces.  `face_dims` gives the dimensions.
    Acceptance still tests the full cones, each face lies in its cone, and
    the affine iterate's marginal must be within FACE_TOL of rho, so the
    Weyl argument above holds as it stands: a face that is too small can
    cost a stall, never a wrong `found`.  On infeasible problems searched
    on faces the residual tends to the gap between the cut-down affine set
    and the faces, which is at least the gap to the cones.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rho = prob.rho
    maps = _ExtensionMaps(rho.m, rho.n, prob.k)
    if prob.ppt:
        cert = _npt_certificate(rho, maps.gram)
        if cert is not None:
            return cert
    # each cone is the image of X under one isometry: (map, adjoint)
    ops = [(lambda x: x, lambda y: y)]
    if prob.ppt:
        ops.append((maps.transpose_b, maps.transpose_b))
        ops.extend(
            (lambda x, l=l: maps.transpose_copies(x, l),
             lambda y, l=l: maps.transpose_copies_adjoint(y, l))
            for l in range(1, prob.k)
        )
    gram_pinv = np.linalg.pinv(maps.gram)
    m, n = rho.m, rho.n

    def nearest(g: Array) -> Array:
        """Nearest X to g with E(X) = rho."""
        lam = _unpaired(gram_pinv @ _paired(rho.mat - maps.reduce_one(g), m, n), m, n)
        return g + maps.reduce_one_adjoint(lam)

    def lift(x: Array) -> list[Array]:
        return [t(x) for t, _ in ops]

    def average(w: list[Array]) -> Array:
        # the T_j are isometries, so the product-space projection averages their adjoints
        return sum(t_adj(y) for (_, t_adj), y in zip(ops, w)) / len(ops)

    def off_marginal(x: Array) -> float:
        return float(np.linalg.norm(maps.reduce_one(x) - rho.mat))

    origin = np.zeros((maps.dim, maps.dim), dtype=complex)
    z = lift(nearest(origin))
    spectra = [np.linalg.eigvalsh(hermitize(y)) for y in z]
    if min(v[0] for v in spectra) >= -TOL:
        # z is on the affine set, so this is the loop's test on its affine
        # iterate; the residual is the distance from z to the cones
        residual = math.sqrt(sum(float(np.sum(np.minimum(v, 0.0) ** 2)) for v in spectra))
        return ExtensionResult(True, hermitize(z[0]), residual, 1)
    faces: list[Array | None] = [None] * len(ops)
    if m * n <= FACE_MAX_MN:
        found_faces = _faces(rho, prob.k, prob.ppt)
        if found_faces[0] is not None:
            on_face = _nearest_on_face(rho, maps, found_faces[0])
            start = on_face(origin)
            if off_marginal(start) <= FACE_TOL:  # the face's span reaches rho
                faces, nearest, z = found_faces, on_face, lift(start)
    face_dims = tuple(y.shape[0] if f is None else f.shape[1] for y, f in zip(z, faces))
    history: list[float] = []
    for it in range(1, max_iters + 1):
        c = [_face_clip(y, f) for y, f in zip(z, faces)]
        a = lift(nearest(average([2.0 * ci - zi for ci, zi in zip(c, z)])))
        residual = math.sqrt(sum(float(np.linalg.norm(ai - ci)) ** 2 for ai, ci in zip(a, c)))
        if it % 10 == 0:
            history.append(residual)
        if ((it % 10 == 0 or residual < TOL) and off_marginal(a[0]) <= FACE_TOL
                and min(_lowest(y) for y in a) >= -TOL):
            return ExtensionResult(True, hermitize(a[0]), residual, it,
                                   residuals=tuple(history), face_dims=face_dims)
        z = [zi + RELAXATION * (ai - ci) for zi, ai, ci in zip(z, a, c)]
    return ExtensionResult(False, None, residual, max_iters, budget_exhausted=True,
                           residuals=tuple(history), face_dims=face_dims)


@dataclass(frozen=True)
class DepthStats:
    """The `find_extension` outcome at one depth of `separability_scan`."""

    k: int
    iterations: int
    found: bool
    residual: float
    residuals: tuple[float, ...]  # every 10th iteration
    face_dims: tuple[int, ...]  # see ExtensionResult


@dataclass
class ScanStats:  # filled in by separability_scan as it runs
    depths: list[DepthStats] = field(default_factory=list)
    stop: str = ""  # trivial_bound, presolve, stalled, kmax or depth


def separability_scan(
    rho: DensityMatrix,
    delta: float,
    kmax: int | None = None,
    *,
    stats: ScanStats | None = None,
) -> Verdict:
    """Search the Bose-symmetric extension hierarchy up to the trace-norm-delta depth.

    The depth kbar = ceil(4m/delta), capped at `kmax`, is reached over the
    depths 2, 4, 8, ... and then kbar itself: a k-extension yields every
    smaller one by a partial trace, so the skipped depths add no evidence.
    The 4m/k bound needs Bose symmetry alone, so every depth is searched
    without PPT cones, each within SCAN_ITERS iterations.  Entangled
    (exact=False) comes only from the NPT presolve, which rules out PPT
    extensions at every depth and so runs once, first, unless the bound is
    trivial; its value is the certified residual.  Then every scheduled
    depth's size guard is checked, before any iteration.  A search that
    runs out of iterations proves nothing and yields Unknown with the last
    residual as its value.  An extension at kbar certifies trace-norm
    delta-closeness to the separable set; one at a smaller cap yields
    Unknown.  `stats`, when given, records each depth's iterations and
    residuals, and the stop reason.
    """
    stats = ScanStats() if stats is None else stats
    kbar = copies_bound(rho.m, delta)
    if kbar < 2:
        # the bound is vacuous: every state is within delta in trace norm
        stats.stop = "trivial_bound"
        return Verdict(SEPARABLE, "symext_trivial_bound", False, float(kbar))
    top = min(kbar, kmax) if kmax is not None else kbar
    cert = _npt_certificate(rho, _ExtensionMaps(rho.m, rho.n, 2).gram)
    if cert is not None:
        stats.stop = "presolve"
        return Verdict(ENTANGLED, "symext_infeasible_k2", False, cert.residual)
    depths = [2]
    while depths[-1] < top:
        depths.append(min(2 * depths[-1], top))
    problems = [ExtensionProblem(rho, k, ppt=False) for k in depths]
    for prob in problems:
        res = find_extension(prob, max_iters=SCAN_ITERS)
        stats.depths.append(
            DepthStats(prob.k, res.iterations, res.found, res.residual, res.residuals,
                       res.face_dims)
        )
        if not res.found:  # without PPT cones only the budget ends a search unfound
            stats.stop = "stalled"
            return Verdict(UNKNOWN, f"symext_stalled_k{prob.k}", False, res.residual)
    if top == kbar:
        stats.stop = "depth"
        return Verdict(SEPARABLE, f"symext_depth_k{kbar}", False, extension_gap(rho.m, kbar))
    stats.stop = "kmax"
    return Verdict(UNKNOWN, f"symext_kmax_k{top}", False, None)
