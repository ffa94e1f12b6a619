"""Bounded search for (PPT) Bose-symmetric extensions by Douglas-Rachford splitting.

An extension candidate lives directly in Bose-symmetric coordinates: a
Hermitian operator X on Sym_k(C^m) (x) C^n, so permutation symmetry holds
by construction.  Feasibility asks for

* X >= 0, and optionally PSD partial transposes: transposing subsystem B,
  or l = 1..k-1 copies of A (the k inequivalent choices), and
* the extension property E(X) = rho, where E traces out k-1 copies of A.

Transposing l copies acts as an ordinary transpose of the Sym_l factor
after branching Sym_k into Sym_l (x) Sym_(k-l), an isometry with
closed-form binomial coefficients in the occupation basis, so (C^m)^(x k)
is never formed; E is one product with an (m^2, d_sk^2) coefficient matrix.

The search works in the product space (X, Y_1, ..., Y_J).  One set is the
product of PSD cones (projection: an eigenvalue clip per component), the
other the affine set {Y_j = T_j(X), E(X) = rho} (projection: a
least-squares correction through the pseudo-inverse of E E*).  Relaxed
Douglas-Rachford (the ADMM of this splitting) alternates them; the
residual is the distance between the cone and affine iterates, which
tends to zero on feasible problems and to the gap between the two sets on
infeasible ones, but a positive residual at the end of the budget may
just be slow convergence.

Rank-deficient states put every extension on the boundary of each cone,
where the splitting crawls, so the search moves onto faces (facial
reduction: Borwein and Wolkowicz 1981; Drusvyatskiy and Wolkowicz, "The
many faces of degeneracy in conic optimization", 2017).  E_j, the partial
trace of Sym_j (x) B down to A (x) B (E_1 = id), and E_j^* are positive,
so every extension has T_j(X) orthogonal to a PSD Q_j fixed by the
kernels of rho and rho^Gamma, so on the face of PSD operators on ker Q_j:
Q_0 = E_k^*(P_ker rho), for T_B X E_k^*(P_ker rho^Gamma), and for T_l X
(its Sym_l and Sym_(k-l) traces are the (k-l)-copy marginal and the
transposed l-copy marginal) I (x) E_(k-l)^*(P_ker rho) plus
E_l^*(P_ker rho^(T_A)) (x) I, where rho^(T_A) = conj(rho^Gamma).

With V_j an orthonormal basis of ker Q_j, cone j's variable is S_j for
T_j(X) = V_j S_j V_j^dag (a whole cone keeps its full variable), X =
V_0 S_0 V_0^dag, and the cone step clips every S_j.  Every face cuts the
affine set, now {E(X) = rho, T_j(X) in the span of face j}, on which each
S_0 -> S_j is an isometry, so the splitting is the one above; one
projector per problem projects onto it in S_0 (`_face_search`).  The faces
hold every extension, so the feasible set is unchanged.  They are used
when X's face is proper, the set-up fits FACE_MAX_ENTRIES and the cut set
reaches rho; otherwise (every full-rank rho) all cones stay whole.  When the
spans leave only X = 0, the cut set is empty, and the search ends at once
(`empty_faces`): no PPT extension exists, up to FACE_TOL (the 2x4 states of
P. Horodecki, PLA 232, 333 (1997), at k = 2 and 3).

With PPT constraints, infeasibility is also decided exactly before any
iteration: every PPT extension satisfies E(T_B X) = rho^Gamma with
T_B X >= 0, so when rho is NPT (`onesided.npt`), no depth k has one.

The trace-distance bound 4m/k for states with a k-copy Bose-symmetric
extension (the quantum de Finetti bound of Christandl, Koenig, Mitchison
and Renner, quant-ph/0602130) needs Bose symmetry alone, so
`separability_scan` searches without PPT cones, over the depths 2, 4, 8,
... (a k-extension yields every smaller one by a partial trace) and then
ceil(4m/delta), whose extension decides delta-closeness to the separable
set in trace norm.  Its only route to Entangled is the NPT presolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .core import Array, DensityMatrix, DimensionGuardError, hermitize, partial_transpose
from .onesided import ENTANGLED, SEPARABLE, UNKNOWN, Verdict, npt

MAX_DIM = 512  # ambient dimension d_sk n of an extension
SPLIT_MAX_DIM = 2048  # dimension of a branched, partially transposed copy
RELAXATION = 1.7  # over-relaxation of the Douglas-Rachford step
TOL = 1e-7  # PSD slack of an accepted iterate
FACE_TOL = 1e-10  # eigenvalue counted as zero when the cone faces are built (see _faces)
# largest face set-up in matrix entries: r^2 x f^2 for E on X's face (rank-r rho,
# f = dim of X's face), plus f^4 for the Gram of the PPT spans.  On one Xeon core
# near it: 1.3 s and 91 MB traced at 3.2M (3x3 rank 7, k = 6, PPT), 1.5 s and
# 86 MB at 2.6M (2x18 rank 30, k = 3), 0.4 s at 3.2M (3x3 rank 8, k = 13)
FACE_MAX_ENTRIES = 1 << 22
SCAN_ITERS = 3000  # iteration budget of each depth of separability_scan


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
    return tuple(tuple(combo.count(i) for i in range(m))
                 for combo in combinations_with_replacement(range(m), k))


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
                p = tuple(c - (t == i) + (t == j) for t, c in enumerate(n))
                gs[i, j, a, index[p]] = math.sqrt(n[i] * p[j]) / k
    g = gs.reshape(m * m, len(occ) ** 2)
    g.setflags(write=False)
    return g


@lru_cache(maxsize=128)
def _branch_isometry(m: int, k: int, l: int) -> Array:
    """Sym_k -> Sym_l (x) Sym_(k-l) branching, sqrt(prod C(n_i, q_i)/C(k, l))."""
    occ_k, occ_l, occ_r = (occupations(m, j) for j in (k, l, k - l))
    idx_l, idx_r = ({n: a for a, n in enumerate(occ)} for occ in (occ_l, occ_r))
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
            raise DimensionGuardError(f"ambient dimension {dsk * self.rho.n} exceeds limit "
                                      f"{MAX_DIM}")
        if self.ppt:
            for l in range(1, self.k):
                split = sym_dim(self.rho.m, l) * sym_dim(self.rho.m, self.k - l) * self.rho.n
                if split > SPLIT_MAX_DIM:
                    raise DimensionGuardError(
                        f"transposed block dimension {split} exceeds limit {SPLIT_MAX_DIM}")


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of `find_extension`.

    Found: `operator` is the extension.  Not found with `budget_exhausted`
    means the iterations ran out: the residual is the last distance
    between the iterates, evidence only.  Not found with `empty_faces`
    (at iteration 0) means only X = 0 lies on X's face with every T_j(X)
    on its face's span, so no PPT extension exists, up to FACE_TOL: evidence
    too, and the residual is nan, as nothing was searched.  Not found
    otherwise means infeasibility was proved (the NPT presolve, at
    iteration 0): the residual is then a certified lower bound on the
    distance between the two sets of the splitting.
    """

    found: bool
    operator: Array | None  # Bose-symmetric coordinates, (d_sk n, d_sk n)
    residual: float
    iterations: int
    budget_exhausted: bool = False
    residuals: tuple[float, ...] = ()  # the residual at every 10th iteration
    # dimension of each cone's variable when the loop ran: its face's, or the
    # cone's own where it stayed whole
    face_dims: tuple[int, ...] = ()
    empty_faces: bool = False  # the faces' spans leave only X = 0 (see above)


def _paired(x: Array, a: int, b: int) -> Array:
    """Regroup an (ab, ab) operator as an (a^2, b^2) matrix: rows (i, j), columns (s, t)."""
    return x.reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)


def _unpaired(y: Array, a: int, b: int) -> Array:
    """Inverse of `_paired`."""
    return y.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)


@dataclass(frozen=True)
class _Cone:
    """One cone variable as the image of X: face^dag tau(lift X lift^dag) face,
    tau the partial transpose `which` of the factors `dims`; None is an identity."""

    lift: Array | None = None
    dims: tuple[int, int] = (0, 0)
    which: str | None = None
    face: Array | None = None

    def image(self, x: Array) -> Array:
        if self.lift is not None:
            x = self.lift @ x @ self.lift.conj().T
        if self.which is not None:
            x = partial_transpose(x, *self.dims, self.which)
        return x if self.face is None else self.face.conj().T @ x @ self.face

    def adjoint(self, y: Array) -> Array:
        if self.face is not None:
            y = self.face @ y @ self.face.conj().T
        if self.which is not None:
            y = partial_transpose(y, *self.dims, self.which)
        return y if self.lift is None else self.lift.conj().T @ y @ self.lift


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

    def cones(self, ppt: bool) -> list[_Cone]:
        """X, then with `ppt` T_B X and T_l X (Sym_l transposed in Sym_l (x) Sym_(k-l) (x) B)."""
        out = [_Cone()]
        if ppt:
            out.append(_Cone(dims=(self.dsk, self.n), which="B"))
            out.extend(_Cone(self.lifts[l], (sym_dim(self.m, l), sym_dim(self.m, self.k - l)
                                             * self.n), "A") for l in range(1, self.k))
        return out


def _psd_clip(x: Array) -> Array:
    vals, vecs = np.linalg.eigh(hermitize(x))
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def _kernel(mat: Array) -> Array:
    """Orthonormal eigenvectors of the PSD `mat` with eigenvalue <= FACE_TOL."""
    vals, vecs = np.linalg.eigh(hermitize(mat))
    return vecs[:, vals <= FACE_TOL]


def _marginal_adjoint(y: Array, m: int, n: int, j: int) -> Array:
    """E_j^*: an operator on A (x) B to one on Sym_j(C^m) (x) B; E_1 is the identity."""
    return _unpaired(_single_copy_coeffs(m, j).T @ _paired(y, m, n), sym_dim(m, j), n)


def _faces(rho: DensityMatrix, k: int, ppt: bool) -> list[Array | None]:
    """Orthonormal basis of the face of each cone of `find_extension` that
    holds every extension's image (None: the whole cone): the kernel of Q_j
    of the module docstring, built through the positive adjoints E_j^*.

    FACE_TOL = 1e-10 is the one threshold, for the kernels of rho and
    rho^Gamma (unit trace) and of the Q_j (0 <= Q_j <= 2I, each E_j^* being
    unital).  The zero eigenvalues of the float states in the tests and
    benchmark round to below 1e-15 and their least nonzero ones are above
    1e-5 (1e-4 for the Q_j), far from the cut.  A cut too loose costs a
    stall, never a wrong `found`, as acceptance reads the full cones; one
    too tight leaves a cone whole.
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


def _hermitian(a: Array) -> Array:
    """The Hermitian S with real coordinates A = Re S + Im S (an isometry), on axes 0, 1."""
    return 0.5 * ((1 + 1j) * a + (1 - 1j) * np.swapaxes(a, 0, 1))


def _span_basis(spans: list[_Cone]) -> Array:
    """Orthonormal basis, in the coordinates of `_hermitian`, of the Hermitian S with
    T_j(W_j S W_j^dag) in face V_j's span, W_j (V_0 lifted) and V_j the `lift` and `face`
    of each `_face_search` cone in `spans`: the null space of the Gram of S -> (I - V_j
    V_j^dag) T_j(W_j S W_j^dag), contracted on each cone's factors.  Its eigenvalues lie
    in [0, 2 len(spans)]; at 2x2 to 3x3, k = 2 to 4, those of the null space are below
    6e-15, the others above 3e-4.
    """
    f = spans[0].lift.shape[1]
    real = np.zeros((f, f, f, f))
    for cone in spans:
        w = cone.lift.reshape(*cone.dims, f)
        perp = (np.eye(len(cone.face)) - cone.face @ cone.face.conj().T).reshape(cone.dims * 2)
        swap = cone.dims[0] < cone.dims[1]  # keep the smaller factor second
        if swap:
            w, perp = w.transpose(1, 0, 2), perp.transpose(1, 0, 3, 2)
        if (cone.which == "A") != swap:  # T_1 Y = (T_2 Y)^T has T_2's condition with conj(Q)
            perp = perp.conj()
        # t[p, P, q, Q] = tr(Y_pq^dag Q Y_PQ), Y_pq = T_2(w_p w_q^dag): Q contracted with
        # both copies of w over the first factor, through the smaller intermediate
        if min(cone.dims) ** 3 <= max(cone.dims) * f:
            left = np.tensordot(w.conj(), np.tensordot(perp, w, axes=(2, 0)),
                                axes=([0, 1], [0, 3]))
        else:
            left = np.tensordot(np.tensordot(w.conj(), w, axes=(1, 1)), perp,
                                axes=([0, 2], [0, 2])).transpose(0, 2, 3, 1)
        t = np.tensordot(left, np.tensordot(w, w.conj(), axes=(0, 0)), axes=([1, 2], [0, 2]))
        t = t.transpose(0, 2, 1, 3)  # rows (p, q); summed into twice its form on _hermitian
        real += t.real
        real += t.real.transpose(1, 0, 3, 2)
        real -= t.imag.transpose(1, 0, 2, 3)
        real += t.imag.transpose(0, 1, 3, 2)
        del t  # before the next cone's
    vals, vecs = np.linalg.eigh(real.reshape(f * f, f * f))
    return vecs[:, vals <= FACE_TOL]


def _face_search(rho: DensityMatrix, maps: _ExtensionMaps, cones: list[_Cone],
                 faces: list[Array | None]):
    """The search in face coordinates: (its cones, the projection onto its
    affine set, that set's point nearest 0, V_0), or None where X's face is
    whole or empty, the set-up exceeds FACE_MAX_ENTRIES, or the set misses rho,
    or () where the spans leave only S = 0, so that the set is empty.

    X = V_0 S V_0^dag, and R(S) = z^dag E(X) z holds all of E(X), on the range
    of rho (orthonormal basis z).  With P the projection onto the spans
    (`_span_basis`), S projects to y + P R^*(G^+ (z^dag rho z - R(y))), y =
    P(S), G = R P R^*: one real matrix on the spans' coordinates, or R and R^*
    in Kronecker form without proper PPT faces (P = I).  G^+ comes from the
    SVD of the R-factor of (R P)^*, singular values cut at FACE_TOL of the
    largest: on the mixtures of the tests (2x2 to 3x3, k = 2 to 12) the cut
    ones are below 1.2e-13 of it, the kept ones above 4.3e-7 (5.7e-7 against
    1.32 at rank 4, 3x3, k = 12, where a cut at FACE_TOL on G drops four).
    """
    v0, (vals, vecs) = faces[0], np.linalg.eigh(rho.mat)
    z = vecs[:, vals > FACE_TOL]
    f, r, (m, n, dsk) = 0 if v0 is None else v0.shape[1], z.shape[1], (rho.m, rho.n, maps.dsk)
    proper = any(face is not None for face in faces[1:])  # a PPT cone on a proper face
    if f == 0 or f * f * (r * r + f * f * proper) > FACE_MAX_ENTRIES:
        return None
    face_cones = [_Cone(v0 if c.lift is None else c.lift @ v0, c.dims, c.which, face)
                  for c, face in zip(cones[1:], faces[1:])]  # V_0 lifted once, for both uses
    spans = [cone for cone in face_cones if cone.face is not None]
    v0h, w0 = v0.conj().T, v0.reshape(dsk, n, f)
    half = np.tensordot(w0.conj(), maps.coeffs.reshape(m, m, dsk, dsk), axes=(0, 2))
    # rows (p, q) of R^*, z^dag E(V_0 |p><q| V_0^dag) z conjugated, in blocks of about r^4
    step = max(1, r * r // f)
    rows = (z.T @ np.tensordot(half[:, lo:lo + step], w0, axes=(4, 0))  # (b, p, i, j, d, q)
            .transpose(1, 5, 2, 0, 3, 4).reshape(-1, m * n, m * n) @ z.conj()
            for lo in range(0, f, step))
    if spans:
        basis = _span_basis(spans)
        if not basis.shape[1]:
            return ()
        # M^* = (R C B)^*, C the map of `_hermitian`, whose adjoint is conj(C(conj))
        rows = [basis.T @ _hermitian(np.concatenate(list(rows)).reshape(f, f, -1).conj()).conj()
                .reshape(f * f, -1)]
    tri = np.zeros((0, r * r))
    for block in rows:
        tri = np.linalg.qr(np.vstack([tri, block.reshape(len(block), -1)]), mode="r")
    _, sig, wh = np.linalg.svd(tri, full_matrices=False)
    keep = sig > FACE_TOL * sig.max(initial=0.0)
    u, sig = wh[keep].conj().T, sig[keep]
    if spans:  # explicit on the spans' coordinates, where M^+ M and M^+ rho are real
        zs = rows[0] @ u / sig  # the right singular vectors of M = R C B
        pi = basis @ (np.eye(basis.shape[1]) - (zs @ zs.conj().T).real) @ basis.T
        a0 = basis @ (zs @ ((u.conj().T @ (z.conj().T @ rho.mat @ z).ravel()) / sig)).real

    def project(s: Array) -> Array:
        if spans:
            return _hermitian((pi @ (s.real + s.imag).ravel() + a0).reshape(f, f))
        off = (z.conj().T @ (rho.mat - maps.reduce_one(v0 @ s @ v0h)) @ z).ravel()
        lam = z @ (u @ ((u.conj().T @ off) / sig ** 2)).reshape(r, r) @ z.conj().T
        return s + v0h @ maps.reduce_one_adjoint(lam) @ v0

    start = project(np.zeros((f, f), dtype=complex))
    if np.linalg.norm(maps.reduce_one(v0 @ start @ v0h) - rho.mat) > FACE_TOL:
        return None
    return [_Cone(), *face_cones], project, start, v0


def _npt_certificate(rho: DensityMatrix, gram: Array) -> ExtensionResult | None:
    """Infeasibility of every PPT extension when rho is NPT by `onesided.npt`.

    Any PPT extension has E(T_B X) = rho^Gamma with T_B X >= 0, and E maps
    PSD operators to PSD operators, so the affine and cone sets are at least
    dist_F(rho^Gamma, PSD) / ||E|| apart; ||E||^2 is the top eigenvalue of
    the Gram matrix of E.
    """
    vals = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.m, rho.n, "B"))
    if not npt(float(vals[0])):
        return None
    bound = float(np.linalg.norm(vals[vals < 0]) / math.sqrt(np.linalg.eigvalsh(gram)[-1]))
    return ExtensionResult(False, None, bound, 0)


def find_extension(prob: ExtensionProblem, max_iters: int = 20_000) -> ExtensionResult:
    """Douglas-Rachford feasibility search for a (PPT) Bose-symmetric extension.

    With PPT constraints, an NPT state is rejected at iteration 0 with a
    certified residual (see `_npt_certificate`).  Otherwise each iteration
    clips z onto the cones (c), projects 2c - z onto the affine set (a) and
    moves z by RELAXATION * (a - c), from the affine point nearest the
    origin, which is accepted at iteration 1 if feasible.  Else the search
    moves to face coordinates where `_face_search` allows (module
    docstring), or keeps every cone whole; `face_dims` gives the dimensions.
    Faces whose spans leave only X = 0 end it at iteration 0 (`empty_faces`).

    Success requires X of the affine iterate to have a marginal within
    FACE_TOL of rho (exact to rounding on whole cones) and every full cone
    image PSD within TOL, tested every 10th iteration and whenever the
    residual ||a - c|| falls below TOL, where it passes up to rounding: each
    c_j is PSD, so Weyl's inequality bounds lambda_min(a_j) below by -TOL,
    and a_j is the full image on its face.  So a face too small can cost a
    stall, never a wrong `found`.  If the budget runs out the last residual
    is reported with `budget_exhausted`; on infeasible problems it tends to
    the gap between the sets (on faces, at least the gap to the cones).  The
    residual of every 10th iteration is kept in `residuals`.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rho, maps = prob.rho, _ExtensionMaps(prob.rho.m, prob.rho.n, prob.k)
    cert = _npt_certificate(rho, maps.gram) if prob.ppt else None
    if cert is not None:
        return cert
    cones, gram_pinv, m, n = maps.cones(prob.ppt), np.linalg.pinv(maps.gram), rho.m, rho.n

    def nearest(g: Array) -> Array:
        """Nearest X to g with E(X) = rho."""
        lam = _unpaired(gram_pinv @ _paired(rho.mat - maps.reduce_one(g), m, n), m, n)
        return g + maps.reduce_one_adjoint(lam)

    start = nearest(np.zeros((maps.dim, maps.dim), dtype=complex))
    z = [cone.image(start) for cone in cones]
    spectra = [np.linalg.eigvalsh(hermitize(y)) for y in z]
    if min(v[0] for v in spectra) >= -TOL:
        # z is on the affine set, so this is the loop's test on its affine
        # iterate; the residual is the distance from z to the cones
        residual = math.sqrt(sum(float(np.sum(np.minimum(v, 0.0) ** 2)) for v in spectra))
        return ExtensionResult(True, hermitize(z[0]), residual, 1)
    search = _face_search(rho, maps, cones, _faces(rho, prob.k, prob.ppt))
    if search == ():
        return ExtensionResult(False, None, math.nan, 0, empty_faces=True)
    variables, nearest, start, v0 = search or (cones, nearest, start, None)  # v0: X's face
    z = [cone.image(start) for cone in variables]
    face_dims = tuple(y.shape[0] for y in z)
    history: list[float] = []
    for it in range(1, max_iters + 1):
        c = [_psd_clip(y) for y in z]
        # the images are isometric on the affine set, so the product-space
        # projection projects the average of their adjoints
        mean = sum(cone.adjoint(2.0 * ci - zi) for cone, ci, zi in zip(variables, c, z))
        x = nearest(mean / len(variables))
        a = [cone.image(x) for cone in variables]
        residual = math.sqrt(sum(float(np.linalg.norm(ai - ci)) ** 2 for ai, ci in zip(a, c)))
        if it % 10 == 0:
            history.append(residual)
        if it % 10 == 0 or residual < TOL:  # X and its full cone images
            x = x if v0 is None else v0 @ x @ v0.conj().T
            full = a if v0 is None else [cone.image(x) for cone in cones]
            if np.linalg.norm(maps.reduce_one(full[0]) - rho.mat) <= FACE_TOL and min(
                    np.linalg.eigvalsh(hermitize(y))[0] for y in full) >= -TOL:
                return ExtensionResult(True, hermitize(full[0]), residual, it,
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


def separability_scan(rho: DensityMatrix, delta: float, kmax: int | None = None, *,
                      stats: ScanStats | None = None) -> Verdict:
    """Search the Bose-symmetric extension hierarchy up to the trace-norm-delta depth.

    The depth kbar = ceil(4m/delta), capped at `kmax`, is reached over the
    depths 2, 4, 8, ... (module docstring), each searched without PPT cones
    within SCAN_ITERS iterations.  Entangled (exact=False) comes only from
    the NPT presolve, which rules out PPT extensions at every depth and so
    runs once, first, unless the bound is trivial; its value is the
    certified residual.  Then every depth's size guard is checked, before
    any iteration.  A search that runs out of iterations proves nothing and
    yields Unknown with the last residual as its value.  An extension at
    kbar certifies trace-norm delta-closeness to the separable set; one at
    a smaller cap yields Unknown.  `stats`, when given, records each depth's
    iterations and residuals, and the stop reason.
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
        stats.depths.append(DepthStats(prob.k, res.iterations, res.found, res.residual,
                                       res.residuals, res.face_dims))
        if not res.found:  # without PPT cones only the budget ends a search unfound
            stats.stop = "stalled"
            return Verdict(UNKNOWN, f"symext_stalled_k{prob.k}", False, res.residual)
    if top == kbar:
        stats.stop = "depth"
        return Verdict(SEPARABLE, f"symext_depth_k{kbar}", False, extension_gap(rho.m, kbar))
    stats.stop = "kmax"
    return Verdict(UNKNOWN, f"symext_kmax_k{top}", False, None)
