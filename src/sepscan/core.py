"""Dense complex-Hermitian linear algebra and the Bloch-space isometry.

Operators on C^M (x) C^N are plain complex numpy arrays; density matrices
carry their bipartition in a small dataclass.  An orthonormal Hermitian
basis (normalized generalized Gell-Mann matrices, tensored A-major) maps
traceless Hermitian operators isometrically onto real Euclidean vectors,
which is the coordinate system every optimization module works in.  The
tensored basis is never built: the maps apply one local factor on each
side of the realigned operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Array = np.ndarray

# Input checks of DensityMatrix.make; HERMITICITY_TOL scales with the dimension.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands do not share the bipartition / basis they need to."""


class DimensionGuardError(ValueError):
    """Problem size exceeds the configured limits."""


def dagger(x: Array) -> Array:
    return x.conj().T


def hermitize(x: Array) -> Array:
    """The Hermitian part (X + X†)/2."""
    x = np.asarray(x, dtype=complex)
    return 0.5 * (x + dagger(x))


def is_hermitian(x: Array, tol: float | None = None) -> bool:
    x = np.asarray(x, dtype=complex)
    tol = HERMITICITY_TOL * x.shape[0] if tol is None else tol
    return bool(np.linalg.norm(x - dagger(x)) <= tol)


def ket(i: int, d: int) -> Array:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def proj(v: Array) -> Array:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on C^m (x) C^n."""

    m: int
    n: int
    mat: Array

    @property
    def dim(self) -> int:
        return self.m * self.n

    @staticmethod
    def make(m: int, n: int, mat: Array) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (m * n, m * n):
            raise DimensionMismatchError(
                f"expected a {m * n}x{m * n} matrix for an {m}x{n} system, got {mat.shape}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix has non-finite entries")
        if not is_hermitian(mat):
            raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL} x {m * n}")
        h = hermitize(mat)
        tr = h.trace().real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(h)[0])
        if lo < -PSD_TOL:
            raise ValueError(f"minimum eigenvalue {lo} below -{PSD_TOL}")
        return DensityMatrix(m, n, h)


def _su_generators(d: int) -> Array:
    """Unit-HS-norm Hermitian basis of C^{d x d}.

    Fixed order: index 0 is I/sqrt(d); then for pairs j<k in lexicographic
    order the symmetric elements (E_jk + E_kj)/sqrt(2); then the
    antisymmetric elements -i(E_jk - E_kj)/sqrt(2) in the same pair order;
    then the d-1 diagonal elements diag(1,..,1,-l,0,..)/sqrt(l(l+1)).
    Bloch coordinates depend on this order, verdicts do not.
    """
    out = [np.eye(d, dtype=complex) / np.sqrt(d)]
    sym, asym = [], []
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = e[k, j] = 1.0 / np.sqrt(2.0)
            sym.append(e)
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1j / np.sqrt(2.0)
            a[k, j] = 1j / np.sqrt(2.0)
            asym.append(a)
    out.extend(sym)
    out.extend(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        out.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    return np.stack(out)


@lru_cache(maxsize=None)
def _local_basis(d: int) -> Array:
    """(d^2, d^2) unitary whose row a is the generator X_a flattened row-major."""
    basis = _su_generators(d).reshape(d * d, d * d)
    basis.setflags(write=False)
    return basis


def to_bloch(a: Array, m: int, n: int) -> Array:
    """Coordinates tr((X_a (x) Y_b) a), A-index major, all but the identity's.

    With l the flattened generators, tr((X (x) Y) a) = l(X) . R . l(Y),
    R the realignment of a, so the coordinates are L_m R L_n^T.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (m * n, m * n):
        raise DimensionMismatchError(f"operator shape {a.shape} does not match {m}x{n}")
    return (_local_basis(m) @ realign(a, m, n) @ _local_basis(n).T).real.ravel()[1:]


def from_bloch(coords: Array, m: int, n: int) -> Array:
    """The traceless Hermitian operator with the given Bloch coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (m * m * n * n - 1,):
        raise DimensionMismatchError(f"coordinate shape {coords.shape} does not match {m}x{n}")
    c = np.concatenate(([0.0], coords)).reshape(m * m, n * n)
    r = _local_basis(m).conj().T @ c @ _local_basis(n).conj()
    # undo `realign`: r[j*m+i, l*n+k] is a[i*n+k, j*n+l]
    return r.reshape(m, m, n, n).transpose(1, 3, 0, 2).reshape(m * n, m * n)


def partial_transpose(mat: Array, m: int, n: int, which: str = "B") -> Array:
    """Transpose one tensor factor; an involution, and T_A = global-T of T_B."""
    t = np.asarray(mat, dtype=complex).reshape(m, n, m, n)
    if which == "A":
        out = t.transpose(2, 1, 0, 3)
    elif which == "B":
        out = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    return out.reshape(m * n, m * n)


def realign(mat: Array, m: int, n: int) -> Array:
    """Rearrange an operator on C^m (x) C^n into an m^2 x n^2 matrix.

    With v the column-stacking map, the output of a product operator
    A (x) B is the rank-one matrix v(A) v(B)^T.
    """
    t = np.asarray(mat, dtype=complex).reshape(m, n, m, n)
    # rho[i*n+k, j*n+l] lands at row j*m+i, column l*n+k
    return t.transpose(2, 0, 3, 1).reshape(m * m, n * n)


def eig_hermitian(h: Array) -> Array:
    """Eigenvalues of a Hermitian matrix by LAPACK (`eigvalsh`), nonincreasing.

    Rejects non-square and non-finite input, and input further than
    1e-8 * d from Hermitian in Frobenius norm; the spectrum is that of
    the Hermitian part.
    """
    a = np.asarray(h, dtype=complex)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError(f"square matrix required, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not is_hermitian(a, 1e-8 * max(d, 1)):
        raise ValueError("input is not Hermitian within tolerance")
    return np.linalg.eigvalsh(hermitize(a))[::-1]


def lambda_min(h: Array) -> float:
    return float(eig_hermitian(h)[-1])


def trace_norm(x: Array) -> float:
    """Sum of singular values (LAPACK SVD, no vectors)."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False).sum())
