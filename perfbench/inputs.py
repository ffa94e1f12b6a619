"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and `fractions`: the program under test
receives only the matrices, files and graphs these functions produce, so
a change to sepscan's own state library cannot change the inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Independent stream per (workload, seed)."""
    key = sum(ord(c) * 131**i for i, c in enumerate(workload)) % 2**32
    return np.random.default_rng([seed, key])


def unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def product_mixture(rng: np.random.Generator, m: int, n: int, terms: int) -> np.ndarray:
    """Dirichlet-weighted mixture of random pure product states (separable)."""
    p = rng.dirichlet(np.ones(terms))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for i in range(terms):
        a = unit_vector(rng, m)
        b = unit_vector(rng, n)
        mat += p[i] * np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
    return mat


def fault_state() -> np.ndarray:
    """The 2x2 four-term product mixture drawn from default_rng(0).

    Separable by construction; the symmetric-extension scan at delta 1.0,
    kmax 3 calls it Entangled (residual 1.097e-3 against the 1e-3
    threshold).  It does not depend on the workload seed.
    """
    return product_mixture(np.random.default_rng(0), 2, 2, 4)


def werner(w: float) -> np.ndarray:
    """w |psi-><psi-| + (1-w) I/4; entangled exactly when w > 1/3."""
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return w * np.outer(psi, psi.conj()) + (1.0 - w) * np.eye(4) / 4.0


def bell() -> np.ndarray:
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(phi, phi.conj())


def maximally_mixed(m: int, n: int) -> np.ndarray:
    return np.eye(m * n, dtype=complex) / (m * n)


def random_full_rank(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Hilbert-Schmidt random density matrix."""
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def partial_transpose(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    return mat.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)


def min_pt_eig(mat: np.ndarray, m: int, n: int) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(mat, m, n))[0])


def npt_full_rank(rng: np.random.Generator, m: int, n: int, weight: float,
                  floor: float) -> np.ndarray:
    """Full-rank state weight*|psi><psi| + (1-weight)*sigma with lambda_min(PT) < -floor."""
    while True:
        psi = unit_vector(rng, m * n)
        mat = weight * np.outer(psi, psi.conj()) + (1.0 - weight) * random_full_rank(rng, m, n)
        if min_pt_eig(mat, m, n) < -floor:
            return mat


def random_hermitian_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return h / np.linalg.norm(h)


def random_graph(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]


# exact-rational separable decompositions -----------------------------------


def rational_unit_vector(rng: np.random.Generator, m: int, q: int = 7):
    """Exactly unit vector of C^m, as (re, im) pairs, by inverse stereographic projection."""
    t = [Fraction(int(rng.integers(-q, q + 1)), int(rng.integers(1, q + 1)))
         for _ in range(2 * m - 1)]
    norm_sq = sum(x * x for x in t)
    coords = [(1 - norm_sq) / (1 + norm_sq)] + [2 * x / (1 + norm_sq) for x in t]
    return tuple((coords[2 * i], coords[2 * i + 1]) for i in range(m))


def rational_decomposition(rng: np.random.Generator, m: int, n: int, terms: int):
    """[(weight, alpha, beta)] with exact rationals; weights sum to exactly 1."""
    raw = [int(rng.integers(1, 50)) for _ in range(terms)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    return [(w, rational_unit_vector(rng, m), rational_unit_vector(rng, n)) for w in weights]


def _outer(v):
    """v v^dagger for v a tuple of (re, im) Fractions."""
    return [[(a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]) for b in v] for a in v]


def rational_state(decomp, m: int, n: int):
    """Exact density matrix sum_i w_i |alpha_i beta_i><alpha_i beta_i| as (re, im) Fractions."""
    d = m * n
    acc = [[[Fraction(0), Fraction(0)] for _ in range(d)] for _ in range(d)]
    for w, alpha, beta in decomp:
        oa, ob = _outer(alpha), _outer(beta)
        for i in range(m):
            for k in range(n):
                for j in range(m):
                    for l in range(n):
                        x, y = oa[i][j], ob[k][l]
                        cell = acc[i * n + k][j * n + l]
                        cell[0] += w * (x[0] * y[0] - x[1] * y[1])
                        cell[1] += w * (x[0] * y[1] + x[1] * y[0])
    return [[(c[0], c[1]) for c in row] for row in acc]


def rational_to_float(mat) -> np.ndarray:
    return np.array([[float(re) + 1j * float(im) for re, im in row] for row in mat])


def fraction_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def complex_json(re: Fraction, im: Fraction) -> dict:
    return {"re": fraction_json(re), "im": fraction_json(im)}


def rational_state_json(mat, m: int, n: int) -> dict:
    return {
        "m": m,
        "n": n,
        "rational": True,
        "matrix": [[complex_json(re, im) for re, im in row] for row in mat],
    }


def density_json(mat: np.ndarray, m: int, n: int) -> dict:
    return {
        "m": m,
        "n": n,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in mat],
    }
