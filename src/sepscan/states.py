"""Generators for the states the test-suite and CLI exercise."""

from __future__ import annotations

import numpy as np

from .core import Array, DensityMatrix, DimensionGuardError, ket, proj

MAX_DIM = 512  # largest mn of a library state: a 4 MiB matrix
PARAMS = {"bell": "which", "werner": "w", "maxmixed": "m n", "product_mixture": "m n terms seed",
          "random_full_rank": "m n seed", "pure_product": "m n seed"}  # what each state takes


def maximally_mixed(m: int, n: int) -> DensityMatrix:
    d = m * n
    return DensityMatrix(m, n, np.eye(d, dtype=complex) / d)


def bell(which: str = "phi+") -> DensityMatrix:
    """One of the four maximally entangled two-qubit states."""
    z0, z1 = ket(0, 2), ket(1, 2)
    pairs = {
        "phi+": np.kron(z0, z0) + np.kron(z1, z1),
        "phi-": np.kron(z0, z0) - np.kron(z1, z1),
        "psi+": np.kron(z0, z1) + np.kron(z1, z0),
        "psi-": np.kron(z0, z1) - np.kron(z1, z0),
    }
    if which not in pairs:
        raise ValueError(f"unknown Bell state {which!r}")
    return DensityMatrix(2, 2, proj(pairs[which] / np.sqrt(2)))


def werner(w: float) -> DensityMatrix:
    """w |psi-><psi-| + (1-w) I/4; entangled exactly when w > 1/3."""
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    mat = w * bell("psi-").mat + (1.0 - w) * np.eye(4) / 4.0
    return DensityMatrix(2, 2, mat)


def random_unit_vector(d: int, rng: np.random.Generator) -> Array:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_pure_product(m: int, n: int, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    a = random_unit_vector(m, rng)
    b = random_unit_vector(n, rng)
    return DensityMatrix(m, n, np.kron(proj(a), proj(b)))


def product_mixture(m: int, n: int, terms: int, seed: int) -> DensityMatrix:
    """Explicit convex mixture of pure product states; separable by construction."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(terms))
    mat = np.zeros((m * n, m * n), dtype=complex)
    for i in range(terms):
        a = random_unit_vector(m, rng)
        b = random_unit_vector(n, rng)
        mat += p[i] * np.kron(proj(a), proj(b))
    return DensityMatrix(m, n, mat)


def random_full_rank(m: int, n: int, seed: int) -> DensityMatrix:
    """Hilbert-Schmidt random density matrix (full rank almost surely)."""
    rng = np.random.default_rng(seed)
    d = m * n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return DensityMatrix(m, n, mat / mat.trace().real)


def _at_least_one(params: dict, key: str, default: int) -> int:
    value = int(params.get(key, default))
    if value < 1:
        raise ValueError(f"{key} must be >= 1, got {value}")
    return value


def library(name: str, **params) -> DensityMatrix:
    """Named state lookup used by the CLI; deterministic given seed."""
    if name not in PARAMS:
        raise ValueError(f"unknown state name {name!r}")
    unknown = sorted(params.keys() - set(PARAMS[name].split()))
    if unknown:
        raise ValueError(f"{name} takes no parameter {unknown[0]!r}, only: {PARAMS[name]}")
    if name == "bell":
        return bell(str(params.get("which", "phi+")))
    if name == "werner":
        if "w" not in params:
            raise ValueError("werner needs the parameter w")
        return werner(float(params["w"]))
    m, n = _at_least_one(params, "m", 2), _at_least_one(params, "n", 2)
    if m * n > MAX_DIM:
        raise DimensionGuardError(f"state dimension {m * n} exceeds limit {MAX_DIM}")
    if name == "maxmixed":
        return maximally_mixed(m, n)
    seed = int(params.get("seed", 0))
    if name == "product_mixture":
        return product_mixture(m, n, _at_least_one(params, "terms", 4), seed)
    if name == "random_full_rank":
        return random_full_rank(m, n, seed)
    return random_pure_product(m, n, seed)
