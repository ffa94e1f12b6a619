"""Output checks computed apart from sepscan: numpy, fractions and networkx only.

Each check returns a list of problems (empty when the output passes), so
the workloads can count them and the tests can plant wrong outputs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial, prod

import networkx as nx
import numpy as np

from inputs import min_pt_eig, partial_transpose

ENTANGLED = "Entangled"
SEPARABLE = "SeparableAssured"
UNKNOWN = "Unknown"
EXIT_CODES = {SEPARABLE: 0, ENTANGLED: 1, UNKNOWN: 2}
PPT_TOL = 1e-9
EXT_TOL = 1e-6


# product-state sampling ------------------------------------------------------


def product_values(a: np.ndarray, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """<alpha beta| A |alpha beta> for each row pair."""
    v = (alphas[:, :, None] * betas[:, None, :]).reshape(alphas.shape[0], -1)
    return np.einsum("ki,ij,kj->k", v.conj(), a, v).real


def _ascend(a4: np.ndarray, alpha: np.ndarray, steps: int) -> float:
    """Alternating top-eigenvector ascent from alpha; returns the final value."""
    val = -np.inf
    for _ in range(steps):
        bx = np.einsum("a,ajbl,b->jl", alpha.conj(), a4, alpha)
        w, vecs = np.linalg.eigh(bx)
        beta = vecs[:, -1]
        cy = np.einsum("j,ajbl,l->ab", beta.conj(), a4, beta)
        w, vecs = np.linalg.eigh(cy)
        alpha = vecs[:, -1]
        if w[-1] - val < 1e-13:
            return float(w[-1])
        val = w[-1]
    return float(val)


def product_sample_max(a: np.ndarray, m: int, n: int, rng: np.random.Generator,
                       count: int = 2048, ascents: int = 6) -> float:
    """Best <alpha beta|A|alpha beta> over random product states, the best few
    refined by alternating ascent.  A lower bound on the product maximum."""
    al = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    be = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    al /= np.linalg.norm(al, axis=1, keepdims=True)
    be /= np.linalg.norm(be, axis=1, keepdims=True)
    vals = product_values(a, al, be)
    best = float(vals.max())
    a4 = a.reshape(m, n, m, n)
    for i in np.argsort(vals)[-ascents:]:
        best = max(best, _ascend(a4, al[i], 60))
    return best


# witness -------------------------------------------------------------------


def check_witness(rho: np.ndarray, m: int, n: int, delta: float, outcome: str,
                  operator: np.ndarray | None, sample_max) -> list[str]:
    """Entangled needs an NPT state and a W that beats every sampled product
    state; SeparableAssured needs |lambda_min(rho^Gamma)| <= delta.

    sample_max(W) gives the product-state sample maximum of W.
    """
    lo = min_pt_eig(rho, m, n)
    if outcome == ENTANGLED:
        if lo >= -PPT_TOL:
            return [f"Entangled on a PPT state (lambda_min(PT) = {lo:.3e})"]
        if operator is None:
            return ["Entangled without a witness operator"]
        inside = float(np.trace(operator @ rho).real)
        best = sample_max(operator)
        if not inside > best:
            return [f"witness does not separate: tr(W rho) = {inside:.6f}"
                    f" <= product max {best:.6f}"]
        return []
    if outcome == SEPARABLE:
        if -lo > delta:
            return [f"SeparableAssured with lambda_min(PT) = {lo:.3e} beyond delta {delta}"]
        return []
    return [f"unexpected witness outcome {outcome!r}"]


# oracle --------------------------------------------------------------------


def check_wopt(a: np.ndarray, m: int, n: int, mode: str, value: float, alpha: np.ndarray,
               beta: np.ndarray, guarantee: float, sample_best: float) -> list[str]:
    """Value recomputes at the maximizer, stays below the spectrum, and is
    within the guarantee of the sampled product maximum."""
    out = []
    for name, v in (("alpha", alpha), ("beta", beta)):
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            out.append(f"maximizer {name} is not a unit vector")
    at = float(product_values(a, alpha[None, :], beta[None, :])[0])
    if mode == "abs":
        at = abs(at)
    if abs(at - value) > 1e-9:
        out.append(f"value {value:.12f} differs from <ab|A|ab> = {at:.12f}")
    eigs = np.linalg.eigvalsh(a)
    top = float(np.max(np.abs(eigs))) if mode == "abs" else float(eigs[-1])
    if value > top + 1e-9:
        out.append(f"value {value:.12f} above the spectral bound {top:.12f}")
    if value + guarantee < sample_best - 1e-12:
        out.append(f"value {value:.9f} + guarantee {guarantee} below sampled max {sample_best:.9f}")
    return out


def check_refinement(coarse: float, fine: float) -> list[str]:
    if fine < coarse - 1e-8:
        return [f"finer net value {fine:.12f} below coarser {coarse:.12f}"]
    return []


# symmetric extension ---------------------------------------------------------


@lru_cache(maxsize=None)
def sym_isometry(m: int, k: int) -> np.ndarray:
    """Columns: normalized Bose-symmetric states in combinations_with_replacement order."""
    combos = list(combinations_with_replacement(range(m), k))
    iso = np.zeros((m**k, len(combos)))
    for col, combo in enumerate(combos):
        occ = [combo.count(i) for i in range(m)]
        weight = 1.0 / np.sqrt(factorial(k) / prod(factorial(c) for c in occ))
        for perm in set(permutations(combo)):
            iso[int(np.ravel_multi_index(perm, (m,) * k)), col] = weight
    iso.setflags(write=False)
    return iso


def check_extension(x: np.ndarray, rho: np.ndarray, m: int, n: int, k: int) -> list[str]:
    """Embed into (C^m)^(x k) (x) C^n; check the marginal, PSD and the PPT
    conditions (transpose of B, and of the first l = 1..k-1 copies)."""
    iso = sym_isometry(m, k)
    if x.shape != (iso.shape[1] * n,) * 2:
        return [f"extension shape {x.shape} does not match Sym_{k}(C^{m}) x C^{n}"]
    v = np.kron(iso, np.eye(n))
    y = v @ x @ v.T
    y = 0.5 * (y + y.conj().T)
    r = m ** (k - 1)
    marg = np.einsum("arbcrd->abcd", y.reshape(m, r, n, m, r, n)).reshape(m * n, m * n)
    out = []
    err = float(np.max(np.abs(marg - rho)))
    if err > EXT_TOL:
        out.append(f"one-copy marginal differs from rho by {err:.3e}")
    big = m**k
    cones = [("extension", y), ("partial transpose B", partial_transpose(y, big, n))]
    for l in range(1, k):
        dl, rest = m**l, m ** (k - l) * n
        t = y.reshape(dl, rest, dl, rest).transpose(2, 1, 0, 3).reshape(big * n, big * n)
        cones.append((f"partial transpose A{l}", t))
    for tag, t in cones:
        lo = float(np.linalg.eigvalsh(t)[0])
        if lo < -EXT_TOL:
            out.append(f"{tag} has eigenvalue {lo:.3e}")
    return out


def check_extension_verdict(found: bool, npt: bool) -> list[str]:
    if found and npt:
        return ["NPT state was extended"]
    return []


def check_scan_of_separable(outcome: str) -> list[str]:
    if outcome == ENTANGLED:
        return ["separable state called Entangled by the extension scan"]
    return []


# screen --------------------------------------------------------------------


def check_test_report(code: int, outcome: str, rho: np.ndarray, m: int, n: int,
                      family: str) -> list[str]:
    """Exit status, exact PPT at mn <= 6, and the families' known answers."""
    out = []
    if EXIT_CODES.get(outcome) != code:
        out.append(f"exit status {code} does not match verdict {outcome}")
    npt = min_pt_eig(rho, m, n) < -PPT_TOL
    if m * n <= 6:
        want = ENTANGLED if npt else SEPARABLE
        if outcome != want:
            out.append(f"verdict {outcome} differs from exact PPT ({want})")
    if family == "product_mixture" and outcome == ENTANGLED:
        out.append("product mixture called Entangled")
    if npt and outcome == SEPARABLE:
        out.append("NPT state called SeparableAssured")
    return out


def check_certificate(accepted: bool, distance: float, delta_prime: float,
                      matched: bool) -> list[str]:
    """Truncated exact decompositions verify; a state farther than delta' is rejected."""
    if matched and not accepted:
        return ["certificate truncated from an exact decomposition was rejected"]
    if distance > delta_prime * (1 + 1e-9) and accepted:
        return [f"certificate at float distance {distance:.4f} > delta' {delta_prime:.4f} accepted"]
    return []


def clique_number(n: int, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return max((len(c) for c in nx.find_cliques(g)), default=0)


def check_chain(n: int, edges, c: int, decided_yes: bool) -> list[str]:
    kappa = clique_number(n, edges)
    if decided_yes != (kappa >= c):
        return [f"chain decided {decided_yes} for kappa {kappa} >= {c}"]
    return []
