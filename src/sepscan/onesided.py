"""Efficient one-sided separability tests and the pipeline combining them.

Sufficient tests (success proves separability): the two balls around the
maximally mixed state and, for m = 2, invariance under partial
transposition.  Necessary tests (violation proves entanglement): PPT,
two-sided when mn <= 6, and CCNR.  The reduction, majorization and
entropic criteria are not run: PPT implies reduction (M. & P. Horodecki,
PRA 59, 4206), reduction implies majorization (Hiroshima, PRL 91, 057902)
and majorization implies the entropic inequalities (Schur concavity), so
once PPT passes none of them can fire.  The tests keep them as the
reference for that chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, lambda_min, partial_transpose, realign, trace_norm

ENTANGLED = "Entangled"
SEPARABLE = "SeparableAssured"
UNKNOWN = "Unknown"

EIG_TOL = 1e-9
NORM_TOL = 1e-8


@dataclass(frozen=True)
class Verdict:
    outcome: str
    reason: str
    exact: bool
    detail: float | None = None


def ppt_test(rho: DensityMatrix) -> Verdict:
    """Negative eigenvalue of rho^{T_B} proves entanglement; two-sided for mn <= 6."""
    lo = lambda_min(partial_transpose(rho.mat, rho.m, rho.n, "B"))
    if lo < -EIG_TOL:
        return Verdict(ENTANGLED, "ppt", True, lo)
    if rho.m * rho.n <= 6:
        return Verdict(SEPARABLE, "ppt", True, lo)
    return Verdict(UNKNOWN, "ppt", False, lo)


def ccnr_test(rho: DensityMatrix) -> Verdict:
    """Trace norm of the realigned matrix above 1 proves entanglement."""
    val = trace_norm(realign(rho.mat, rho.m, rho.n))
    if val > 1.0 + NORM_TOL:
        return Verdict(ENTANGLED, "ccnr", True, val)
    return Verdict(UNKNOWN, "ccnr", False, val)


def frobenius_ball_test(rho: DensityMatrix) -> Verdict:
    """tr(rho - I/mn)^2 <= 1/(mn(mn-1)) guarantees separability (any radius at mn = 1)."""
    d = rho.dim
    delta = rho.mat - np.eye(d) / d
    val = float(np.trace(delta @ delta).real)
    if d == 1 or val <= 1.0 / (d * (d - 1)):
        return Verdict(SEPARABLE, "frobenius_ball", True, val)
    return Verdict(UNKNOWN, "frobenius_ball", False, val)


def lambda_min_ball_test(rho: DensityMatrix) -> Verdict:
    """lambda_min(rho) >= 1/(2 + mn) guarantees separability."""
    d = rho.dim
    lo = lambda_min(rho.mat)
    if lo >= 1.0 / (2.0 + d):
        return Verdict(SEPARABLE, "lambda_min_ball", True, lo)
    return Verdict(UNKNOWN, "lambda_min_ball", False, lo)


def two_by_n_pt_test(rho: DensityMatrix) -> Verdict:
    """For m = 2, invariance under partial transposition guarantees separability.

    Partial transposition only permutes entries, so the verdict is exact
    only when the matrix equals its partial transpose bit for bit; a
    difference within NORM_TOL still passes, as not exact.
    """
    if rho.m != 2:
        raise ValueError("test applies only to m = 2")
    diff = float(np.linalg.norm(rho.mat - partial_transpose(rho.mat, 2, rho.n, "A")))
    if diff <= NORM_TOL:
        return Verdict(SEPARABLE, "two_by_n_pt", diff == 0.0, diff)
    return Verdict(UNKNOWN, "two_by_n_pt", False, diff)


def pipeline(rho: DensityMatrix, stats: list[Verdict] | None = None) -> Verdict:
    """Run the tests in fixed order; first decisive answer wins.

    Cheap sufficient tests go first so separable verdicts never lean on
    PPT exactness when a ball test already fires.  `stats`, when given,
    receives the verdict of every test run, in order.
    """
    stats = [] if stats is None else stats
    tests = [frobenius_ball_test, lambda_min_ball_test, ppt_test]
    if rho.m == 2:
        tests.append(two_by_n_pt_test)
    tests.append(ccnr_test)
    for test in tests:
        verdict = test(rho)
        stats.append(verdict)
        if verdict.outcome != UNKNOWN:
            return verdict
    return Verdict(UNKNOWN, "pipeline", False, None)
