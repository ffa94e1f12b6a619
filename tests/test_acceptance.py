"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run plainly with `pytest tests/test_acceptance.py`; the summary lines are
emitted even under output capture.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    certificate_state,
    frobenius_sq,
    mat_sub,
    random_hermitian_unit,
    rational_separable_decomposition,
    rational_state_of,
    vec_norm_sq,
    verify_extension,
)
from sepscan import states
from sepscan.core import eig_hermitian, partial_transpose, to_bloch
from sepscan.gadgets import max_clique, motzkin_straus_value, random_graph, verify_chain
from sepscan.nets import build_net
from sepscan.onesided import ENTANGLED, SEPARABLE, ppt_test
from sepscan.qsep import (
    bits_required,
    error_bound_normalization_exact,
    error_bound_sigma_sq,
    reduce_wmem_to_qsep,
    truncate_decomposition,
    verify_certificate,
)
from sepscan.symext import (
    ExtensionProblem,
    copies_bound,
    find_extension,
    sym_dim,
)
from sepscan.witness import revalidate, wsep_solve
from sepscan.wopt import wopt_max


@pytest.fixture()
def announce(capsys):
    def emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)

    return emit


def test_acceptance_1_ppt_exactness(announce):
    started = time.time()
    flagged_separable = 0
    missed_entangled = 0
    count = 0
    for m, n in [(2, 2), (2, 3)]:
        for seed in range(50):
            rho = states.product_mixture(m, n, 6, seed)
            if ppt_test(rho).outcome == ENTANGLED:
                flagged_separable += 1
            count += 1
        for seed in range(50):
            rho = states.random_full_rank(m, n, seed + 10_000)
            lam = float(np.min(np.linalg.eigvalsh(partial_transpose(rho.mat, m, n, "B"))))
            verdict = ppt_test(rho)
            if lam < -1e-6 and verdict.outcome != ENTANGLED:
                missed_entangled += 1
            count += 1
    elapsed = time.time() - started
    ok = flagged_separable == 0 and missed_entangled == 0 and count == 200 and elapsed < 10.0
    announce(
        f"ACCEPTANCE 1 [{'PASS' if ok else 'FAIL'}] PPT exactness on {count} states: "
        f"{flagged_separable} false alarms, {missed_entangled} misses ({elapsed:.1f}s < 10s)"
    )
    assert flagged_separable == 0
    assert missed_entangled == 0
    assert elapsed < 10.0


def test_acceptance_2_witness_vs_ppt_oracle(announce):
    started = time.time()
    delta = 0.02
    net = build_net(2, delta / 10.0)
    finer = build_net(2, delta / 20.0)
    mistakes, revalidations = [], []
    for w in (0.05, 0.15, 0.25, 0.45, 0.6, 0.8, 0.95):
        rho = states.werner(w)
        res = wsep_solve(rho, delta, net)
        expected = ENTANGLED if w > 1.0 / 3.0 else SEPARABLE
        if res.verdict.outcome != expected:
            mistakes.append(w)
        if res.witness is not None:
            margin = revalidate(res.witness, rho, finer)
            revalidations.append(margin)
            if margin <= 0:
                mistakes.append(("revalidation", w, margin))
    elapsed = time.time() - started
    ok = not mistakes and elapsed < 600.0
    announce(
        f"ACCEPTANCE 2 [{'PASS' if ok else 'FAIL'}] witness search matches PPT on 7 "
        f"Werner points at delta={delta}; {len(revalidations)} witnesses revalidated "
        f"(min margin {min(revalidations):.4f}) ({elapsed:.1f}s < 600s)"
    )
    assert not mistakes
    assert elapsed < 600.0


def test_acceptance_3_wopt_two_delta_guarantee(announce):
    started = time.time()
    coarse_net = build_net(2, 0.4)
    fine_net = build_net(2, 0.1)
    worst_gap = 0.0
    worst_violation = -np.inf
    cases = 0
    for m, n in [(2, 2), (2, 3)]:
        for seed in range(25):
            a = random_hermitian_unit(m * n, seed + 137 * n)
            coarse = wopt_max(a, m, n, coarse_net).value
            fine = wopt_max(a, m, n, fine_net).value
            worst_gap = max(worst_gap, fine - coarse)
            worst_violation = max(worst_violation, coarse - fine)
            cases += 1
    elapsed = time.time() - started
    ok = cases == 50 and worst_gap <= 0.8 and worst_violation <= 1e-8 and elapsed < 300.0
    announce(
        f"ACCEPTANCE 3 [{'PASS' if ok else 'FAIL'}] 2-delta guarantee on {cases} operators: "
        f"max refinement gap {worst_gap:.3f} <= 0.8, max monotonicity violation "
        f"{worst_violation:.2e} <= 1e-8 ({elapsed:.1f}s < 300s)"
    )
    assert worst_gap <= 0.8
    assert worst_violation <= 1e-8
    assert elapsed < 300.0


def test_acceptance_4_extension_bound_arithmetic(announce):
    started = time.time()
    checks = [
        copies_bound(2, 0.5) == 16,
        copies_bound(3, 0.1) == 120,
        sym_dim(2, 2) == 3,
    ]
    for m in range(1, 5):
        for k in range(1, 7):
            checks.append(sym_dim(m, k) == math.comb(m + k - 1, k))
    elapsed = time.time() - started
    ok = all(checks)
    announce(
        f"ACCEPTANCE 4 [{'PASS' if ok else 'FAIL'}] extension-depth arithmetic: "
        f"{sum(checks)}/{len(checks)} exact matches ({elapsed:.2f}s)"
    )
    assert all(checks)


def test_acceptance_5_symmetric_extension_behavior(announce):
    started = time.time()
    bell_res = find_extension(ExtensionProblem(states.bell(), 2, ppt=False), max_iters=2000)
    bell_ok = (not bell_res.found) and bell_res.residual > 1e-3
    worst_residual = 0.0
    found_all = True
    targets = [states.maximally_mixed(2, 2)] + [
        states.product_mixture(2, 2, 20, seed) for seed in (0, 5, 6)
    ]
    for rho in targets:
        for k in (2, 3, 4):
            prob = ExtensionProblem(rho, k, ppt=True)
            res = find_extension(prob)
            if not res.found:
                found_all = False
                continue
            worst_residual = max(worst_residual, max(verify_extension(res, prob).values()))
    elapsed = time.time() - started
    ok = bell_ok and found_all and worst_residual < 1e-6 and elapsed < 300.0
    announce(
        f"ACCEPTANCE 5 [{'PASS' if ok else 'FAIL'}] extensions: Bell residual "
        f"{bell_res.residual:.2e} > 1e-3, four separable states extended at k=2..4 "
        f"with worst property residual {worst_residual:.2e} < 1e-6 ({elapsed:.1f}s < 300s)"
    )
    assert bell_ok
    assert found_all
    assert worst_residual < 1e-6
    assert elapsed < 300.0


def test_acceptance_6_certificate_propositions(announce):
    started = time.time()
    cases = 0
    accepted = 0
    bound_violations = 0
    for m, n in [(2, 2), (2, 3)]:
        for seed in range(25):
            decomp = rational_separable_decomposition(m, n, 5, seed=seed)
            rho = rational_state_of(decomp, m, n)
            for p in (12, 16, 20):
                cert = truncate_decomposition(decomp, p, m, n)
                sigma = certificate_state(cert)
                dist_sq = frobenius_sq(mat_sub(rho, sigma))
                if not dist_sq < error_bound_sigma_sq(m, n, p):
                    bound_violations += 1
                total = sum(t[0] for t in cert.terms)
                worst = Fraction(0)
                for w, alpha, beta in cert.terms:
                    if w == 0:
                        continue
                    worst = max(worst, abs(1 - vec_norm_sq(alpha) * vec_norm_sq(beta) * total))
                if not worst < error_bound_normalization_exact(m, n, p):
                    bound_violations += 1
            inst = reduce_wmem_to_qsep(rho, m, n, Fraction(1, 4))
            cert = truncate_decomposition(decomp, bits_required(inst.delta_p), m, n)
            if verify_certificate(inst, cert).accepted:
                accepted += 1
            cases += 1
    elapsed = time.time() - started
    ok = cases == 50 and accepted == 50 and bound_violations == 0 and elapsed < 120.0
    announce(
        f"ACCEPTANCE 6 [{'PASS' if ok else 'FAIL'}] exact certificates: {accepted}/{cases} "
        f"accepted, {bound_violations} bound violations over p in (12,16,20) "
        f"({elapsed:.1f}s < 120s)"
    )
    assert accepted == cases == 50
    assert bound_violations == 0
    assert elapsed < 120.0


def test_acceptance_7_clique_chain(announce):
    started = time.time()
    grid_failures = 0
    graphs = 0
    for seed in range(100):
        g = random_graph(3 + seed % 3, 0.5, seed)
        rep = motzkin_straus_value(g)
        graphs += 1
        if abs(rep.grid_max - rep.value) > 0.02:
            grid_failures += 1
    chain_failures = 0
    pairs = 0
    for seed in range(12):
        g = random_graph(3 + seed % 3, 0.6, seed + 500)
        kappa = max_clique(g)
        for c in range(2, g.n + 1):
            rep = verify_chain(g, c, seed=seed)
            pairs += 1
            if not rep.consistent:
                chain_failures += 1
            if pairs >= 30:
                break
        if pairs >= 30:
            break
    elapsed = time.time() - started
    ok = grid_failures == 0 and chain_failures == 0 and pairs >= 30 and elapsed < 300.0
    announce(
        f"ACCEPTANCE 7 [{'PASS' if ok else 'FAIL'}] clique chain: grid max within 0.02 on "
        f"{graphs} graphs ({grid_failures} failures), {pairs} (graph, c) pairs consistent "
        f"({chain_failures} failures) ({elapsed:.1f}s < 300s)"
    )
    assert grid_failures == 0
    assert chain_failures == 0
    assert elapsed < 300.0


def test_acceptance_8_core_numerics(announce):
    started = time.time()
    rng = np.random.default_rng(8)
    worst_isometry = 0.0
    for m, n in [(2, 2), (2, 3)]:
        for _ in range(50):
            g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
            x = 0.5 * (g + g.conj().T)
            g = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
            y = 0.5 * (g + g.conj().T)
            lhs = float(np.trace(x @ y).real)
            rhs = float(
                to_bloch(x, m, n) @ to_bloch(y, m, n)
                + np.trace(x).real * np.trace(y).real / (m * n)
            )
            worst_isometry = max(worst_isometry, abs(lhs - rhs))
    worst_recon = 0.0  # power sums sum(lambda^k) against tr(h^k), k = 1..3, over ||h||^k
    for i in range(100):
        d = int(rng.integers(2, 37))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        vals = eig_hermitian(h)
        for k in (1, 2, 3):
            tr_k = np.trace(np.linalg.matrix_power(h, k)).real
            defect = abs(float(np.sum(vals**k)) - tr_k) / np.linalg.norm(h) ** k
            worst_recon = max(worst_recon, defect / d)
    elapsed = time.time() - started
    ok = worst_isometry <= 1e-8 and worst_recon <= 1e-8
    announce(
        f"ACCEPTANCE 8 [{'PASS' if ok else 'FAIL'}] core numerics: isometry defect "
        f"{worst_isometry:.2e} <= 1e-8 on 100 pairs, eigenvalue power-sum defect/d "
        f"{worst_recon:.2e} <= 1e-8 on 100 matrices ({elapsed:.1f}s)"
    )
    assert worst_isometry <= 1e-8
    assert worst_recon <= 1e-8
