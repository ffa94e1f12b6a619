"""Tests of the benchmark itself: its checks must flag planted wrong outputs,
and every workload must pass a smoke run at its smallest size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from sepscan import core, nets, qsep, symext, wopt  # noqa: E402


def rng(seed=0):
    return np.random.default_rng(seed)


# planted wrong outputs -----------------------------------------------------


class TestFlippedVerdicts:
    def test_witness_entangled_on_separable_state(self):
        rho = inputs.product_mixture(rng(), 2, 2, 4)
        w = inputs.random_hermitian_unit(rng(1), 4)
        problems = checks.check_witness(rho, 2, 2, 0.3, checks.ENTANGLED, w, lambda _: 0.0)
        assert problems and "PPT state" in problems[0]

    def test_witness_separable_on_strongly_npt_state(self):
        problems = checks.check_witness(inputs.bell(), 2, 2, 0.3, checks.SEPARABLE, None, None)
        assert problems and "beyond delta" in problems[0]

    def test_witness_that_does_not_separate(self):
        rho = inputs.bell()
        vals, vecs = np.linalg.eigh(inputs.partial_transpose(rho, 2, 2))
        v = vecs[:, 0]  # negative eigenvector of rho^Gamma
        good = -inputs.partial_transpose(np.outer(v, v.conj()), 2, 2)
        good -= np.trace(good) / 4 * np.eye(4)
        good /= np.linalg.norm(good)

        def sample_max(op):
            return checks.product_sample_max(op, 2, 2, rng(2))

        assert checks.check_witness(rho, 2, 2, 0.3, checks.ENTANGLED, good, sample_max) == []
        problems = checks.check_witness(rho, 2, 2, 0.3, checks.ENTANGLED, -good, sample_max)
        assert problems and "does not separate" in problems[0]

    @pytest.mark.parametrize("outcome,code", [("SeparableAssured", 0), ("Unknown", 2)])
    def test_screen_bell_not_entangled(self, outcome, code):
        problems = checks.check_test_report(code, outcome, inputs.bell(), 2, 2, "bell")
        assert any("exact PPT" in p for p in problems)

    def test_screen_product_mixture_entangled(self):
        rho = inputs.product_mixture(rng(), 3, 3, 9)
        problems = checks.check_test_report(1, "Entangled", rho, 3, 3, "product_mixture")
        assert problems == ["product mixture called Entangled"]

    def test_screen_exit_status_mismatch(self):
        problems = checks.check_test_report(0, "Entangled", inputs.bell(), 2, 2, "bell")
        assert any("exit status" in p for p in problems)

    def test_screen_correct_reports_pass(self):
        assert checks.check_test_report(1, "Entangled", inputs.bell(), 2, 2, "bell") == []
        werner = inputs.werner(0.2)
        assert checks.check_test_report(0, "SeparableAssured", werner, 2, 2, "werner") == []

    def test_scan_and_extension_verdicts(self):
        assert checks.check_scan_of_separable(checks.ENTANGLED)
        assert checks.check_scan_of_separable(checks.UNKNOWN) == []
        assert checks.check_extension_verdict(True, npt=True)
        assert checks.check_extension_verdict(False, npt=True) == []


class TestTamperedExtension:
    @pytest.fixture(scope="class")
    def found(self):
        rho = core.DensityMatrix.make(2, 2, inputs.werner(0.25))
        res = symext.find_extension(symext.ExtensionProblem(rho, 3, ppt=True), max_iters=200)
        assert res.found
        return rho, np.array(res.operator)

    def test_real_extension_passes(self, found):
        rho, x = found
        assert checks.check_extension(x, rho.mat, 2, 2, 3) == []

    def test_shifted_marginal_flagged(self, found):
        rho, x = found
        bad = x.copy()
        bad[0, 1] += 1e-3
        bad[1, 0] += 1e-3
        assert any("marginal" in p for p in checks.check_extension(bad, rho.mat, 2, 2, 3))

    def test_negative_eigenvalue_flagged(self, found):
        rho, x = found
        vals, vecs = np.linalg.eigh(x)
        vals[0] = -1e-3
        bad = (vecs * vals) @ vecs.conj().T
        problems = checks.check_extension(bad, rho.mat, 2, 2, 3)
        assert any("eigenvalue" in p for p in problems)

    def test_isometry_is_orthonormal(self):
        for m, k in [(2, 3), (3, 4)]:
            iso = checks.sym_isometry(m, k)
            assert np.allclose(iso.T @ iso, np.eye(iso.shape[1]))


class TestCertificates:
    @pytest.fixture(scope="class")
    def pair(self):
        g = rng(5)
        decs = [inputs.rational_decomposition(g, 2, 2, 4) for _ in range(2)]
        exact = [inputs.rational_state(d, 2, 2) for d in decs]
        to_q = [[(w, tuple(qsep.QRat(*z) for z in a), tuple(qsep.QRat(*z) for z in b))
                 for w, a, b in d] for d in decs]
        qmats = [tuple(tuple(qsep.QRat(*z) for z in row) for row in e) for e in exact]
        insts = [qsep.reduce_wmem_to_qsep(q, 2, 2, Fraction(1, 16)) for q in qmats]
        p = qsep.bits_required(insts[0].delta_p)
        cert = qsep.truncate_decomposition(to_q[0], p, 2, 2)
        return cert, insts, [inputs.rational_to_float(e) for e in exact]

    def test_matched_certificate_accepted(self, pair):
        cert, insts, floats = pair
        res = qsep.verify_certificate(insts[0], cert)
        dist = float(np.linalg.norm(floats[0] - _float_state(cert)))
        assert checks.check_certificate(res.accepted, dist, float(insts[0].delta_prime), True) == []

    def test_certificate_paired_with_another_state(self, pair):
        cert, insts, floats = pair
        dist = float(np.linalg.norm(floats[1] - _float_state(cert)))
        delta_prime = float(insts[1].delta_prime)
        assert dist > delta_prime
        res = qsep.verify_certificate(insts[1], cert)
        assert checks.check_certificate(res.accepted, dist, delta_prime, False) == []
        planted = checks.check_certificate(True, dist, delta_prime, False)
        assert planted and "accepted" in planted[0]

    def test_rejected_matched_certificate_flagged(self):
        assert checks.check_certificate(False, 0.0, 0.1, True)


class TestOracle:
    @pytest.fixture(scope="class")
    def result(self):
        a = inputs.random_hermitian_unit(rng(7), 4)
        net = nets.build_net(2, 0.2)
        res = wopt.wopt_max(a, 2, 2, net)
        best = checks.product_sample_max(a, 2, 2, rng(8))
        return a, res, best

    def test_real_value_passes(self, result):
        a, res, best = result
        assert checks.check_wopt(a, 2, 2, "signed", res.value, res.maximizer.alpha,
                                 res.maximizer.beta, res.guarantee, best) == []

    def test_value_moved_beyond_guarantee(self, result):
        a, res, best = result
        moved = res.value - res.guarantee - 1e-3
        problems = checks.check_wopt(a, 2, 2, "signed", moved, res.maximizer.alpha,
                                     res.maximizer.beta, res.guarantee, best)
        assert any("differs from" in p for p in problems)
        assert any("below sampled max" in p for p in problems)

    def test_value_above_spectrum(self, result):
        a, res, best = result
        top = float(np.linalg.eigvalsh(a)[-1])
        problems = checks.check_wopt(a, 2, 2, "signed", top + 1e-3, res.maximizer.alpha,
                                     res.maximizer.beta, res.guarantee, best)
        assert any("spectral bound" in p for p in problems)

    def test_refinement(self):
        assert checks.check_refinement(0.5, 0.5 - 1e-6)
        assert checks.check_refinement(0.5, 0.5 - 1e-9) == []


def test_chain_uses_networkx_clique_number():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    assert checks.clique_number(4, edges) == 3
    assert checks.check_chain(4, edges, 3, True) == []
    assert checks.check_chain(4, edges, 4, True)
    assert checks.clique_number(3, []) == 1


def test_fault_state_is_separable_and_seed_free():
    rho = inputs.fault_state()
    assert np.array_equal(rho, inputs.fault_state())
    assert inputs.min_pt_eig(rho, 2, 2) > 0


def _float_state(cert) -> np.ndarray:
    d = cert.m * cert.n
    out = np.zeros((d, d), dtype=complex)
    for w, a, b in cert.terms:
        va = np.array([float(z.re) + 1j * float(z.im) for z in a])
        vb = np.array([float(z.re) + 1j * float(z.im) for z in b])
        out += float(w) * np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    return out


# smoke runs ------------------------------------------------------------------


def bench(*argv, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["witness", "oracle", "symext", "screen"])
def test_smoke_run(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # symext's extension scan on the seed-free fault state is the one expected failure
    details = json.loads((BENCH / "out" / f"result-{workload}-seed3-trace0.json").read_text())
    rounds = sum(details["rounds"])
    assert result["failed"] == (rounds if workload == "symext" else 0)
    assert result["attempted"] % rounds == 0


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "screen", "--seed", "3", "--seconds", "1", "--trace", "1",
                 "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["cli.calls"]["value"] > 0
    assert result["metrics"]["core.eig_calls"]["value"] > 0


def test_wrappers_are_removed_after_a_traced_run():
    import importlib

    import spans

    modules = {name: importlib.import_module(f"sepscan.{name}") for name, _, _, _ in spans.WRAPS}
    before = {(m, a): getattr(modules[m], a) for m, a, _, _ in spans.WRAPS}
    with spans.Tracer().installed(modules):
        assert all(getattr(modules[m], a) is not fn for (m, a), fn in before.items())
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "witness", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs():
    a = inputs.rng_for("witness", 4)
    b = inputs.rng_for("witness", 4)
    assert np.array_equal(inputs.random_full_rank(a, 2, 3), inputs.random_full_rank(b, 2, 3))
    c = inputs.rng_for("oracle", 4)
    assert not np.array_equal(inputs.random_full_rank(inputs.rng_for("witness", 4), 2, 3),
                              inputs.random_full_rank(c, 2, 3))

