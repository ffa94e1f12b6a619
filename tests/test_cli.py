import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    graph_to_json,
    random_hermitian_unit,
    rational_matrix_to_json,
    rational_separable_decomposition,
    rational_state_of,
)
import sepscan
from sepscan import cli, states, symext
from sepscan.cli import build_parser, main
from sepscan.qsep import bits_required, reduce_wmem_to_qsep, truncate_decomposition
from sepscan.serialize import (
    density_from_json,
    density_to_json,
    dump_json,
    matrix_from_json,
    matrix_to_json,
    qsep_certificate_from_json,
    qsep_certificate_to_json,
    qsep_instance_from_json,
    qsep_instance_to_json,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def bell_path(tmp_path):
    path = tmp_path / "bell.json"
    dump_json(density_to_json(states.bell()), path)
    return str(path)


@pytest.fixture()
def maxmixed_path(tmp_path):
    path = tmp_path / "maxmixed22.json"
    dump_json(density_to_json(states.maximally_mixed(2, 2)), path)
    return str(path)


class TestSerialization:
    def test_density_round_trip(self):
        rho = states.werner(0.37)
        again = density_from_json(density_to_json(rho))
        np.testing.assert_allclose(again.mat, rho.mat, atol=1e-12)
        assert (again.m, again.n) == (2, 2)

    def test_matrix_decoding_matches_complex_per_cell(self):
        rng = np.random.default_rng(3)
        cells = rng.standard_normal((5, 5, 2)).tolist()
        cells[0][0], cells[0][1], cells[1][0] = [-0.0, -0.0], [3, -0.0], [0.0, 1e-310]
        cells[2][2] = [True, -7]
        reference = np.array([[complex(c[0], c[1]) for c in row] for row in cells])
        decoded = matrix_from_json(json.loads(json.dumps(cells)))
        assert decoded.dtype == complex and decoded.shape == (5, 5)
        assert decoded.tobytes() == reference.tobytes()  # bit for bit, signed zeros included

    def test_rational_round_trip(self):
        decomp = rational_separable_decomposition(2, 2, 4, seed=13)
        rho = rational_state_of(decomp, 2, 2)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 2))
        again = qsep_instance_from_json(json.loads(json.dumps(qsep_instance_to_json(inst))))
        assert again.rho == inst.rho
        assert again.delta_p == inst.delta_p

    def test_certificate_round_trip(self):
        decomp = rational_separable_decomposition(2, 2, 4, seed=14)
        inst = reduce_wmem_to_qsep(rational_state_of(decomp, 2, 2), 2, 2, Fraction(1, 2))
        cert = truncate_decomposition(decomp, bits_required(inst.delta_p), 2, 2)
        again = qsep_certificate_from_json(
            json.loads(json.dumps(qsep_certificate_to_json(cert))), inst
        )
        assert again == cert


class TestTestCommand:
    def test_bell_exits_entangled(self, capsys, bell_path):
        code, report = run_cli(capsys, "test", "--input", bell_path)
        assert code == 1
        assert report["verdict"]["reason"] == "ppt"
        assert report["verdict"]["exact"] is True
        tests = report["stats"]["tests"]
        assert [t["reason"] for t in tests] == ["frobenius_ball", "lambda_min_ball", "ppt"]
        assert tests[-1] == report["verdict"]
        assert report["config"] == {"command": "test", "input": bell_path,
                                    "version": report["config"]["version"]}

    def test_maxmixed_exits_separable(self, capsys, maxmixed_path):
        code, report = run_cli(capsys, "test", "--input", maxmixed_path)
        assert code == 0
        assert report["verdict"]["reason"] == "frobenius_ball"

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, report = run_cli(capsys, "test", "--input", str(tmp_path / "nope.json"))
        assert code == 64
        assert report["kind"] == "input"

    def test_malformed_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        dump_json({"m": 2, "n": 2, "matrix": [[1, 2], [3]]}, path)
        code, report = run_cli(capsys, "test", "--input", str(path))
        assert code == 64

    @pytest.mark.parametrize("cell", [["0.25", 0], [None, 0], [0.25], [0.25, 0, 0],
                                      {"re": 0.25, "im": 0}, [[0.25], 0], [10**30, 0]],
                             ids=["string", "null", "short", "long", "object", "nested",
                                  "beyond_int64"])
    def test_non_numeric_cell_is_input_error(self, capsys, tmp_path, cell):
        cells = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        cells[0][0] = cell
        path = tmp_path / "cell.json"
        dump_json({"m": 2, "n": 2, "matrix": cells}, path)
        code, report = run_cli(capsys, "test", "--input", str(path))
        assert code == 64
        assert report["kind"] == "input"
        assert "bad matrix encoding" in report["error"]

    def test_integer_and_boolean_cells_are_numbers(self, capsys, tmp_path):
        cells = [[[1 if i == j == 0 else 0, False] for j in range(4)] for i in range(4)]
        path = tmp_path / "pure.json"
        dump_json({"m": 2, "n": 2, "matrix": cells}, path)
        code, report = run_cli(capsys, "test", "--input", str(path))
        assert code == 0 and report["verdict"]["outcome"] == "SeparableAssured"

    def test_nan_entry_is_input_error(self, capsys, tmp_path):
        # a bare NaN token, as Python's json module reads and writes it
        cells = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        cells[0][1] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "matrix": cells}))
        assert "NaN" in path.read_text()
        code, report = run_cli(capsys, "test", "--input", str(path))
        assert code == 64
        assert report["kind"] == "input"
        assert "non-finite entries" in report["error"]

    def test_non_hermitian_matrix_is_input_error(self, capsys, tmp_path):
        # ||A - A^dagger||_F = 0.28: hermitizing it would hide a malformed input
        path = tmp_path / "skew.json"
        dump_json({"m": 2, "n": 1, "matrix": [[[0.5, 0], [0.1, 0]], [[0.3, 0], [0.5, 0]]]}, path)
        code, report = run_cli(capsys, "test", "--input", str(path))
        assert code == 64
        assert report["kind"] == "input"
        assert "not Hermitian" in report["error"]


class TestWitnessCommand:
    def test_werner_entangled_with_witness_artifact(self, capsys, tmp_path):
        rho_path = tmp_path / "werner09.json"
        dump_json(density_to_json(states.werner(0.9)), rho_path)
        out_path = tmp_path / "witness.json"
        code, report = run_cli(
            capsys,
            "witness",
            "--input",
            str(rho_path),
            "--delta",
            "0.05",
            "--witness-out",
            str(out_path),
        )
        assert code == 1
        assert report["witness"]["margin"] > 0
        emitted = json.loads(out_path.read_text())
        assert max(abs(x) for x in emitted["bloch_sup_normalized"]) == pytest.approx(1.0)

    def test_stats_report_stop_reason(self, capsys, tmp_path, bell_path, maxmixed_path):
        code, report = run_cli(capsys, "witness", "--input", bell_path, "--delta", "0.3")
        assert code == 1
        assert report["stats"]["stop"] == "witness"
        assert report["stats"]["ldp_steps"] == 0  # detected before any cut
        assert report["stats"]["unconverged_centerings"] == 0
        assert report["stats"]["oracle_evaluated"] == report["config"]["net_size"]
        # the four computational product states hold I/4: the primal starts there,
        # at distance 0, and is certified before any oracle call
        code, report = run_cli(capsys, "witness", "--input", maxmixed_path, "--delta", "0.3")
        assert (code, report["verdict"]["reason"], report["verdict"]["exact"]) == (
            0, "closeness_certificate", True)
        assert report["verdict"]["detail"] == 0.0 and report["stats"]["primal_distance"] == 0.0
        assert report["stats"]["stop"] == "certificate" and report["iterations"] == 0
        assert report["stats"]["certificate_checks"] == 1 and report["stats"]["ldp_steps"] == 0
        assert report["stats"]["oracle_evaluated"] == 0 and report["stats"]["primal_solves"] == 0
        # a pure product state is 0.72 from its diagonal, and the first maximizer is the
        # state itself: certified before any cut, as soon as the primal is within delta' = 1/4
        path = tmp_path / "product22.json"
        dump_json(density_to_json(states.random_pure_product(2, 2, 0)), path)
        code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", "0.3")
        assert (code, report["verdict"]["reason"], report["verdict"]["exact"]) == (
            0, "closeness_certificate", True)
        assert report["verdict"]["detail"] < 0.25 and report["stats"]["primal_distance"] < 0.25
        assert report["stats"]["stop"] == "certificate" and report["iterations"] == 1
        assert report["stats"]["certificate_checks"] == 1 and report["stats"]["ldp_steps"] == 0
        assert report["stats"]["oracle_evaluated"] == report["config"]["net_size"]
        # a 2x3 mixture cuts four times first
        path = tmp_path / "mixture23.json"
        dump_json(density_to_json(states.product_mixture(2, 3, 24, 3)), path)
        code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", "0.1")
        assert report["verdict"]["outcome"] == "SeparableAssured"
        assert report["stats"]["stop"] == "certificate" and report["iterations"] == 5
        assert report["stats"]["newton_steps"] > report["iterations"]
        assert 0 < report["stats"]["ldp_steps"] <= 2 * (report["iterations"] - 1)
        # from the diagonal start, each maximizer enters the corral in one affine solve
        assert report["stats"]["primal_solves"] == report["iterations"]
        assert 0 < report["stats"]["primal_distance"] < report["verdict"]["detail"] + 1e-5

    def test_certificate_artifacts_pass_qsep_verify(self, capsys, tmp_path):
        path = tmp_path / "mixture24.json"
        dump_json(density_to_json(states.product_mixture(2, 4, 16, 0)), path)
        cert_path, inst_path = tmp_path / "cert.json", tmp_path / "inst.json"
        code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", "0.5",
                               "--cert-out", str(cert_path), "--instance-out", str(inst_path))
        assert (code, report["stats"]["stop"]) == (0, "certificate")
        assert report["artifacts"] == {"certificate": str(cert_path), "instance": str(inst_path)}
        verify = ("qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path))
        code, verified = run_cli(capsys, *verify)
        assert (code, verified["result"]["accepted"]) == (0, True)
        obj = json.loads(cert_path.read_text())
        weight = max((t["weight"] for t in obj["terms"]),
                     key=lambda w: Fraction(int(w["num"]), int(w["den"])))
        weight["num"] = "0"  # the heaviest term dropped
        dump_json(obj, cert_path)
        code, verified = run_cli(capsys, *verify)
        assert (code, verified["result"]["accepted"]) == (2, False)

    def test_no_certificate_artifacts_on_another_stop(self, capsys, tmp_path, bell_path):
        cert_path, inst_path = tmp_path / "cert.json", tmp_path / "inst.json"
        code, report = run_cli(capsys, "witness", "--input", bell_path, "--delta", "0.3",
                               "--cert-out", str(cert_path), "--instance-out", str(inst_path))
        assert (code, report["stats"]["stop"]) == (1, "witness")
        assert "artifacts" not in report
        assert not cert_path.exists() and not inst_path.exists()

    def test_separable_search_does_not_import_scipy_optimize(self, tmp_path):
        # the cut cones and the primal are solved in numpy: a search ending on
        # its certificate, and the same state's cuts run on to an empty region
        # (the certificate only HiGHS could give before), leave scipy.optimize out
        path = tmp_path / "mixture23.json"
        dump_json(density_to_json(states.product_mixture(2, 3, 8, 3)), path)
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from conftest import cutting_plane_search; from sepscan import cli, nets, states; "
            f"cli.main(['witness', '--input', {str(path)!r}, '--delta', '0.3']); "
            "rho, net = states.product_mixture(2, 3, 8, 3), nets.build_net(2, 0.03); "
            "print(cutting_plane_search(rho, 0.3, net)[0]); "
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, check=True)
        report, cuts_stop, loaded = proc.stdout.splitlines()
        assert json.loads(report)["verdict"]["outcome"] == "SeparableAssured"
        assert json.loads(report)["stats"]["stop"] == "certificate"
        assert cuts_stop == "region_empty"
        assert loaded == "False"

    def test_default_m2_net_is_band(self, capsys, tmp_path):
        path = tmp_path / "werner02.json"
        dump_json(density_to_json(states.werner(0.2)), path)
        code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", "0.5")
        assert code == 0
        assert report["verdict"]["outcome"] == "SeparableAssured"
        assert report["config"]["net_method"] == "band"
        assert report["config"]["net_size"] == 2120

    def test_3x2_state_scans_the_smaller_side(self, capsys, tmp_path):
        path = tmp_path / "mixture32.json"
        dump_json(density_to_json(states.product_mixture(3, 2, 12, 0)), path)
        for delta in ("0.3", "0.5", "1.0"):
            code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", delta)
            assert code == 0
            assert report["verdict"]["outcome"] == "SeparableAssured"
            assert report["config"]["net_method"] == "band"  # the m = 2 net
            if delta != "0.3":  # within delta' of its diagonal: no net scan
                assert report["iterations"] == 0
                assert report["stats"]["oracle_evaluated"] == report["stats"]["oracle_bounded"] == 0
                continue
            assert report["iterations"] == 2
            scanned = report["iterations"] * report["config"]["net_size"]
            assert 0 < report["stats"]["oracle_evaluated"] < scanned  # C^3 is conditioned out
            assert 0 < report["stats"]["oracle_bounded"] < scanned

    def test_net_is_a_tenth_of_delta(self, capsys, bell_path):
        code, report = run_cli(capsys, "witness", "--input", bell_path, "--delta", "0.5")
        assert code == 1 and report["config"]["net_delta"] == 0.05


class TestSymextCommand:
    def test_bell_flagged(self, capsys, bell_path):
        code, report = run_cli(
            capsys, "symext", "--input", bell_path, "--delta", "0.5"
        )
        assert code == 1
        assert report["verdict"]["reason"].startswith("symext_infeasible")

    def test_maxmixed_separable(self, capsys, maxmixed_path):
        code, report = run_cli(
            capsys, "symext", "--input", maxmixed_path, "--delta", "2.0"
        )
        assert code == 0

    def test_separable_3x2_fails_the_size_guard_before_iterating(self, capsys, tmp_path):
        # depth bound 24 at delta 0.5: a guard fires before any Douglas-Rachford step
        path = tmp_path / "mixture32.json"
        dump_json(density_to_json(states.product_mixture(3, 2, 12, 0)), path)
        started = time.perf_counter()
        code, report = run_cli(capsys, "symext", "--input", str(path), "--delta", "0.5")
        assert code == 65
        assert report["kind"] == "infeasible"
        assert time.perf_counter() - started < 10.0

    def test_npt_3x2_state_is_entangled_at_fine_delta(self, capsys, tmp_path):
        # the NPT presolve runs before the guards, which fire at this depth bound (120)
        v = np.zeros(6, dtype=complex)
        v[[0, 5]] = 1.0 / np.sqrt(2.0)
        rho = 0.8 * np.outer(v, v.conj()) + 0.2 * np.eye(6) / 6.0
        path = tmp_path / "ent32.json"
        dump_json({"m": 3, "n": 2, "matrix": matrix_to_json(rho)}, path)
        code, report = run_cli(capsys, "symext", "--input", str(path), "--delta", "0.1")
        assert code == 1
        assert report["verdict"]["reason"] == "symext_infeasible_k2"

    def test_config_carries_no_solver_settings(self, capsys, maxmixed_path):
        code, report = run_cli(capsys, "symext", "--input", maxmixed_path, "--delta", "2.0")
        assert code == 0
        assert set(report["config"]) == {"command", "input", "delta", "version"}

    @pytest.mark.parametrize("delta", ["inf", "1e400", "nan"])
    def test_non_finite_delta_is_input_error(self, capsys, maxmixed_path, delta):
        code, report = run_cli(capsys, "symext", "--input", maxmixed_path, "--delta", delta)
        assert code == 64
        assert report["kind"] == "input" and "delta" in report["error"]


class TestWoptCommand:
    def test_reports_value_and_guarantee(self, capsys, tmp_path):
        op = {"m": 2, "n": 2, "matrix": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                                          [[0, 0], [-1, 0], [0, 0], [0, 0]],
                                          [[0, 0], [0, 0], [-1, 0], [0, 0]],
                                          [[0, 0], [0, 0], [0, 0], [1, 0]]]}
        path = tmp_path / "zz.json"
        dump_json(op, path)
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.2")
        assert code == 0
        assert report["value"] == pytest.approx(1.0, abs=2 * 0.2 * 2.0)
        assert report["guarantee"] == pytest.approx(2 * 0.2 * 2.0)
        assert report["stats"]["scanned"] == report["config"]["net_size"]
        assert report["stats"]["evaluated"] == report["stats"]["scanned"]  # n = 2: closed form
        assert report["stats"]["bounded"] == report["stats"]["scanned"]

    def test_reports_pruned_scan(self, capsys, tmp_path):
        a = random_hermitian_unit(6, 0)
        path = tmp_path / "a23.json"
        dump_json({"m": 2, "n": 3, "matrix": matrix_to_json(a)}, path)
        # the band net at 0.02 has 15,630 points, more than the 11,552 of the grid at 0.4
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.02")
        assert code == 0
        assert 0 < report["stats"]["evaluated"] < report["stats"]["scanned"]
        assert 0 < report["stats"]["bounded"] < report["stats"]["scanned"]

    def test_3x2_operator_scans_the_smaller_side(self, capsys, tmp_path):
        a = random_hermitian_unit(6, 4)
        path = tmp_path / "a32.json"
        dump_json({"m": 3, "n": 2, "matrix": matrix_to_json(a)}, path)
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.1")
        assert code == 0
        assert report["stats"]["scanned"] == report["config"]["net_size"] < 1000  # m = 2 net
        assert len(report["maximizer"]["alpha"]) == 3 and len(report["maximizer"]["beta"]) == 2

    def test_non_hermitian_operator_is_input_error(self, capsys, tmp_path):
        e01 = np.zeros((4, 4))
        e01[0, 1] = 1.0
        path = tmp_path / "e01.json"
        dump_json({"m": 2, "n": 2, "matrix": matrix_to_json(e01)}, path)
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.2")
        assert code == 64
        assert report["kind"] == "input"
        assert "Hermitian" in report["error"]

    def test_operator_without_n_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "no_n.json"
        dump_json({"m": 2, "matrix": matrix_to_json(np.eye(4))}, path)
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.2")
        assert code == 64
        assert report["kind"] == "input"
        assert "must carry m and n" in report["error"]

    def test_operator_without_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "no_matrix.json"
        dump_json({"m": 2, "n": 2}, path)
        code, report = run_cli(capsys, "wopt", "--op", str(path), "--delta", "0.2")
        assert code == 64
        assert report["kind"] == "input"
        assert "matrix" in report["error"]


class TestQsepCommands:
    def test_reduce_then_verify_round_trip(self, capsys, tmp_path):
        decomp = rational_separable_decomposition(2, 2, 5, seed=21)
        rho = rational_state_of(decomp, 2, 2)
        rho_path = tmp_path / "rho.rational.json"
        dump_json(
            {"m": 2, "n": 2, "rational": True, "matrix": rational_matrix_to_json(rho)},
            rho_path,
        )
        inst_path = tmp_path / "inst.json"
        code, report = run_cli(
            capsys, "qsep-reduce", "--input", str(rho_path), "--delta", "1/2",
            "--out", str(inst_path),
        )
        assert code == 0
        p = report["bits"]
        cert = truncate_decomposition(decomp, p, 2, 2)
        cert_path = tmp_path / "cert.json"
        dump_json(qsep_certificate_to_json(cert), cert_path)
        code, report = run_cli(
            capsys, "qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path)
        )
        assert code == 0
        assert report["result"]["accepted"] is True

    def test_bogus_certificate_rejected(self, capsys, tmp_path):
        decomp = rational_separable_decomposition(2, 2, 5, seed=22)
        rho = rational_state_of(decomp, 2, 2)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 4))
        inst_path = tmp_path / "inst.json"
        dump_json(qsep_instance_to_json(inst), inst_path)
        p = bits_required(inst.delta_p)
        other = rational_separable_decomposition(2, 2, 5, seed=99)
        cert_path = tmp_path / "cert.json"
        dump_json(qsep_certificate_to_json(truncate_decomposition(other, p, 2, 2)), cert_path)
        code, report = run_cli(
            capsys, "qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path)
        )
        assert code == 2
        assert report["result"]["accepted"] is False


class TestZeroDenominator:
    """A rational scalar with denominator 0 is malformed input (exit 64), never a verdict."""

    @staticmethod
    def rational_state(tmp_path, den):
        scalar = {"re": {"num": "1", "den": den}, "im": {"num": "0", "den": "1"}}
        path = tmp_path / "one.rational.json"
        dump_json({"m": 1, "n": 1, "rational": True, "matrix": [[scalar]]}, path)
        return str(path)

    def assert_input_error(self, capsys, *argv):
        code, report = run_cli(capsys, *argv)
        assert code == 64
        assert report["kind"] == "input"
        return report

    def test_qsep_reduce_input(self, capsys, tmp_path):
        path = self.rational_state(tmp_path, "0")
        report = self.assert_input_error(capsys, "qsep-reduce", "--input", path, "--delta", "1/2")
        assert report["error"].startswith("bad rational scalar")  # not the fields, all present

    def test_test_command_input(self, capsys, tmp_path):
        self.assert_input_error(capsys, "test", "--input", self.rational_state(tmp_path, "0"))

    def test_qsep_verify_certificate(self, capsys, tmp_path):
        decomp = rational_separable_decomposition(2, 2, 5, seed=21)
        inst = reduce_wmem_to_qsep(rational_state_of(decomp, 2, 2), 2, 2, Fraction(1, 2))
        inst_path = tmp_path / "inst.json"
        dump_json(qsep_instance_to_json(inst), inst_path)
        cert = qsep_certificate_to_json(
            truncate_decomposition(decomp, bits_required(inst.delta_p), 2, 2)
        )
        cert["terms"][0]["weight"]["den"] = "0"
        cert_path = tmp_path / "cert.json"
        dump_json(cert, cert_path)
        self.assert_input_error(
            capsys, "qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path)
        )

    def test_qsep_reduce_delta(self, capsys, tmp_path):
        path = self.rational_state(tmp_path, "1")
        assert run_cli(capsys, "qsep-reduce", "--input", path, "--delta", "1/2")[0] == 0
        self.assert_input_error(capsys, "qsep-reduce", "--input", path, "--delta", "1/0")


class TestPathErrors:
    """A path that cannot be read or written is malformed input (exit 64), never a verdict."""

    def test_directory_as_input(self, capsys, tmp_path):
        code, report = run_cli(capsys, "test", "--input", str(tmp_path))
        assert (code, report["kind"]) == (64, "input")
        assert report["error"].startswith("cannot read")

    def test_state_out_in_missing_directory(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        code, report = run_cli(capsys, "state", "--name", "bell", "--out", out)
        assert (code, report["kind"]) == (64, "input")
        assert report["error"].startswith("cannot write")

    def test_witness_cert_out_in_missing_directory(self, capsys, tmp_path, maxmixed_path):
        out = str(tmp_path / "missing" / "c.json")
        code, report = run_cli(capsys, "witness", "--input", maxmixed_path, "--delta", "0.5",
                               "--cert-out", out)
        assert (code, report["kind"]) == (64, "input")


class TestOneByOneState:
    """The only 1x1 state is a product state: every decider says SeparableAssured."""

    @pytest.fixture()
    def path(self, capsys, tmp_path):
        out = str(tmp_path / "one.json")
        assert run_cli(capsys, "state", "--name", "maxmixed", "--param", "m=1", "--param", "n=1",
                       "--out", out)[0] == 0
        return out

    def test_test_command(self, capsys, path):
        code, report = run_cli(capsys, "test", "--input", path)
        assert (code, report["verdict"]["outcome"]) == (0, "SeparableAssured")

    def test_witness_certificate_verifies(self, capsys, tmp_path, path):
        cert, inst = str(tmp_path / "c.json"), str(tmp_path / "i.json")
        code, report = run_cli(capsys, "witness", "--input", path, "--delta", "0.5",
                               "--cert-out", cert, "--instance-out", inst)
        assert (code, report["verdict"]["outcome"], report["stats"]["stop"]) == (
            0, "SeparableAssured", "certificate")
        code, report = run_cli(capsys, "qsep-verify", "--instance", inst, "--cert", cert)
        assert (code, report["result"]["accepted"]) == (0, True)


class TestGadgetCommand:
    @pytest.mark.parametrize("edge", [[0, 1.5], [2, 1.0], [True, False]])
    def test_non_integer_vertex_is_input_error(self, capsys, tmp_path, edge):
        path = tmp_path / "g.json"
        dump_json({"n": 3, "edges": [edge]}, path)
        code, report = run_cli(capsys, "gadget", "--graph", str(path), "--clique", "2")
        assert (code, report["kind"]) == (64, "input")
        assert "bad edge" in report["error"]

    def test_triangle_chain(self, capsys, tmp_path):
        from sepscan.gadgets import Graph

        path = tmp_path / "k3.json"
        dump_json(graph_to_json(Graph.complete(3)), path)
        code, report = run_cli(
            capsys, "gadget", "--graph", str(path), "--clique", "3"
        )
        assert code == 0
        assert report["chain"]["consistent"] is True
        assert report["chain"]["decided_yes"] is True
        assert set(report["config"]) == {"command", "graph", "clique", "seed", "version"}

    def test_reports_the_ascent_under_stats(self, capsys, tmp_path):
        from sepscan.gadgets import RSDF_ITERS, Graph

        path = tmp_path / "path4.json"
        dump_json(graph_to_json(Graph.from_edges(4, [(0, 1), (0, 3), (1, 2)])), path)
        code, report = run_cli(capsys, "gadget", "--graph", str(path), "--clique", "2")
        assert code == 0 and report["chain"]["consistent"] is True
        assert set(report["stats"]) == {"iterations", "capped"}
        assert 0 < report["stats"]["iterations"] < RSDF_ITERS
        assert report["stats"]["capped"] == 0
        assert "ascent" not in report["chain"]


class TestNetCommand:
    def test_build_and_verify(self, capsys):
        code, report = run_cli(
            capsys, "net", "--m", "2", "--delta", "0.4",
            "--verify-samples", "2000",
        )
        assert code == 0
        assert report["passed"] is True

    def test_m1_is_one_point(self, capsys):
        code, report = run_cli(capsys, "net", "--m", "1", "--delta", "0.5")
        assert code == 0
        assert report["size"] == 1 and report["max_gap"] == 0.0


def subcommand_options(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {s for a in sub.choices[name]._actions for s in a.option_strings} - {"-h", "--help"}


class TestParser:
    def test_symext_takes_no_solver_settings(self):
        assert subcommand_options("symext") == {"--input", "--delta"}

    def test_witness_takes_no_net_radius(self):
        assert subcommand_options("witness") == {
            "--input", "--delta", "--witness-out", "--cert-out", "--instance-out"
        }

    def test_gadget_takes_no_net_radius(self):
        assert subcommand_options("gadget") == {"--graph", "--clique", "--seed"}

    @pytest.mark.parametrize("argv", [
        ("symext", "--no-ppt"),
        ("symext", "--tol", "1e-7"),
        ("symext", "--max-iters", "50"),
        ("witness", "--net-delta", "0.05"),
        ("symext", "--delta", "x"),
        (),
        ("symext", "--strict"),
        ("symext", "--kmax", "3"),
    ])
    def test_usage_error_is_input_error(self, capsys, maxmixed_path, argv):
        if argv:
            argv = (argv[0], "--input", maxmixed_path, "--delta", "2.0", *argv[1:])
        code, report = run_cli(capsys, *argv)
        assert code == 64
        assert report["kind"] == "input"

    def test_import_leaves_scipy_spatial_out(self):
        # scipy.optimize alone adds ~41 MB of resident memory to a process that never solves an LP
        code = ("import sys, sepscan.cli; "
                "sys.exit(any(m in sys.modules for m in ('scipy.spatial', 'scipy.optimize')))")
        assert subprocess.run([sys.executable, "-c", code], env=src_env()).returncode == 0


def src_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's sepscan."""
    src = str(Path(sepscan.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def one_line_sorted(text: str) -> dict:
    """The JSON object of `text`, which must be one line with sorted keys."""
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True) + "\n"
    return obj


class TestOneParser:
    """`main` builds its parser once per process; later calls in it reuse that parser."""

    def test_calls_in_one_process_match_fresh_processes(
        self, capsys, tmp_path, monkeypatch, maxmixed_path
    ):
        decomp = rational_separable_decomposition(2, 2, 5, seed=21)
        rho = rational_state_of(decomp, 2, 2)
        rho_path = tmp_path / "rho.rational.json"
        dump_json({"m": 2, "n": 2, "rational": True, "matrix": rational_matrix_to_json(rho)},
                  rho_path)
        inst_path = tmp_path / "inst.json"
        p = bits_required(reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 2)).delta_p)
        cert_path = tmp_path / "cert.json"
        dump_json(qsep_certificate_to_json(truncate_decomposition(decomp, p, 2, 2)), cert_path)
        steps = [
            (64, ["symext", "--input", maxmixed_path, "--delta", "2.0", "--strict"]),
            (0, ["test", "--input", maxmixed_path]),
            (0, ["qsep-reduce", "--input", str(rho_path), "--delta", "1/2",
                 "--out", str(inst_path)]),
            (0, ["qsep-verify", "--instance", str(inst_path), "--cert", str(cert_path)]),
        ]

        builds = []

        def counted_build():
            builds.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted_build)
        in_process = []
        for expected, argv in steps:
            code = cli.main(argv)
            report = one_line_sorted(capsys.readouterr().out)
            report.pop("timings", None)
            assert code == expected
            in_process.append((code, report))
        assert len(builds) == 1
        artifact = inst_path.read_text()
        one_line_sorted(artifact)

        for (_, argv), (code, report) in zip(steps, in_process):
            fresh = subprocess.run([sys.executable, "-m", "sepscan.cli", *argv],
                                   env=src_env(), capture_output=True, text=True)
            fresh_report = one_line_sorted(fresh.stdout)
            fresh_report.pop("timings", None)
            assert (fresh.returncode, fresh_report) == (code, report)
        assert inst_path.read_text() == artifact


class TestStateCommand:
    def test_emit_and_reload(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, report = run_cli(
            capsys, "state", "--name", "werner", "--param", "w=0.8", "--out", str(path)
        )
        assert code == 0
        rho = density_from_json(json.loads(path.read_text()))
        np.testing.assert_allclose(rho.mat, states.werner(0.8).mat, atol=1e-12)

    def test_unknown_name_is_input_error(self, capsys):
        code, report = run_cli(capsys, "state", "--name", "nonsense")
        assert code == 64

    @pytest.mark.parametrize("name,param", [
        ("product_mixture", "terms=0"), ("product_mixture", "n=0"), ("maxmixed", "m=0"),
        ("pure_product", "n=-1"), ("random_full_rank", "m=0"),
    ])
    def test_dimension_or_terms_below_one_is_input_error(self, capsys, name, param):
        code, report = run_cli(capsys, "state", "--name", name, "--param", param)
        assert (code, report["kind"]) == (64, "input")
        assert report["error"].startswith(param.partition("=")[0] + " must be >= 1")


class TestNetSizeGuard:
    """A net whose size bound a float cannot hold is refused (exit 65), not a traceback."""

    def test_net(self, capsys):
        code, report = run_cli(capsys, "net", "--m", "2", "--delta", "1e-200")
        assert (code, report["kind"]) == (65, "infeasible")

    def test_witness(self, capsys, tmp_path):
        path = tmp_path / "werner.json"
        dump_json(density_to_json(states.werner(0.2)), path)
        code, report = run_cli(capsys, "witness", "--input", str(path), "--delta", "1e-200")
        assert (code, report["kind"]) == (65, "infeasible")


def run_twice(capsys, *argv):
    """Run a command twice; assert equal exit codes and JSON bytes apart from `timings`,
    and the frame `main` puts on every report."""
    runs = []
    for _ in range(2):
        code, report = run_cli(capsys, *argv)
        total = report.pop("timings")["total_s"]
        assert isinstance(total, (int, float)) and total >= 0
        assert report["config"]["command"] == argv[0]
        assert report["config"]["version"] == sepscan.__version__
        runs.append((code, json.dumps(report, sort_keys=True)))
    assert runs[0] == runs[1]
    return code, report


class TestEncoder:
    def test_dataclasses_and_fractions_encode_other_objects_raise(self):
        from sepscan.onesided import Verdict

        assert cli._encode(Verdict("Unknown", "ccnr", False, 0.5)) == {
            "outcome": "Unknown", "reason": "ccnr", "exact": False, "detail": 0.5}
        assert cli._encode(Fraction(-3, 4)) == "-3/4"
        with pytest.raises(TypeError):
            cli._encode(object())
        with pytest.raises(TypeError):
            cli._encode(np.int64(1))


class TestDeterminism:
    def test_reports_identical_modulo_timing(self, capsys, bell_path):
        run_twice(capsys, "test", "--input", bell_path)

    def test_symext_reports_identical_modulo_timing(self, capsys, tmp_path, monkeypatch):
        # product_mixture(3, 3, 9, 0) stalls within the budget, so the residual is
        # reported: it is full rank, with lambda_min 2e-5, so its cone stays whole
        # (face_dims is the full 18), and its k = 2 search needs 60 iterations
        monkeypatch.setattr(symext, "SCAN_ITERS", 50)
        path = tmp_path / "mixture.json"
        dump_json(density_to_json(states.product_mixture(3, 3, 9, 0)), path)
        code, rep = run_twice(capsys, "symext", "--input", str(path), "--delta", "1.0")
        assert code == 2 and rep["verdict"]["reason"] == "symext_stalled_k2"
        assert rep["stats"]["stop"] == "stalled"
        assert [d["k"] for d in rep["stats"]["depths"]] == [2]
        assert rep["stats"]["depths"][0]["residual"] == rep["verdict"]["detail"]
        assert len(rep["stats"]["depths"][0]["residuals"]) == 5
        assert rep["stats"]["depths"][0]["face_dims"] == [18]

    @pytest.mark.parametrize("w,expected", [(0.2, 0), (0.9, 1)])
    def test_witness_reports_identical_modulo_timing(self, capsys, tmp_path, w, expected):
        path = tmp_path / "werner.json"
        dump_json(density_to_json(states.werner(w)), path)
        code, rep = run_twice(capsys, "witness", "--input", str(path), "--delta", "0.5")
        assert code == expected
        if expected == 1:
            assert rep["stats"]["oracle_evaluated"] > 0
            return
        # within delta' of its diagonal: certified with no net scan; at delta 0.2 the
        # same state is searched, and that report is deterministic too
        assert rep["iterations"] == 0 and rep["stats"]["oracle_evaluated"] == 0
        code, rep = run_twice(capsys, "witness", "--input", str(path), "--delta", "0.2")
        assert (code, rep["stats"]["stop"]) == (0, "certificate")
        assert rep["iterations"] > 0 and rep["stats"]["oracle_evaluated"] > 0

    def test_wopt_reports_identical_modulo_timing(self, capsys, tmp_path):
        path = tmp_path / "a23.json"
        dump_json({"m": 2, "n": 3, "matrix": matrix_to_json(random_hermitian_unit(6, 0))},
                  path)
        code, rep = run_twice(capsys, "wopt", "--op", str(path), "--delta", "0.1")
        assert code == 0 and rep["stats"]["evaluated"] > 0

    @pytest.mark.parametrize("command", ["net", "state", "gadget", "qsep-reduce", "qsep-verify"])
    def test_other_commands_identical_modulo_timing(self, capsys, tmp_path, command):
        from sepscan.gadgets import Graph

        graph_path = tmp_path / "k3.json"
        dump_json(graph_to_json(Graph.complete(3)), graph_path)
        decomp = rational_separable_decomposition(2, 2, 5, seed=21)
        rho = rational_state_of(decomp, 2, 2)
        rho_path = tmp_path / "rho.rational.json"
        dump_json({"m": 2, "n": 2, "rational": True, "matrix": rational_matrix_to_json(rho)},
                  rho_path)
        inst = reduce_wmem_to_qsep(rho, 2, 2, Fraction(1, 2))
        inst_path = tmp_path / "inst.json"
        dump_json(qsep_instance_to_json(inst), inst_path)
        cert_path = tmp_path / "cert.json"
        cert = truncate_decomposition(decomp, bits_required(inst.delta_p), 2, 2)
        dump_json(qsep_certificate_to_json(cert), cert_path)
        argv = {
            "net": ["--m", "2", "--delta", "0.4", "--verify-samples", "2000"],
            "state": ["--name", "product_mixture", "--param", "n=3", "--param", "seed=3"],
            "gadget": ["--graph", str(graph_path), "--clique", "3"],
            "qsep-reduce": ["--input", str(rho_path), "--delta", "1/2"],
            "qsep-verify": ["--instance", str(inst_path), "--cert", str(cert_path)],
        }[command]
        code, _ = run_twice(capsys, command, *argv)
        assert code == 0
