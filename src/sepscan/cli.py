"""Command-line front end: one subcommand per pipeline, one-line JSON reports on stdout.

Each `cmd_*` returns (config, report, exit code); `main` adds the `config`
and `timings` keys to the report and encodes it.

Exit codes: 0 separable-assured (or a successful non-verdict command),
1 entangled, 2 unknown/unverified, 64 malformed input or usage, 65 infeasible
configuration (net too coarse or too large, dimension guards), 70 internal
failure: a numerical breakdown, or any error with no code of its own, the
report's encoding included.  So 0, 1 and 2 only ever carry results.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, onesided, states
from .core import DimensionGuardError
from .nets import NetTooCoarseError, NetTooLargeError, build_net, verify_coverage
from .onesided import ENTANGLED, SEPARABLE, UNKNOWN, Verdict
from .qsep import bits_required, reduce_wmem_to_qsep, verify_certificate
from .serialize import (
    InputFormatError,
    density_from_json,
    density_to_json,
    dump_json,
    graph_from_json,
    header_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    qsep_certificate_from_json,
    qsep_certificate_to_json,
    qsep_instance_from_json,
    qsep_instance_to_json,
    rational_density_from_json,
)
from .symext import ScanStats, separability_scan
from .witness import NumericalBreakdownError, wsep_solve
from .wopt import wopt_max

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_UNKNOWN = 2
EXIT_BAD_INPUT = 64
EXIT_INFEASIBLE = 65
EXIT_NUMERICAL = 70
VERDICT_EXIT = {SEPARABLE: EXIT_SEPARABLE, ENTANGLED: EXIT_ENTANGLED, UNKNOWN: EXIT_UNKNOWN}


def _artifact(report: dict, name: str, make, path: str | None) -> None:
    """Write `make()` to `path`, when one is given, and list it under the report's artifacts."""
    if path:
        dump_json(make(), path)
        report.setdefault("artifacts", {})[name] = path


def cmd_test(args) -> tuple[dict, dict, int]:
    rho = density_from_json(load_json(args.input))
    tests: list[Verdict] = []
    verdict = onesided.pipeline(rho, stats=tests)
    report = {"verdict": verdict, "stats": {"tests": tests}}
    return {"input": args.input}, report, VERDICT_EXIT[verdict.outcome]


def cmd_witness(args) -> tuple[dict, dict, int]:
    rho = density_from_json(load_json(args.input))
    net_delta = args.delta / 10.0  # the coarsest net wsep_solve accepts
    net = build_net(min(rho.m, rho.n), net_delta)
    result = wsep_solve(rho, args.delta, net)
    config = {
        "input": args.input,
        "delta": args.delta,
        "net_delta": net_delta,
        "net_size": net.size,
        "net_method": net.method,
    }
    report = {
        "verdict": result.verdict,
        "iterations": result.iterations,
        "stats": {"stop": result.stop, **dataclasses.asdict(result.stats)},
    }
    if result.witness is not None:
        report["witness"] = {
            "operator": matrix_to_json(result.witness.operator),
            "bloch_sup_normalized": [float(x) for x in result.witness.sup_normalized_bloch()],
            "margin": result.witness.margin,
            "delta": result.witness.delta,
        }
        _artifact(report, "witness", lambda: report["witness"], args.witness_out)
    if result.certificate is not None:
        cert, inst = result.certificate, result.instance
        _artifact(report, "certificate", lambda: qsep_certificate_to_json(cert), args.cert_out)
        _artifact(report, "instance", lambda: qsep_instance_to_json(inst), args.instance_out)
    return config, report, VERDICT_EXIT[result.verdict.outcome]


def cmd_symext(args) -> tuple[dict, dict, int]:
    rho = density_from_json(load_json(args.input))
    stats = ScanStats()
    verdict = separability_scan(rho, args.delta, stats=stats)
    report = {"verdict": verdict, "stats": stats}
    return {"input": args.input, "delta": args.delta}, report, VERDICT_EXIT[verdict.outcome]


def cmd_wopt(args) -> tuple[dict, dict, int]:
    m, n, matrix = header_from_json(load_json(args.op))
    mat = matrix_from_json(matrix)
    hs = float(np.linalg.norm(mat))
    if hs < 1e-15:
        raise InputFormatError("zero operator")
    net = build_net(min(m, n), args.delta)
    res = wopt_max(mat / hs, m, n, net, mode=args.mode)
    config = {
        "op": args.op,
        "delta": args.delta,
        "mode": args.mode,
        "net_size": net.size,
        "hs_norm": hs,
    }
    report = {
        "value_normalized": res.value,
        "value": res.value * hs,
        "guarantee": res.guarantee * hs,
        "stats": {"scanned": net.size, "bounded": res.bounded, "evaluated": res.evaluated},
        "maximizer": {
            "alpha": [[z.real, z.imag] for z in res.maximizer.alpha],
            "beta": [[z.real, z.imag] for z in res.maximizer.beta],
        },
    }
    return config, report, EXIT_SEPARABLE


def cmd_qsep_verify(args) -> tuple[dict, dict, int]:
    inst = qsep_instance_from_json(load_json(args.instance))
    cert = qsep_certificate_from_json(load_json(args.cert), inst)
    result = verify_certificate(inst, cert)
    config = {"instance": args.instance, "cert": args.cert}
    report = {"result": result, "bits": bits_required(inst.delta_p)}
    return config, report, EXIT_SEPARABLE if result.accepted else EXIT_UNKNOWN


def cmd_qsep_reduce(args) -> tuple[dict, dict, int]:
    mat, m, n = rational_density_from_json(load_json(args.input))
    try:
        delta = Fraction(args.delta)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad --delta {args.delta!r}: {exc}") from exc
    inst = reduce_wmem_to_qsep(mat, m, n, delta)
    report = {"instance": qsep_instance_to_json(inst), "bits": bits_required(inst.delta_p)}
    _artifact(report, "instance", lambda: report["instance"], args.out)
    return {"input": args.input, "delta": delta}, report, EXIT_SEPARABLE


def cmd_gadget(args) -> tuple[dict, dict, int]:
    from .gadgets import verify_chain

    graph = graph_from_json(load_json(args.graph))
    chain = verify_chain(graph, args.clique, seed=args.seed)
    config = {"graph": args.graph, "clique": args.clique, "seed": args.seed}
    fields = dataclasses.asdict(chain)
    stats = fields.pop("ascent")
    report = {"chain": {**fields, "consistent": chain.consistent}, "stats": stats}
    return config, report, EXIT_SEPARABLE if chain.consistent else EXIT_UNKNOWN


def cmd_net(args) -> tuple[dict, dict, int]:
    net = build_net(args.m, args.delta)
    coverage = verify_coverage(net, args.verify_samples, args.seed)
    config = {"m": args.m, "delta": args.delta, "samples": args.verify_samples, "seed": args.seed}
    report = {
        "size": net.size,
        "method": net.method,
        "max_gap": coverage.max_gap,
        "passed": coverage.passed,
    }
    return config, report, EXIT_SEPARABLE if coverage.passed else EXIT_INFEASIBLE


def cmd_state(args) -> tuple[dict, dict, int]:
    params = dict(kv.partition("=")[::2] for kv in args.param or [])
    rho = states.library(args.name, **params)
    report = {"m": rho.m, "n": rho.n, "state": density_to_json(rho)}
    _artifact(report, "state", lambda: report.pop("state"), args.out)  # in the file or the report
    return {"name": args.name, "params": params}, report, EXIT_SEPARABLE


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input, not an Unknown verdict
        raise InputFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sepscan",
        description="Deterministic bipartite separability testing with certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the one-sided test pipeline")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("witness", help="cutting-plane witness search")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--witness-out", default=None)
    p.add_argument("--cert-out", default=None, help="QSEP certificate, on the certificate stop")
    p.add_argument("--instance-out", default=None, help="the dyadic instance it was checked on")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("symext", help="bounded symmetric-extension scan")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_symext)

    p = sub.add_parser("wopt", help="weak optimization over the separable set")
    p.add_argument("--op", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["signed", "abs"], default="signed")
    p.set_defaults(func=cmd_wopt)

    p = sub.add_parser("qsep-verify", help="exact certificate verification")
    p.add_argument("--instance", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_qsep_verify)

    p = sub.add_parser("qsep-reduce", help="membership-to-certificate reduction")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", required=True, help="rational, e.g. 1/2 or 0.25")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qsep_reduce)

    p = sub.add_parser("gadget", help="clique reduction chain verification")
    p.add_argument("--graph", required=True)
    p.add_argument("--clique", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("net", help="build and verify a covering of the rays of C^m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--verify-samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("state", help="emit a library state as JSON")
    p.add_argument("--name", required=True)
    p.add_argument("--param", action="append", help="key=value, repeatable")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first `main` call."""
    return build_parser()


def _fail(message: str, kind: str, code: int) -> int:
    sys.stdout.write(json.dumps({"error": message, "kind": kind}, sort_keys=True) + "\n")
    return code


def _encode(obj):
    """JSON form of the report values `json` does not know: dataclasses and Fractions."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def main(argv=None) -> int:
    started = time.time()
    try:
        args = _parser().parse_args(argv)
        config, report, code = args.func(args)
        report["config"] = {"command": args.command, **config, "version": __version__}
        report["timings"] = {"total_s": round(time.time() - started, 6)}
        line = json.dumps(report, sort_keys=True, default=_encode)
    except (NetTooCoarseError, NetTooLargeError, DimensionGuardError) as exc:
        return _fail(str(exc), "infeasible", EXIT_INFEASIBLE)
    except (NumericalBreakdownError,) as exc:
        return _fail(str(exc), "numerical", EXIT_NUMERICAL)
    except ValueError as exc:
        return _fail(str(exc), "input", EXIT_BAD_INPUT)
    except Exception as exc:  # a fault of the program, not of its input
        return _fail(f"{type(exc).__name__}: {exc}", "internal", EXIT_NUMERICAL)
    sys.stdout.write(line + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
