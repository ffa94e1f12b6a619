"""The four workloads.  Each builds its inputs in `setup`, runs one fixed
batch of operations per `round`, and checks a round's outputs in `check`.

Program calls go through `Meter.call`, so an operation is a dict with
at least "name", "seconds" (the wall time of its calls), "start" and
"end"; "error" holds the exception text when a call raised, "phase"
names the screen phase it belongs to, and "known_fault"
marks the one operation that is expected to come back wrong (see
README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import inputs


class Witness:
    """wsep_solve on band nets at delta/10."""

    name = "witness"

    def __init__(self, sep, seed: int, size: str, workdir: Path, meter):
        self.sep, self.seed, self.size, self.meter = sep, seed, size, meter

    def setup(self) -> None:
        rng = inputs.rng_for(self.name, self.seed)
        self.delta = 0.3 if self.size == "full" else 0.5
        self.net = self.sep.nets.build_net(2, self.delta / 10.0, method="band")
        cases = [
            ("werner_sep", 2, 2, inputs.werner(float(rng.uniform(0.05, 0.3)))),
            ("werner_ent", 2, 2, inputs.werner(float(rng.uniform(0.6, 0.95)))),
            ("mixture_2x2_4", 2, 2, inputs.product_mixture(rng, 2, 2, 4)),
        ]
        if self.size == "full":
            cases += [
                ("mixture_2x3_12", 2, 3, inputs.product_mixture(rng, 2, 3, 12)),
                ("mixture_2x3_24a", 2, 3, inputs.product_mixture(rng, 2, 3, 24)),
                ("mixture_2x3_24b", 2, 3, inputs.product_mixture(rng, 2, 3, 24)),
                ("mixture_2x3_24c", 2, 3, inputs.product_mixture(rng, 2, 3, 24)),
                # |lambda_min(PT)| > delta: a sound search must detect these
                ("npt_2x2", 2, 2, inputs.npt_full_rank(rng, 2, 2, 0.9, 1.1 * self.delta)),
                ("npt_2x3", 2, 3, inputs.npt_full_rank(rng, 2, 3, 0.9, 1.1 * self.delta)),
            ]
        make = self.sep.core.DensityMatrix.make
        self.cases = [(label, make(m, n, mat)) for label, m, n, mat in cases]

    def round(self) -> list[dict]:
        ops = []
        for label, rho in self.cases:
            op = {"name": label}
            res = self.meter.call(op, self.sep.witness.wsep_solve, rho, self.delta, self.net)
            if res is not None:
                op["outcome"] = res.verdict.outcome
                op["operator"] = None if res.witness is None else np.array(res.witness.operator)
            ops.append(op)
        return ops

    def check(self, ops: list[dict]) -> list[list[str]]:
        out = []
        for i, ((_, rho), op) in enumerate(zip(self.cases, ops)):
            if "error" in op:
                out.append([op["error"]])
                continue
            rng = np.random.default_rng([self.seed, i])

            def sample_max(w, rho=rho, rng=rng):
                return checks.product_sample_max(w, rho.m, rho.n, rng)

            out.append(checks.check_witness(rho.mat, rho.m, rho.n, self.delta,
                                            op["outcome"], op["operator"], sample_max))
        return out


class Oracle:
    """Direct wopt_max calls over the grid nets method="auto" picks."""

    name = "oracle"

    def __init__(self, sep, seed: int, size: str, workdir: Path, meter):
        self.sep, self.seed, self.size, self.meter = sep, seed, size, meter
        self._sample_best: dict = {}

    def setup(self) -> None:
        rng = inputs.rng_for(self.name, self.seed)
        build = self.sep.nets.build_net
        self.nets = None  # a repeated set-up must not hold two copies of the nets
        if self.size == "full":
            self.nets = {2: [build(2, 0.4), build(2, 0.1)], 3: [build(3, 0.4)]}
            shapes = [(2, 2), (2, 3), (3, 2)]
        else:
            self.nets = {2: [build(2, 0.4), build(2, 0.2)], 3: [build(3, 0.8)]}
            shapes = [(2, 2), (3, 2)]
        self.operators = [(m, n, inputs.random_hermitian_unit(rng, m * n)) for m, n in shapes]
        self._sample_best = {}

    def round(self) -> list[dict]:
        ops = []
        for j, (m, n, a) in enumerate(self.operators):
            for level, net in enumerate(self.nets[m]):
                for mode in ("signed", "abs"):
                    op = {"name": f"A{j}_{m}x{n}_net{level}_{mode}", "operator": j,
                          "level": level, "mode": mode, "delta": net.delta}
                    res = self.meter.call(op, self.sep.wopt.wopt_max, a, m, n, net, mode=mode)
                    if res is not None:
                        op.update(value=float(res.value), guarantee=float(res.guarantee),
                                  alpha=np.array(res.maximizer.alpha),
                                  beta=np.array(res.maximizer.beta))
                    ops.append(op)
        return ops

    def sample_best(self, j: int, mode: str) -> float:
        """Benchmark-side product maximum of A (of |A| in abs mode), cached per operator."""
        if (j, mode) not in self._sample_best:
            m, n, a = self.operators[j]
            rng = np.random.default_rng([self.seed, j])
            best = checks.product_sample_max(a, m, n, rng)
            if mode == "abs":
                best = max(best, checks.product_sample_max(-a, m, n, rng))
            self._sample_best[(j, mode)] = best
        return self._sample_best[(j, mode)]

    def check(self, ops: list[dict]) -> list[list[str]]:
        out = []
        values = {}
        for op in ops:
            if "error" in op:
                out.append([op["error"]])
                continue
            m, n, a = self.operators[op["operator"]]
            best = self.sample_best(op["operator"], op["mode"])
            problems = checks.check_wopt(a, m, n, op["mode"], op["value"], op["alpha"], op["beta"],
                                         op["guarantee"], best)
            coarser = values.get((op["operator"], op["mode"], op["level"] - 1))
            if coarser is not None:
                problems += checks.check_refinement(coarser, op["value"])
            values[(op["operator"], op["mode"], op["level"])] = op["value"]
            out.append(problems)
        return out


SYMEXT_MAX_ITERS = 1000


class Symext:
    """Fixed (state, k) find_extension problems with ppt=True, plus one scan."""

    name = "symext"

    def __init__(self, sep, seed: int, size: str, workdir: Path, meter):
        self.sep, self.seed, self.size, self.meter = sep, seed, size, meter

    def setup(self) -> None:
        rng = inputs.rng_for(self.name, self.seed)
        w_sep = float(rng.uniform(0.0, 1.0 / 3.0))
        # (label, m, n, matrix, depths, npt)
        if self.size == "full":
            self.max_iters = SYMEXT_MAX_ITERS
            problems = [
                ("mixture_2x2_16", 2, 2, inputs.product_mixture(rng, 2, 2, 16), (2,), False),
                ("mixture_2x2_3", 2, 2, inputs.product_mixture(rng, 2, 2, 3), (2, 3), False),
                ("mixture_2x3_24", 2, 3, inputs.product_mixture(rng, 2, 3, 24), (2,), False),
                ("mixture_2x3_3", 2, 3, inputs.product_mixture(rng, 2, 3, 3), (2,), False),
                ("mixture_3x3_36", 3, 3, inputs.product_mixture(rng, 3, 3, 36), (2,), False),
                ("mixture_3x3_4", 3, 3, inputs.product_mixture(rng, 3, 3, 4), (2,), False),
                ("maxmixed_3x3", 3, 3, inputs.maximally_mixed(3, 3), (2, 3, 4), False),
                ("werner_sep", 2, 2, inputs.werner(w_sep), (2, 3, 4), False),
                ("werner_0.5", 2, 2, inputs.werner(0.5), (2,), True),
                ("bell", 2, 2, inputs.bell(), (2,), True),
            ]
        else:
            self.max_iters = 200
            problems = [
                ("mixture_2x2_8", 2, 2, inputs.product_mixture(rng, 2, 2, 8), (2,), False),
                ("maxmixed_2x2", 2, 2, inputs.maximally_mixed(2, 2), (2,), False),
                ("werner_sep", 2, 2, inputs.werner(w_sep), (2,), False),
                ("bell", 2, 2, inputs.bell(), (2,), True),
            ]
        make = self.sep.core.DensityMatrix.make
        self.problems = [(f"{label}_k{k}", make(m, n, mat), k, npt)
                         for label, m, n, mat, depths, npt in problems for k in depths]
        self.fault_rho = make(2, 2, inputs.fault_state())

    def round(self) -> list[dict]:
        sx = self.sep.symext
        ops = []
        for label, rho, k, npt in self.problems:
            op = {"name": label}
            prob = self.meter.call(op, sx.ExtensionProblem, rho, k, ppt=True)
            res = None if prob is None else self.meter.call(op, sx.find_extension, prob,
                                                            max_iters=self.max_iters)
            if res is not None:
                op.update(found=bool(res.found), iterations=int(res.iterations),
                          operator=None if res.operator is None else np.array(res.operator))
            ops.append(op)
        op = {"name": "scan_fault_state", "known_fault": True}
        verdict = self.meter.call(op, sx.separability_scan, self.fault_rho, delta=1.0, kmax=3)
        if verdict is not None:
            op["outcome"] = verdict.outcome
        ops.append(op)
        return ops

    def check(self, ops: list[dict]) -> list[list[str]]:
        out = []
        for (_, rho, k, npt), op in zip(self.problems, ops):
            if "error" in op:
                out.append([op["error"]])
                continue
            problems = checks.check_extension_verdict(op["found"], npt)
            if op["found"] and not problems:
                problems = checks.check_extension(op["operator"], rho.mat, rho.m, rho.n, k)
            out.append(problems)
        op = ops[-1]
        out.append([op["error"]] if "error" in op
                   else checks.check_scan_of_separable(op["outcome"]))
        return out

    def extensions_found(self, ops: list[dict], problems: list[list[str]]) -> int:
        return sum(1 for (_, _, _, npt), op, p in zip(self.problems, ops, problems)
                   if not npt and op.get("found") and not p)


QSEP_DELTA = Fraction(1, 16)


class Screen:
    """sepscan test on state files, qsep reduce/truncate/verify, clique chains."""

    name = "screen"

    def __init__(self, sep, seed: int, size: str, workdir: Path, meter):
        self.sep, self.seed, self.size, self.workdir = sep, seed, size, workdir
        self.meter = meter

    def setup(self) -> None:
        rng = inputs.rng_for(self.name, self.seed)
        full = self.size == "full"
        sizes = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (6, 6), (8, 8)] if full else [(2, 2), (2, 3)]
        states = [("werner", 2, 2, inputs.werner(float(rng.uniform(0.0, 1.0)))),
                  ("bell", 2, 2, inputs.bell())]
        for m, n in sizes:
            states.append(("random_full_rank", m, n, inputs.random_full_rank(rng, m, n)))
            # an 8x8 mixture runs the whole pipeline for ~4 s, too long for the
            # host-speed correction and for enough rounds in a run
            if m * n < 64:
                states.append(("product_mixture", m, n, inputs.product_mixture(rng, m, n, m * n)))
        self.states = []
        for i, (family, m, n, mat) in enumerate(states):
            path = self.workdir / f"state_{i}_{family}_{m}x{n}.json"
            path.write_text(json.dumps(inputs.density_json(mat, m, n)))
            self.states.append((family, m, n, mat, str(path)))

        qrat = self.sep.qsep.QRat
        dims = [(2, 2), (2, 3), (3, 3), (3, 4)] if full else [(2, 2)]
        self.decomps = []
        for i, (m, n) in enumerate(dims):
            dec = inputs.rational_decomposition(rng, m, n, m * n)
            exact = inputs.rational_state(dec, m, n)
            path = self.workdir / f"rational_{i}_{m}x{n}.json"
            path.write_text(json.dumps(inputs.rational_state_json(exact, m, n)))
            terms = [(w, tuple(qrat(*z) for z in a), tuple(qrat(*z) for z in b)) for w, a, b in dec]
            self.decomps.append((m, n, terms, inputs.rational_to_float(exact), str(path)))
        # the 2x2 and 2x3 certificates are also paired with another state of their shape
        self.pairs = [(i, i) for i in range(len(dims))]
        for m, n in dims[:2]:
            dec = inputs.rational_decomposition(rng, m, n, m * n)
            exact = inputs.rational_state(dec, m, n)
            path = self.workdir / f"rational_other_{m}x{n}.json"
            path.write_text(json.dumps(inputs.rational_state_json(exact, m, n)))
            self.decomps.append((m, n, None, inputs.rational_to_float(exact), str(path)))
            self.pairs.append((dims.index((m, n)), len(self.decomps) - 1))

        graph_plan = [(4, 0.5, (2, 3)), (5, 0.5, (3,)), (6, 0.6, (4,))]  # (n, p, thresholds)
        if not full:
            graph_plan = graph_plan[:1]
        self.chains = []
        for n, p, thresholds in graph_plan:
            edges = inputs.random_graph(rng, n, p)
            self.chains.extend((n, edges, c) for c in thresholds)

    def _cli(self, op: dict, argv: list[str], extract) -> None:
        """Run `sepscan argv` in process; extract(report) gives the fields to keep."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.meter.call(op, self.sep.cli.main, argv)
        if code is None:
            return
        try:
            op.update(code=code, **extract(json.loads(buf.getvalue())))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            op["error"] = f"exit {code}, unusable report: {type(exc).__name__}: {exc}"

    def round(self) -> list[dict]:
        ops = []
        for family, m, n, _, path in self.states:
            op = {"name": f"test_{family}_{m}x{n}", "phase": "test"}
            self._cli(op, ["test", "--input", path],
                      lambda r: {"outcome": r["verdict"]["outcome"]})
            ops.append(op)

        instances = []
        for i, (m, n, _, _, path) in enumerate(self.decomps):
            inst_path = str(self.workdir / f"instance_{i}.json")
            op = {"name": f"reduce_{i}_{m}x{n}", "phase": "certify"}
            self._cli(op, ["qsep-reduce", "--input", path, "--delta", str(QSEP_DELTA),
                           "--out", inst_path], _reduce_fields)
            instances.append((inst_path, op))
            ops.append(op)
        certs = {}
        for i, (m, n, terms, _, _) in enumerate(self.decomps):
            if terms is None:
                continue
            op = {"name": f"truncate_{i}_{m}x{n}", "phase": "certify"}
            bits = instances[i][1].get("bits")
            if bits is None:
                op["error"] = "no bit width from the reduction"
                cert = None
            else:
                cert = self.meter.call(op, self.sep.qsep.truncate_decomposition, terms, bits, m, n)
            if cert is not None:
                cert_path = str(self.workdir / f"cert_{i}.json")
                Path(cert_path).write_text(json.dumps(_certificate_json(cert)))
                certs[i] = (cert, cert_path)
                op["cert"] = cert
            ops.append(op)
        for ci, si in self.pairs:
            op = {"name": f"verify_cert{ci}_state{si}", "phase": "certify", "pair": (ci, si)}
            if ci in certs and "error" not in instances[si][1]:
                self._cli(op, ["qsep-verify", "--instance", instances[si][0],
                               "--cert", certs[ci][1]],
                          lambda r: {"accepted": bool(r["result"]["accepted"])})
            else:
                op["error"] = "no certificate or instance to verify"
            ops.append(op)

        graph = self.sep.gadgets.Graph
        for n, edges, c in self.chains:
            op = {"name": f"chain_n{n}_c{c}", "phase": "chain", "graph": (n, edges, c)}
            rep = self.meter.call(op, self.sep.gadgets.verify_chain, graph.from_edges(n, edges), c,
                                  seed=0)
            if rep is not None:
                op["decided_yes"] = bool(rep.decided_yes)
            ops.append(op)
        return ops

    def check(self, ops: list[dict]) -> list[list[str]]:
        out = []
        tests = iter(self.states)
        for op in ops:
            if op["phase"] == "test":
                family, m, n, mat, _ = next(tests)
            if "error" in op:
                out.append([op["error"]])
            elif op["phase"] == "test":
                out.append(checks.check_test_report(op["code"], op["outcome"], mat, m, n, family))
            elif op["phase"] == "certify" and "pair" in op:
                ci, si = op["pair"]
                cert = next(o["cert"] for o in ops if o["name"].startswith(f"truncate_{ci}_"))
                reduce_op = next(o for o in ops if o["name"].startswith(f"reduce_{si}_"))
                dist = float(np.linalg.norm(self.decomps[si][3] - _certificate_float(cert)))
                out.append(checks.check_certificate(op["accepted"], dist,
                                                    float(reduce_op["delta_prime"]), ci == si))
            elif op["phase"] == "chain":
                n, edges, c = op["graph"]
                out.append(checks.check_chain(n, edges, c, op["decided_yes"]))
            else:
                out.append([])
        return out


def _reduce_fields(report: dict) -> dict:
    dp = report["instance"]["delta_prime"]
    return {"bits": int(report["bits"]), "delta_prime": Fraction(int(dp["num"]), int(dp["den"]))}


def _certificate_json(cert) -> dict:
    return {
        "m": cert.m,
        "n": cert.n,
        "terms": [
            {"weight": inputs.fraction_json(w),
             "alpha": [inputs.complex_json(z.re, z.im) for z in a],
             "beta": [inputs.complex_json(z.re, z.im) for z in b]}
            for w, a, b in cert.terms
        ],
    }


def _certificate_float(cert) -> np.ndarray:
    """sigma~ = sum_i w_i alpha_i alpha_i^dagger (x) beta_i beta_i^dagger in floats."""
    d = cert.m * cert.n
    sigma = np.zeros((d, d), dtype=complex)
    for w, a, b in cert.terms:
        va = np.array([float(z.re) + 1j * float(z.im) for z in a])
        vb = np.array([float(z.re) + 1j * float(z.im) for z in b])
        sigma += float(w) * np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj()))
    return sigma


WORKLOADS = {cls.name: cls for cls in (Witness, Oracle, Symext, Screen)}
