"""Timing spans installed around sepscan's public functions from outside.

`Tracer.installed()` replaces module attributes (for example the
`wopt_max` that `witness` imported, or `core.eig_hermitian`) with
wrappers that record a span: name, start, end, parent span and the round
it ran in.  Spans stay in memory until `dump`.  Nothing is installed
unless a traced run asks for it, and every attribute is restored on exit.
"""

from __future__ import annotations

import functools
import json
import statistics
from contextlib import contextmanager
from time import perf_counter


def _net_points(args, kwargs, result):
    net = kwargs.get("net", args[3] if len(args) > 3 else None)
    return {"points": int(net.points.shape[0])}


def _built_points(args, kwargs, result):
    return {"points": int(result.points.shape[0])}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


# (module, attribute, span name, annotate); one row per binding a call goes through
WRAPS = [
    ("nets", "build_net", "nets.build", _built_points),
    ("cli", "build_net", "nets.build", _built_points),
    ("wopt", "wopt_max", "wopt.scan", _net_points),
    ("witness", "wopt_max", "wopt.scan", _net_points),
    ("gadgets", "wopt_max", "wopt.scan", _net_points),
    ("cli", "wopt_max", "wopt.scan", _net_points),
    ("wopt", "seesaw_max", "wopt.seesaw", None),
    ("gadgets", "seesaw_max", "wopt.seesaw", None),
    ("witness", "wsep_solve", "witness.solve", _iterations),
    ("cli", "wsep_solve", "witness.solve", _iterations),
    ("witness", "cut", "witness.cut", None),
    ("witness", "analytic_center", "witness.center", None),
    ("symext", "find_extension", "symext.solve", _iterations),
    ("symext", "separability_scan", "symext.scan", None),
    ("cli", "separability_scan", "symext.scan", None),
    ("core", "eig_hermitian", "core.eig", None),
    ("onesided", "eig_hermitian", "core.eig", None),
    ("core", "to_bloch", "core.bloch", None),
    ("core", "from_bloch", "core.bloch", None),
    ("witness", "to_bloch", "core.bloch", None),
    ("witness", "from_bloch", "core.bloch", None),
    ("wopt", "to_bloch", "core.bloch", None),
    ("onesided", "pipeline", "onesided.pipeline", None),
    ("onesided", "frobenius_ball_test", "onesided.balls", None),
    ("onesided", "lambda_min_ball_test", "onesided.balls", None),
    ("onesided", "ppt_test", "onesided.ppt", None),
    ("onesided", "reduction_test", "onesided.reduction", None),
    ("onesided", "majorization_test", "onesided.majorization", None),
    ("onesided", "entropic_test", "onesided.entropic", None),
    ("onesided", "ccnr_test", "onesided.ccnr", None),
    ("cli", "main", "cli.main", None),
    ("qsep", "reduce_wmem_to_qsep", "qsep.reduce", None),
    ("cli", "reduce_wmem_to_qsep", "qsep.reduce", None),
    ("qsep", "truncate_decomposition", "qsep.truncate", None),
    ("qsep", "verify_certificate", "qsep.verify", None),
    ("cli", "verify_certificate", "qsep.verify", None),
    ("gadgets", "verify_chain", "gadgets.chain", None),
    ("gadgets", "rsdf_value", "gadgets.rsdf", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "round", "attrs")

    def __init__(self, name, start, parent, round_):
        self.name, self.start, self.end = name, start, start
        self.parent, self.round, self.attrs = parent, round_, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = -1  # -1 while setting up
        self._stack: list[int] = []

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, perf_counter(), parent, self.round)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every WRAPS binding that exists in `modules` (name -> module)."""
        saved = []
        try:
            for mod_name, attr, span_name, annotate in WRAPS:
                mod = modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(span_name, fn, annotate))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = {"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "round": s.round, **s.attrs}
                fh.write(json.dumps(row) + "\n")


def _round_metrics(spans: list[Span], members: list[int]) -> dict:
    """Layer metrics over the spans whose indices are in `members`."""
    child_time: dict[int, float] = {}
    for i in members:
        p = spans[i].parent
        if p >= 0:
            child_time[p] = child_time.get(p, 0.0) + spans[i].duration
    by_name: dict[str, list[int]] = {}
    for i in members:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def attr(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, []))

    def self_time(name):
        return sum(spans[i].duration - child_time.get(i, 0.0) for i in by_name.get(name, []))

    def under(parent_name, name):
        return sum(spans[i].duration for i in by_name.get(name, [])
                   if spans[i].parent >= 0 and spans[spans[i].parent].name == parent_name)

    busy, points = total("wopt.scan"), attr("wopt.scan", "points")
    solve, iters = total("symext.solve"), attr("symext.solve", "iterations")
    return {
        "wopt.calls": count("wopt.scan"),
        "wopt.busy_s": busy,
        "wopt.points_scanned": points,
        "wopt.points_per_s": points / busy if busy > 0 else 0.0,
        "wopt.seesaw_s": total("wopt.seesaw"),
        "witness.solve_s": total("witness.solve"),
        "witness.oracle_wait_s": under("witness.solve", "wopt.scan"),
        "witness.cut_s": total("witness.cut"),
        "witness.center_s": total("witness.center"),
        "witness.self_s": self_time("witness.solve"),
        "witness.iterations": attr("witness.solve", "iterations"),
        "symext.solve_s": solve,
        "symext.iterations": iters,
        "symext.iter_ms": 1000.0 * solve / iters if iters else 0.0,
        "symext.scan_s": total("symext.scan"),
        "core.eig_calls": count("core.eig"),
        "core.eig_s": total("core.eig"),
        "core.bloch_s": total("core.bloch"),
        "onesided.pipeline_s": total("onesided.pipeline"),
        "onesided.balls_s": total("onesided.balls"),
        "onesided.ppt_s": total("onesided.ppt"),
        "onesided.reduction_s": total("onesided.reduction"),
        "onesided.majorization_s": total("onesided.majorization"),
        "onesided.entropic_s": total("onesided.entropic"),
        "onesided.ccnr_s": total("onesided.ccnr"),
        "cli.calls": count("cli.main"),
        "cli.overhead_s": self_time("cli.main"),
        "qsep.reduce_s": total("qsep.reduce"),
        "qsep.truncate_s": total("qsep.truncate"),
        "qsep.verify_s": total("qsep.verify"),
        "qsep.certs": count("qsep.verify"),
        "gadgets.chains": count("gadgets.chain"),
        "gadgets.chain_s": total("gadgets.chain"),
        "gadgets.rsdf_s": total("gadgets.rsdf"),
    }


def layer_metrics(tracer: Tracer) -> dict:
    """Per-round layer metrics (median over traced rounds) plus the net builds of set-up."""
    rounds: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        rounds.setdefault(s.round, []).append(i)
    setup = rounds.pop(-1, [])
    per_round = [_round_metrics(tracer.spans, idx) for _, idx in sorted(rounds.items())]
    keys = per_round[0].keys() if per_round else _round_metrics(tracer.spans, []).keys()
    out = {k: statistics.median(r[k] for r in per_round) if per_round else 0.0 for k in keys}
    builds = [tracer.spans[i] for i in setup if tracer.spans[i].name == "nets.build"]
    out["nets.build_s"] = sum(s.duration for s in builds)
    out["nets.points"] = sum(s.attrs.get("points", 0) for s in builds)
    return out
