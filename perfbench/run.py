"""sepscan decider benchmark.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a sepscan checkout; the program is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates rounds with and without timing spans installed and reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

# Fixed from outside the program, before the interpreter and numpy start:
# one BLAS thread (sepscan's --threads cannot set it), and glibc's initial
# mmap threshold, whose dynamic adjustment otherwise moves peak RSS by ~8%
# between runs of identical work.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
    os.environ.update(FIXED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("witness", "oracle", "symext", "screen")
MODULES = ("core", "nets", "wopt", "onesided", "witness", "symext", "qsep", "gadgets", "cli")
SETUP_REPEATS = 3


class SetupError(RuntimeError):
    """The checkout does not hold the program."""


def import_sepscan() -> types.SimpleNamespace:
    """Import sepscan's modules from ROOT/src."""
    src = ROOT / "src"
    if not (src / "sepscan" / "__init__.py").is_file():
        raise SetupError(f"no sepscan sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"sepscan.{name}") for name in MODULES}
    origin = Path(mods["core"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"sepscan was imported from {origin}, not from {src}")
    return types.SimpleNamespace(**mods)


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import "
    + ", ".join(f"sepscan.{name}" for name in MODULES)
    + "; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import sepscan (numpy and scipy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


class Tally:
    """Corrected operation times and counts of one kind of round."""

    def __init__(self, meter):
        self.meter = meter
        self.op_s: dict[str, list[float]] = {}
        self.wall_s: dict[str, list[float]] = {}
        self.phase_of: dict[str, str] = {}
        self.rounds = self.attempted = self.failed = 0
        self.unexpected, self.faults, self.last = [], [], None

    def run(self, wl) -> None:
        ops = wl.round()
        self.meter.calibrate()
        problems = wl.check(ops)
        self.rounds += 1
        self.attempted += len(ops)
        for op, probs in zip(ops, problems):
            took = 0.0
            if "start" in op:
                took = self.meter.corrected(op["start"], op["end"], op["seconds"])
            self.op_s.setdefault(op["name"], []).append(took)
            self.wall_s.setdefault(op["name"], []).append(op.get("seconds", 0.0))
            if "phase" in op:
                self.phase_of[op["name"]] = op["phase"]
            if probs:
                self.failed += 1
                bucket = self.faults if op.get("known_fault") else self.unexpected
                bucket.append(f"{op['name']}: {'; '.join(probs)}")
        self.last = (ops, problems)

    def batch_s(self, phase: str | None = None) -> float:
        """Time of one batch: each operation's median over the rounds, summed.

        Per-operation medians drop the rounds that host noise slowed,
        while every operation of the batch still counts."""
        return sum(statistics.median(times) for name, times in self.op_s.items()
                   if phase is None or self.phase_of.get(name) == phase)


def measure(wl, meter, seconds: float) -> Tally:
    """Run whole rounds until `seconds` have passed; check every round."""
    tally = Tally(meter)
    start = perf_counter()
    while True:
        tally.run(wl)
        if perf_counter() - start >= seconds:
            return tally


def measure_traced(wl, meter, seconds: float, tracer, modules: dict) -> list[Tally]:
    """A warm-up round, then traced and untraced rounds in turn until
    `seconds` have passed (at least one of each)."""
    warm, traced, plain = Tally(meter), Tally(meter), Tally(meter)
    start = perf_counter()
    warm.run(wl)
    while True:
        tracer.round += 1
        with tracer.installed(modules):
            traced.run(wl)
        plain.run(wl)
        if perf_counter() - start >= seconds:
            return [warm, traced, plain]


def timed_setup(wl, meter, repeats: int) -> float:
    """Median over `repeats` of the sepscan import plus the workload's set-up."""
    times = []
    for _ in range(repeats):
        meter.calibrate()
        t0 = perf_counter()
        import_s = import_seconds()
        s0 = perf_counter()
        wl.setup()
        t1 = perf_counter()
        meter.calibrate()
        times.append(meter.corrected(t0, t1, import_s + t1 - s0))
    return statistics.median(times)


def run_one(args) -> dict:
    sep = import_sepscan()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import meter
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        clock = meter.Meter()
        wl = workloads.WORKLOADS[args.workload](sep, args.seed, args.size, Path(tmp), clock)
        setup_s = timed_setup(wl, clock, SETUP_REPEATS)
        if not args.trace:
            tally = measure(wl, clock, args.seconds)
            metrics = {"setup_s": setup_s, "run_s": tally.batch_s(),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            parts = [tally]
        else:
            import spans

            tracer = spans.Tracer()
            with tracer.installed(vars(sep)):
                wl.setup()
            parts = measure_traced(wl, clock, args.seconds, tracer, vars(sep))
            _, traced, plain = parts
            metrics = spans.layer_metrics(tracer)
            metrics["trace.overhead_s"] = traced.batch_s() - plain.batch_s()
            for phase in ("test", "certify", "chain"):
                metrics[f"screen.{phase}_s"] = plain.batch_s(phase)
            metrics["symext.extensions_found"] = (
                wl.extensions_found(*plain.last) if args.workload == "symext" else 0)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unexpected = sorted({line for part in parts for line in part.unexpected})
    result = {
        "correct": not unexpected,
        "attempted": sum(p.attempted for p in parts),
        "failed": sum(p.failed for p in parts),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    for line in unexpected:
        print(f"CHECK FAILED {args.workload} {line}", file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": [p.rounds for p in parts],
               "known_faults": sorted({line for p in parts for line in p.faults}),
               "unexpected": unexpected, **result,
               "kernel_median_s": clock.median_kernel_s(),
               "uncorrected_batch_s": [sum(statistics.median(v) for v in p.wall_s.values())
                                       for p in parts],
               "op_seconds": [p.op_s for p in parts]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    return result


def summary_lines(workload: str, result: dict) -> list[str]:
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    lines += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    return lines


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("\n".join(summary_lines(name, result)))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest inputs of each workload, for the tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(summary_lines(args.workload, result)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
