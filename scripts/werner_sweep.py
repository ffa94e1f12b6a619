"""Sweep the Werner family through all three deciders and print a table.

Usage: python scripts/werner_sweep.py [--delta 0.05]
"""

import argparse
import time

from sepscan import states
from sepscan.nets import build_net
from sepscan.onesided import pipeline
from sepscan.symext import separability_scan
from sepscan.witness import wsep_solve


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--symext-delta", type=float, default=1.0)
    args = parser.parse_args()

    net = build_net(2, args.delta / 10.0)
    print(f"net: {net.size} points ({net.method}), witness delta {args.delta}")
    print(f"{'w':>5} {'pipeline':>12} {'witness':>18} {'extension scan':>22}")
    for w in [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.4, 0.5, 0.7, 0.9, 1.0]:
        rho = states.werner(w)
        t0 = time.time()
        quick = pipeline(rho)
        ws = wsep_solve(rho, args.delta, net)
        wit = ws.verdict.outcome
        if ws.witness is not None:
            wit += f" (margin {ws.witness.margin:.3f})"
        scan = separability_scan(rho, args.symext_delta)
        print(
            f"{w:5.2f} {quick.outcome:>12} {wit:>18} "
            f"{scan.outcome + ' via ' + scan.reason:>22}  [{time.time() - t0:.1f}s]"
        )


if __name__ == "__main__":
    main()
