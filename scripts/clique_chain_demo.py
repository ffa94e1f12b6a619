"""Run the clique reduction chain end to end on a few small graphs.

Usage: python scripts/clique_chain_demo.py

Exits 1 when any chain's decision disagrees with exact clique enumeration.
"""

import sys

from sepscan.gadgets import Graph, random_graph, verify_chain

CASES = [
    ("K3, c=3", Graph.complete(3), 3),
    ("K3 + isolated vertex, c=4", Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]), 4),
    ("path P3, c=3", Graph.from_edges(3, [(0, 1), (1, 2)]), 3),
    ("K2, c=2", Graph.complete(2), 2),
    ("random G(5, 0.5), c=3", random_graph(5, 0.5, seed=1), 3),
]


def main() -> int:
    inconsistent = 0
    for label, graph, c in CASES:
        rep = verify_chain(graph, c)
        print(f"{label}:")
        print(f"  clique number {rep.kappa}, expected {'YES' if rep.expected_yes else 'NO'}")
        print(
            f"  simplex value {rep.simplex_value:.4f} = block-form value {rep.rsdf_value:.4f}; "
            f"separable max {rep.wval_value:.4f} vs threshold {rep.gamma:.4f}"
        )
        print(f"  block-form ascent: {rep.ascent.iterations} iterations, "
              f"{rep.ascent.capped} starts stopped by the cap")
        print(f"  decided {'YES' if rep.decided_yes else 'NO'} -> "
              f"{'consistent' if rep.consistent else 'INCONSISTENT'}")
        inconsistent += not rep.consistent
    return 1 if inconsistent else 0


if __name__ == "__main__":
    sys.exit(main())
