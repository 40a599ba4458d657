#!/usr/bin/env python3
"""How far from a solver failure each theta_big degree of 1 - x1^2 sits.

A weight program near the edge of what the interior-point solver resolves
reaches Optimal or not depending on rounding.  This script solves each
degree at the exact input and again with each coefficient of f scaled by
(1 + 1e-15*z), z standard normal from seeds 1..11, a change far below any
meaningful accuracy.  A degree that is Optimal at every perturbation is
robust; one that flips is on a knife edge, and its outcome at the exact
input says little.

    python3 scripts/knife_edge.py --r-max 20
"""

import argparse
from collections import Counter

import numpy as np

from sosperturb import Polynomial, epsilon_star, parse, theta_big
from sosperturb.errors import SolverFailureError

R_MIN = 12
SEEDS = 11
SCALE = 1e-15


def status_of(f: Polynomial, r: int) -> str:
    try:
        epsilon_star(f, r, theta_big(1, r))
        return "Optimal"
    except SolverFailureError as exc:
        return exc.solution.status.value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--r-max", type=int, default=20)
    args = ap.parse_args()

    f = parse("1 - x1^2", 1)
    print(f"target: 1 - x1^2, theta_big; perturbed inputs: coefficients "
          f"times (1 + {SCALE:g} z), seeds 1..{SEEDS}")
    print(f"{'r':>3} {'exact':>17} {'optimal':>10}  other statuses")
    for r in range(R_MIN, args.r_max + 1):
        exact = status_of(f, r)
        counts = Counter()
        for seed in range(1, SEEDS + 1):
            z = np.random.default_rng(seed).standard_normal(len(f.terms))
            g = Polynomial(1, {a: c * (1.0 + SCALE * zi)
                               for (a, c), zi in zip(sorted(f.terms.items()), z)})
            counts[status_of(g, r)] += 1
        total = SEEDS + 1
        optimal = counts["Optimal"] + (exact == "Optimal")
        others = ", ".join(f"{s} {n}" for s, n in sorted(counts.items()) if s != "Optimal")
        print(f"{r:>3} {exact:>17} {optimal:>4} of {total:<2}  {others}")


if __name__ == "__main__":
    main()
