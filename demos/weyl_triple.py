"""Joint metrics for commuting pairs and for the clock-shift triple.

Two commuting operators are averaged in two passes; the second pass keeps
the first invariance because the operators commute.  The clock and shift
do not commute, but their exchange phase is central, and averaging over
the commuting part first still produces one metric that makes all three
generators unitary at once.
"""

import argparse

import numpy as np

from unitarize import (
    commuting_pair_metric,
    heisenberg_metric,
    make_clock_shift,
    multiplicity_free_shortcut,
)
from unitarize.fixtures import commuting_conjugated_pair, invertible_with_condition


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--dim", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    t1, t2 = commuting_conjugated_pair(rng, args.dim, 15.0)
    pair = commuting_pair_metric(t1, t2)
    print("commuting pair, two averaging passes:")
    for label, residual in sorted(pair.unitarity_residuals.items()):
        print(f"  {label} unitarity in the joint metric: {residual:.3e}")
    shortcut = multiplicity_free_shortcut(pair)
    print(f"  single pass suffices: {shortcut.valid}")
    print(f"  second pass movement: {shortcut.second_invariance_residual:.3e}")

    shift, clock, center = make_clock_shift(args.dim)
    omega = np.exp(2j * np.pi / args.dim)
    braid = np.linalg.norm(shift @ clock - omega * clock @ shift)
    print(f"\nWeyl triple at dimension {args.dim}:")
    print(f"  exchange relation residual: {braid:.3e}")

    s = invertible_with_condition(rng, args.dim, 25.0)
    conj = [np.linalg.solve(s, x @ s) for x in (shift, clock, center)]
    family = heisenberg_metric(*conj)
    print("  after conjugating all three by one similarity:")
    for label, residual in sorted(family.unitarity_residuals.items()):
        print(f"    {label} unitarity in the final metric: {residual:.3e}")
    print("  averaging passes recorded:", [stage.label for stage in family.stages])


if __name__ == "__main__":
    main()
