"""The invariant metric is one point in a family; walk the family.

Positive weights per eigenvalue cluster rescale the averaged metric,
positive functions of the eigenphase do the same thing spectrally, and
the commutant of the operator parametrizes every infinitesimal direction.
Changing the fiducial inner product moves the invariant metric too; the
decomposition of that movement splits into a fiducial part and an
averaging part that flip commutators against the operator.
"""

import argparse

import numpy as np

from unitarize import (
    ScalingSpec,
    commutant_positive_basis,
    eig,
    invariant_metric,
    metric_dependence,
    phi_metric,
    scaled_metric,
)
from unitarize.fixtures import (
    conjugated_unitary,
    positive_definite_fixture,
    unimodular_phases,
)


def invariance(T, gram):
    return np.linalg.norm(T.conj().T @ gram @ T - gram) / np.linalg.norm(gram)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dim", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    T, _, _ = conjugated_unitary(
        rng, args.dim, 8.0, unimodular_phases(rng, args.dim, min_gap=0.2)
    )
    base = invariant_metric(T)

    weights = {k: float(w) for k, w in enumerate(rng.uniform(0.5, 2.0, args.dim))}
    scaled = scaled_metric(T, ScalingSpec(weights))
    print("cluster weights:", {k: round(v, 3) for k, v in weights.items()})
    print(f"  scaled metric invariance: {invariance(T, scaled.gram):.3e}")
    gap = np.linalg.norm(scaled.gram - base.invariant_form.gram)
    print(f"  distance from the plain average: {gap:.3g}")

    form, factor = phi_metric(base, lambda theta: 1.5 + np.cos(theta))
    print("\nspectral weight phi(theta) = 1.5 + cos(theta):")
    print(f"  phi metric invariance: {invariance(T, form.gram):.3e}")
    comm = np.linalg.norm(T @ factor - factor @ T)
    print(f"  weighting factor commutes with T: {comm:.3e}")

    basis = commutant_positive_basis(T)
    counts = [len(c) for c in eig(T).clusters]
    print(f"\ncommutant directions: {len(basis)} = sum of squared multiplicities")
    print(f"  cluster sizes: {counts}")

    h0 = positive_definite_fixture(rng, args.dim, 3.0)
    h0_prime = positive_definite_fixture(rng, args.dim, 3.0)
    report = metric_dependence(T, h0, h0_prime)
    print("\nmoving the fiducial inner product:")
    for key, value in sorted(report.residuals.items()):
        print(f"  {key}: {value:.3e}")


if __name__ == "__main__":
    main()
