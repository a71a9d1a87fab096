"""Decide whether the two-sided power orbit of an operator stays bounded.

In finite dimension, sup over all integers k of ||T^k|| is finite exactly
when T is diagonalizable and every eigenvalue sits on the unit circle.  The
verdicts here are spectral; the sampled power norms included in each report
are a diagnostic, not the decision path.  They cost one SVD per power: the
singular values of T^k give ||T^k|| as the largest and ||T^-k|| as the
reciprocal of the smallest.  The reciprocal is trusted only while T^k is
well conditioned (RECIPROCAL_RTOL); for the other powers T^-k is formed.  A
parallel criterion handles generators: e^{itH} is bounded in t exactly when
H is diagonalizable with real spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    EigenDecomposition,
    ToleranceConfig,
    as_operator,
    eig,
    require_nonsingular,
    spectral_band,
    spectral_norm,
)
from .errors import NotAutomorphism, NotBoundedFlow, NotUniformlyBounded

# Power norms are sampled for k in [-POWER_SAMPLE_RANGE, POWER_SAMPLE_RANGE].
POWER_SAMPLE_RANGE = 32

# ||T^-k|| is read as 1/sigma_min(T^k) only while sigma_min(T^k) is at least
# this fraction of sigma_max(T^k).  The reciprocal turns the rounding error of
# the computed T^k into a relative error up to cond(T^k) times larger, so below
# the cut T^-k is formed and decomposed instead.  Calibrated against 100-digit
# norms at n = 5 (20 seeds each of bounded, Jordan, and one modulus off the
# circle by +-0.05 or +-0.5): the worst relative error over k in [-32, 32] was
# 8e-13, 1.2e-11 and 2.4e-9 at cond(S) = 10, 100 and 1e3, against 2.4e-13,
# 7.6e-12 and 1.0e-9 with every T^-k formed.  A cut of 1e-3 matched the formed
# powers but sends cond(S) = 100 operators, whose powers reach cond 1e4, down
# the slow path; a cut of 1e-6 reached 5.4e-10 at cond(S) = 100.
RECIPROCAL_RTOL = 1e-4

VERDICT_BOUNDED = "uniformly_bounded"
VERDICT_NOT_BOUNDED = "not_bounded"
VERDICT_SELF_ADJOINT_LIKE = "similar_to_self_adjoint"
VERDICT_NOT_SELF_ADJOINT_LIKE = "not_similar_to_self_adjoint"
VERDICT_ALREADY_UNITARY = "already_unitary"
VERDICT_NORMAL_NOT_UNITARY = "not_similar_to_unitary"
VERDICT_NOT_NORMAL = "not_normal"


@dataclass(eq=False)
class BoundednessReport:
    """Outcome of the power-orbit decision for one operator.

    off_circle lists eigenvalues whose modulus leaves the unit circle beyond
    tolerance; defective lists unimodular eigenvalues (one representative per
    cluster) whose cluster fails the geometric multiplicity test.  The bound
    estimate is the condition number of the eigenvector matrix when the
    verdict is positive, and None otherwise.  decomposition is the one
    eigendecomposition the verdict was read from; the constructions that
    need a bounded operator's spectral data take it from here (through
    require_bounded) rather than decomposing the operator again.
    sampled_power_norms maps k in [-32, 32] to ||T^k||; each negative power
    is 1 / sigma_min(T^k) while T^k passes the conditioning guard
    RECIPROCAL_RTOL and the norm of the formed T^-k otherwise, within
    1.2e-11 relative for T = S^-1 D S with cond(S) <= 100 (see
    sampled_power_norms).
    """

    verdict: str
    off_circle: tuple[complex, ...]
    defective: tuple[complex, ...]
    sampled_power_norms: dict[int, float]
    bound_estimate: float | None
    decomposition: EigenDecomposition

    @property
    def bounded(self) -> bool:
        return self.verdict == VERDICT_BOUNDED

    @property
    def reasons(self) -> tuple[str, ...]:
        out = []
        for lam in self.off_circle:
            out.append(f"eigenvalue {lam:.12g} has modulus {abs(lam):.12g}, off the unit circle")
        for lam in self.defective:
            out.append(f"unimodular eigenvalue {lam:.12g} is defective")
        if not out:
            out.append("diagonalizable with unimodular spectrum")
        return tuple(out)


def sampled_power_norms(T, k_range: int = POWER_SAMPLE_RANGE) -> dict[int, float]:
    """Spectral norms of T^k for k in [-k_range, k_range].

    One SVD of T^k serves both signs: ||T^k|| = sigma_max(T^k), and since
    the singular values of an inverse are the reciprocals of those of the
    matrix, ||T^-k|| = 1 / sigma_min(T^k).  The reciprocal is taken only
    while sigma_min(T^k) >= RECIPROCAL_RTOL * sigma_max(T^k); for any other
    k the norm comes from an SVD of T^-k, the running product of inv(T),
    which is extended only when such a k comes up.  So a well-conditioned
    orbit costs k_range SVDs and no inverse, and the k = 1 SVD is the
    singularity test's.

    Positive-k norms, and negative-k norms that fail the guard, equal the
    spectral norms of the repeated products exactly.  Against a 100-digit
    reference, on T = S^-1 D S with D diagonal or a Jordan block, the worst
    relative error was 1.2e-11 for cond(S) <= 100 and 2.4e-9 at cond(S) =
    1e3 (see RECIPROCAL_RTOL).

    Raises InvalidInput for a non-square or non-finite T, and
    NotAutomorphism for a numerically singular one.
    """
    T = as_operator(T)
    n = T.shape[0]
    sv = require_nonsingular(T, NotAutomorphism, "operator is numerically singular")
    norms = {0: 1.0}
    fwd = T
    Tinv = None
    bwd = np.eye(n, dtype=np.complex128)
    built = 0  # bwd holds T^-built
    for k in range(1, k_range + 1):
        if k > 1:
            fwd = fwd @ T
            sv = np.linalg.svd(fwd, compute_uv=False)
        norms[k] = float(sv[0])
        if sv[-1] >= RECIPROCAL_RTOL * sv[0]:
            norms[-k] = float(1.0 / sv[-1])
            continue
        if Tinv is None:
            Tinv = np.linalg.inv(T)
        for _ in range(built, k):
            bwd = bwd @ Tinv
        built = k
        norms[-k] = spectral_norm(bwd)
    return norms


def check_uniformly_bounded(
    operator, cfg: ToleranceConfig | None = None
) -> BoundednessReport:
    """Decide sup_k ||T^k|| < infinity over all integer powers k.

    Raises NotAutomorphism for numerically singular input.
    """
    T = as_operator(operator)
    norms = sampled_power_norms(T)

    dec = eig(T, cfg)
    band = spectral_band(dec.operator_norm, cfg)
    moduli = np.abs(dec.eigenvalues)
    off = tuple(
        complex(lam) for lam, m in zip(dec.eigenvalues, moduli) if abs(m - 1.0) > band
    )
    means = [complex(z) for z in dec.cluster_means()]
    defective = [means[c] for c in dec.defective_clusters if abs(abs(means[c]) - 1.0) <= band]

    ok = not off and not defective
    bound = None
    if ok:
        v = dec.eigenvectors
        bound = float(np.linalg.cond(v))
    return BoundednessReport(
        verdict=VERDICT_BOUNDED if ok else VERDICT_NOT_BOUNDED,
        off_circle=off,
        defective=tuple(defective),
        sampled_power_norms=norms,
        bound_estimate=bound,
        decomposition=dec,
    )


def require_bounded(
    operator, cfg: ToleranceConfig | None = None, label: str = ""
) -> EigenDecomposition:
    """Decomposition of a power-bounded operator, taken from its decision.

    Raises NotUniformlyBounded with the reasons, prefixed by label (such as
    "t1: "), when the power orbit is unbounded.
    """
    report = check_uniformly_bounded(operator, cfg)
    if not report.bounded:
        raise NotUniformlyBounded(label + "; ".join(report.reasons))
    return report.decomposition


@dataclass(eq=False)
class GeneratorReport:
    """Outcome of the bounded-flow decision for a would-be Hamiltonian, with
    the one eigendecomposition the verdict was read from (which
    require_self_adjoint_like hands on)."""

    verdict: str
    off_real: tuple[complex, ...]
    defective: tuple[complex, ...]
    decomposition: EigenDecomposition

    @property
    def spectrum(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def similar_to_self_adjoint(self) -> bool:
        return self.verdict == VERDICT_SELF_ADJOINT_LIKE


def check_generator(operator, cfg: ToleranceConfig | None = None) -> GeneratorReport:
    """Decide whether H is similar to a self-adjoint operator.

    Equivalent to H being diagonalizable with real spectrum, and to the
    boundedness of e^{itH} over all real t.
    """
    H = as_operator(operator)
    dec = eig(H, cfg)
    band = spectral_band(dec.operator_norm, cfg)
    off_real = tuple(
        complex(lam) for lam in dec.eigenvalues if abs(lam.imag) > band
    )
    means = dec.cluster_means()
    defective = tuple(complex(means[c]) for c in dec.defective_clusters)
    ok = not off_real and not defective
    return GeneratorReport(
        verdict=VERDICT_SELF_ADJOINT_LIKE if ok else VERDICT_NOT_SELF_ADJOINT_LIKE,
        off_real=off_real,
        defective=defective,
        decomposition=dec,
    )


def require_self_adjoint_like(
    operator, cfg: ToleranceConfig | None = None, label: str = ""
) -> EigenDecomposition:
    """Decomposition of a generator similar to a self-adjoint operator, taken
    from its decision; raises NotBoundedFlow with the off-real and defective
    eigenvalues, prefixed by label, for any other generator."""
    report = check_generator(operator, cfg)
    if not report.similar_to_self_adjoint:
        raise NotBoundedFlow(label + "; ".join(
            [f"eigenvalue {z:.12g} is off the real axis" for z in report.off_real]
            + [f"eigenvalue {z:.12g} is defective" for z in report.defective]))
    return report.decomposition


@dataclass(eq=False)
class NormalityReport:
    """Trichotomy for normal input: already unitary, or never similar to one."""

    verdict: str
    commutator_residual: float
    unitarity_residual: float


def check_normal_dichotomy(
    operator, cfg: ToleranceConfig | None = None
) -> NormalityReport:
    """For normal operators, similarity to unitary collapses to being unitary.

    Returns already_unitary when T*T = I within tolerance, or
    not_similar_to_unitary for normal T with spectrum off the circle.
    Non-normal input gets the verdict not_normal, with no claim either way.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    scale = 1.0 + spectral_norm(T) ** 2
    c_res = float(np.linalg.norm(T @ T.conj().T - T.conj().T @ T)) / scale
    u_res = float(np.linalg.norm(T.conj().T @ T - np.eye(T.shape[0]))) / scale
    if c_res > cfg.unitarity_tol:
        verdict = VERDICT_NOT_NORMAL
    elif u_res <= cfg.unitarity_tol:
        verdict = VERDICT_ALREADY_UNITARY
    else:
        verdict = VERDICT_NORMAL_NOT_UNITARY
    return NormalityReport(
        verdict=verdict, commutator_residual=c_res, unitarity_residual=u_res
    )

