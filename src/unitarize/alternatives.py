"""Every invariant metric, not just the averaged one.

For a diagonalizable operator with unimodular spectrum, the invariant
Hermitian metrics are exactly the block forms built from one positive weight
block per eigenvalue cluster in a fixed eigenbasis.  This module constructs
them, rescales an invariant metric by a positive function of the spectrum,
spans the positive part of the commutant, and quantifies how the limit
metric moves when the fiducial metric changes.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .boundedness import require_bounded
from .core import (
    DEFAULT_TOLERANCES,
    HermitianForm,
    ToleranceConfig,
    as_operator,
    eig,
    hermitize,
    invariance_residual,
    invert,
    resolve_fiducial,
)
from .errors import (
    InvalidInput,
    MissingClusterWeight,
    NonPositivePhi,
    NonPositiveWeight,
)
from .metrics import (
    DIVERGENCE_FACTOR,
    Unitarization,
    _double_and_add,
    _spectral_unitarization,
)

# Default horizon for the finite average inside metric_dependence.  The
# double-and-add evaluation makes the cost logarithmic in the horizon, so
# depth is essentially free; accuracy is not.  Truncation decays like 1/N
# while rounding in the repeated squaring of the operator power grows like
# eps * N, so the achievable error has a minimum near N ~ 1/sqrt(eps).
# 2^26 sits at that minimum for double precision.
DEPENDENCE_HORIZON = 1 << 26


@dataclass(frozen=True)
class ScalingSpec:
    """One positive weight per eigenvalue cluster.

    Keys are cluster positions in the sorted eigendecomposition.  A scalar
    weight w means w times the identity block; a degenerate cluster of size
    m also accepts a full Hermitian positive definite (m, m) block.
    """

    weights: Mapping[int, object]

    def block_for(self, cluster: int, size: int, psd_tol: float) -> np.ndarray:
        if cluster not in self.weights:
            raise MissingClusterWeight(f"no weight for eigenvalue cluster {cluster}")
        w = self.weights[cluster]
        if np.isscalar(w):
            val = complex(w)
            if abs(val.imag) > 1e-12 * max(abs(val.real), 1.0) or val.real <= 0.0:
                raise NonPositiveWeight(
                    f"cluster {cluster}: scalar weight must be real positive, got {w!r}"
                )
            return val.real * np.eye(size, dtype=np.complex128)
        block = np.array(w, dtype=np.complex128)
        if block.shape != (size, size):
            raise InvalidInput(
                f"cluster {cluster}: weight block has shape {block.shape}, "
                f"expected {(size, size)}"
            )
        if np.linalg.norm(block - block.conj().T) > 1e-10 * max(
            np.linalg.norm(block), 1e-300
        ):
            raise NonPositiveWeight(f"cluster {cluster}: weight block is not Hermitian")
        vals = np.linalg.eigvalsh(hermitize(block))
        if vals[0] <= psd_tol * max(vals[-1], 0.0):
            raise NonPositiveWeight(
                f"cluster {cluster}: weight block is not positive definite"
            )
        return hermitize(block)


def scaled_metric(
    operator, spec: ScalingSpec, cfg: ToleranceConfig | None = None
) -> HermitianForm:
    """Invariant metric with prescribed weight blocks per eigenvalue cluster.

    With every weight equal to 1 this is the metric pulled back from the
    standard one through the sorted unit eigenbasis; general weights sweep
    out all invariant metrics of the operator.  The construction never looks
    at a fiducial metric, which is the whole point: invariance pins the
    eigenbasis but leaves one positive block per cluster free.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    dec = require_bounded(T, cfg)
    n = dec.dim
    B = np.zeros((n, n), dtype=np.complex128)
    for c, idx in enumerate(dec.clusters):
        rows = list(idx)
        B[np.ix_(rows, rows)] = spec.block_for(c, len(rows), cfg.psd_tol)
    extra = set(spec.weights) - set(range(len(dec.clusters)))
    if extra:
        raise InvalidInput(
            f"weights given for nonexistent clusters {sorted(extra)}; "
            f"the operator has {len(dec.clusters)}"
        )
    Pi = invert(dec.eigenvectors, "eigenvector matrix")
    return HermitianForm(hermitize(Pi.conj().T @ B @ Pi), psd_tol=cfg.psd_tol)


def phi_metric(
    operator,
    unitarization: Unitarization,
    phi,
    cfg: ToleranceConfig | None = None,
) -> tuple[HermitianForm, np.ndarray]:
    """Rescale an invariant metric by a positive function of the spectrum.

    phi is either a callable acting on the eigenvalue phase in [0, 2 pi) or
    a mapping from cluster position to value; values must be strictly
    positive reals.  Returns the rescaled invariant form together with the
    positive operator C implementing it, h_phi(x, y) = h_T(C x, y).  C is a
    polynomial in the operator in the exact-arithmetic limit, so it commutes
    with it by construction.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    g = np.asarray(unitarization.invariant_form.gram)
    if g.shape[0] != T.shape[0]:
        raise InvalidInput("operator and unitarization dimensions differ")
    inv_res = invariance_residual(T, g)
    if inv_res > 1e-6:
        raise InvalidInput(
            f"the supplied metric is not invariant under this operator "
            f"(residual {inv_res:.3e})"
        )
    dec = eig(T, cfg)
    values = np.empty(dec.dim)
    for c, idx in enumerate(dec.clusters):
        if isinstance(phi, Mapping):
            if c not in phi:
                raise MissingClusterWeight(f"no phi value for eigenvalue cluster {c}")
            val = phi[c]
        elif isinstance(phi, Callable):
            theta = float(np.mod(np.angle(dec.eigenvalues[list(idx)].mean()), 2.0 * np.pi))
            val = phi(theta)
        else:
            raise InvalidInput("phi must be a callable or a cluster-to-value mapping")
        val = complex(val)
        if abs(val.imag) > 1e-12 * max(abs(val.real), 1.0) or val.real <= 0.0:
            raise NonPositivePhi(f"phi value {val!r} on cluster {c} is not positive")
        for i in idx:
            values[i] = val.real
    P = dec.eigenvectors
    Pi = invert(P, "eigenvector matrix")
    C = P @ (values[:, None] * Pi)
    form = HermitianForm(hermitize(g @ C), psd_tol=cfg.psd_tol)
    return form, C


def commutant_positive_basis(
    operator, h0=None, cfg: ToleranceConfig | None = None
) -> list[np.ndarray]:
    """Basis of the self-adjoint part of the commutant, all elements usable
    as metric deformations.

    Every invariant metric of the operator is h_T(K x, y) for some K in the
    span with positive spectrum, so the returned list parameterizes the full
    family; its length is the sum of the squared cluster sizes.  Each K
    commutes with the operator and is self-adjoint for the averaged metric
    h_T built over the given fiducial form.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    dec = require_bounded(T, cfg)
    n = dec.dim
    G0 = np.asarray(resolve_fiducial(h0, n, cfg).gram)
    P = dec.eigenvectors
    Pi = invert(P, "eigenvector matrix")
    M = P.conj().T @ G0 @ P
    out: list[np.ndarray] = []
    for idx in dec.clusters:
        rows = list(idx)
        m = len(rows)
        Mc = M[np.ix_(rows, rows)]
        Mc_inv = invert(hermitize(Mc), "cluster Gram block")
        for a in range(m):
            for b in range(a, m):
                if a == b:
                    hs = [np.zeros((m, m), dtype=np.complex128)]
                    hs[0][a, a] = 1.0
                else:
                    h_re = np.zeros((m, m), dtype=np.complex128)
                    h_re[a, b] = h_re[b, a] = 1.0
                    h_im = np.zeros((m, m), dtype=np.complex128)
                    h_im[a, b] = 1j
                    h_im[b, a] = -1j
                    hs = [h_re, h_im]
                for h in hs:
                    kappa = np.zeros((n, n), dtype=np.complex128)
                    kappa[np.ix_(rows, rows)] = Mc_inv @ h
                    out.append(P @ kappa @ Pi)
    return out


@dataclass(eq=False)
class MetricChangeReport:
    """How the limit metric responds to a change of fiducial metric.

    fiducial_change  C with h0(x, y) = h0'(C x, y)
    invariant_change R with h_T(x, y) = h_T'(R x, y)
    averaging_defect A, the finite average of the commutators [C, T^n]
                     paired against the moving frame; satisfies R = C + A
    """

    fiducial_change: np.ndarray
    invariant_change: np.ndarray
    averaging_defect: np.ndarray
    horizon: int
    residuals: dict[str, float]
    cesaro_residual: float


def metric_dependence(
    operator,
    h0,
    h0_prime,
    cfg: ToleranceConfig | None = None,
    horizon: int | None = None,
) -> MetricChangeReport:
    """Quantify the dependence of the limit metric on the fiducial metric.

    The two fiducial metrics are linked by C, the two limit metrics by R,
    and the averaging defect A is built as a finite Cesaro mean over the
    horizon (default 2^26, cheap through double-and-add).  The report checks
    the sum rule R = C + A, the commutator flip [A, T] = -[C, T], and that R
    commutes with the operator.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0], cfg)
    h0_prime = resolve_fiducial(h0_prime, T.shape[0], cfg)
    N = int(horizon if horizon is not None else DEPENDENCE_HORIZON)
    if N < 2:
        raise InvalidInput("the averaging horizon must be at least 2")

    dec = require_bounded(T, cfg)
    G0 = np.asarray(h0.gram)
    G0p = np.asarray(h0_prime.gram)
    G = np.asarray(_spectral_unitarization(T, dec, h0, cfg).invariant_form.gram)
    Gp = np.asarray(_spectral_unitarization(T, dec, h0_prime, cfg).invariant_form.gram)

    C = np.linalg.solve(G0p, G0)
    R = np.linalg.solve(Gp, G)

    # The pairing Lim h0'([C, T^n] x, T^n y) splits into two power averages,
    # one with the kernel C* G0' and one with G0' alone; one pass each gives
    # the sums at N and at N // 2.
    twisted, twisted_half = _double_and_add(T, C.conj().T @ G0p, T, N, DIVERGENCE_FACTOR)
    plain, plain_half = _double_and_add(T, G0p, T, N, DIVERGENCE_FACTOR)

    def defect(twisted_sum, plain_sum, count: int) -> np.ndarray:
        Z = twisted_sum / count - C.conj().T @ (plain_sum / count)
        return np.linalg.solve(Gp, Z.conj().T)

    A = defect(twisted, plain, N)
    A_half = defect(twisted_half, plain_half, N // 2)
    cesaro_residual = float(
        np.linalg.norm(A - A_half) / max(np.linalg.norm(A), 1e-300)
    )

    t_norm = max(1.0, float(np.linalg.norm(T)))
    c_norm = max(1.0, float(np.linalg.norm(C)))
    residuals = {
        "sum_rule": float(np.linalg.norm(R - C - A)) / c_norm,
        "commutator_flip": float(
            np.linalg.norm((A @ T - T @ A) + (C @ T - T @ C))
        )
        / (c_norm * t_norm),
        "invariant_commutes": float(np.linalg.norm(R @ T - T @ R))
        / (max(1.0, float(np.linalg.norm(R))) * t_norm),
    }
    return MetricChangeReport(
        fiducial_change=C,
        invariant_change=R,
        averaging_defect=A,
        horizon=N,
        residuals=residuals,
        cesaro_residual=cesaro_residual,
    )
