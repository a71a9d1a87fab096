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

from .boundedness import bounded
from .core import (
    HermitianForm,
    ToleranceConfig,
    _finite_array,
    _is_integer,
    _shown,
    as_operator,
    hermitize,
    masked_block,
    relative_change,
    relative_defect,
    resolve_fiducial,
)
from .errors import (
    InvalidInput,
    MissingClusterWeight,
    NonPositivePhi,
    NonPositiveWeight,
    NotPositiveDefinite,
)
from .metrics import Unitarization, _averaged_form, _carried_decomposition, _double_and_add

# Default horizon for the finite average inside metric_dependence.  The
# double-and-add evaluation makes the cost logarithmic in the horizon, so
# depth is essentially free; accuracy is not.  Truncation decays like 1/N
# while rounding in the repeated squaring of the operator power grows like
# eps * N, so the achievable error has a minimum near N ~ 1/sqrt(eps).
# 2^26 sits at that minimum for double precision.
DEPENDENCE_HORIZON = 1 << 26


def _positive_real(value, error: type[Exception], message: str) -> float:
    """value as a finite real number above zero, up to 1e-12 relative
    imaginary rounding; error(message) otherwise, NaN, inf, an array and
    what numpy cannot read as a number included."""
    val = _finite_array(value, message, message, error=error)
    if val.ndim or not (val.real > 0.0 and abs(val.imag) <= 1e-12 * max(val.real, 1.0)):
        raise error(message)
    return float(val.real)


@dataclass(frozen=True)
class ScalingSpec:
    """One positive weight per eigenvalue cluster.

    Keys are cluster positions in the sorted eigendecomposition.  A scalar
    weight w means w times the identity block; a degenerate cluster of size
    m also accepts a full Hermitian positive definite (m, m) block.
    """

    weights: Mapping[int, object]

    def block_for(self, cluster: int, size: int) -> np.ndarray:
        """The cluster's block: a positive scalar times the identity, or a
        matrix block validated by HermitianForm as a metric."""
        if cluster not in self.weights:
            raise MissingClusterWeight(f"no weight for eigenvalue cluster {cluster}")
        w = self.weights[cluster]
        if np.isscalar(w):
            message = f"cluster {cluster}: scalar weight must be real positive, got {_shown(w)}"
            return np.diag(np.full(size, _positive_real(w, NonPositiveWeight, message)))
        block = _finite_array(
            w, f"cluster {cluster}: weight block must be an array of numbers",
            f"cluster {cluster}: weight block: matrix entries must be finite",
            error=NonPositiveWeight, shape=lambda b: None if b.shape == (size, size) else
            f"cluster {cluster}: weight block has shape {b.shape}, expected {(size, size)}")
        try:
            return HermitianForm(block).gram
        except (InvalidInput, NotPositiveDefinite) as exc:
            raise NonPositiveWeight(f"cluster {cluster}: weight block: {exc}") from exc


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
    T = as_operator(operator)
    with bounded(T, cfg) as dec:
        n = dec.dim
        B = np.zeros((n, n), dtype=np.complex128)
        for c, idx in enumerate(dec.clusters):
            rows = list(idx)
            B[np.ix_(rows, rows)] = spec.block_for(c, len(rows))
        extra = set(spec.weights) - set(range(len(dec.clusters)))
        if extra:
            raise InvalidInput(
                f"weights given for nonexistent clusters {sorted(extra)}; "
                f"the operator has {len(dec.clusters)}"
            )
        Pi = dec.inverse
        return HermitianForm(hermitize(Pi.conj().T @ B @ Pi))


def phi_metric(unitarization: Unitarization, phi) -> tuple[HermitianForm, np.ndarray]:
    """Rescale the invariant metric of a closed-form unitarization of T by a
    positive function of the spectrum of T.

    phi is either a callable acting on the eigenvalue phase in [0, 2 pi) or
    a mapping from cluster position to value; values must be strictly
    positive reals.  Returns the rescaled invariant form together with the
    positive operator C implementing it, h_phi(x, y) = h_T(C x, y).  C is a
    polynomial in the operator in the exact-arithmetic limit, so it commutes
    with it by construction.  The clusters and phases are read off the
    decomposition the unitarization carries; a Cesaro or flow unitarization
    carries none and raises InvalidInput.
    """
    dec = _carried_decomposition(unitarization)
    g = unitarization.invariant_form.gram
    values = []
    for c, theta in enumerate(dec.cluster_phases()):
        if isinstance(phi, Mapping):
            if c not in phi:
                raise MissingClusterWeight(f"no phi value for eigenvalue cluster {c}")
            val = phi[c]
        elif isinstance(phi, Callable):
            val = phi(float(theta))
        else:
            raise InvalidInput("phi must be a callable or a cluster-to-value mapping")
        values.append(_positive_real(
            val, NonPositivePhi, f"phi value {_shown(val)} on cluster {c} is not positive"
        ))
    C = dec.spectral_function(values)
    form = HermitianForm(hermitize(g @ C))
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

    An element is P_c M_c^{-1} H Pi_c, with P_c the cluster's eigenvector
    columns, Pi_c the same rows of P^{-1}, M_c = P_c* G0 P_c its block of the
    fiducial Gram matrix and H one Hermitian basis matrix of the cluster's
    size.  The blocks M_c make up C, the block of P* G0 P on the clusters,
    which is Hermitian and block diagonal, so the columns of P C^{-1} on
    cluster c are P_c M_c^{-1}: one solve against C for every cluster, then
    per element an (n, m) by (m, n) product.
    """
    T = as_operator(operator)
    with bounded(T, cfg) as dec:
        Pi = dec.inverse
        G0 = resolve_fiducial(h0, dec.dim).gram
        C = hermitize(masked_block(dec, dec, G0, dec.same_cluster_mask()))
        L = np.linalg.solve(C, dec.eigenvectors.conj().T).conj().T  # P C^{-1}
    out: list[np.ndarray] = []
    for idx in dec.clusters:
        rows = list(idx)
        m = len(rows)
        Lc, Pr = L[:, rows], Pi[rows, :]
        for a in range(m):
            for b in range(a, m):
                for val in (1.0,) if a == b else (1.0, 1j):
                    h = np.zeros((m, m), dtype=np.complex128)
                    h[a, b], h[b, a] = val, np.conj(val)
                    out.append(Lc @ h @ Pr)
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
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0])
    h0_prime = resolve_fiducial(h0_prime, T.shape[0])
    N = DEPENDENCE_HORIZON if horizon is None else horizon
    if not _is_integer(N, minimum=2):
        raise InvalidInput("the averaging horizon must be an integer of at least 2")

    with bounded(T, cfg) as dec:
        G = _averaged_form(dec, h0).gram
        Gp = _averaged_form(dec, h0_prime).gram
    G0 = h0.gram
    G0p = h0_prime.gram

    C = np.linalg.solve(G0p, G0)
    R = np.linalg.solve(Gp, G)

    # The pairing Lim h0'([C, T^n] x, T^n y) splits into two power averages,
    # one with the kernel C* G0' and one with G0' alone; one pass over the
    # powers of T gives both sums at N and at N // 2.
    (twisted, plain), (twisted_half, plain_half) = _double_and_add(
        T, (C.conj().T @ G0p, G0p), T, N
    )

    def defect(twisted_sum, plain_sum, count: int) -> np.ndarray:
        Z = twisted_sum / count - C.conj().T @ (plain_sum / count)
        return np.linalg.solve(Gp, Z.conj().T)

    A = defect(twisted, plain, N)
    A_half = defect(twisted_half, plain_half, N // 2)
    cesaro_residual = relative_change(A_half, A)

    residuals = {
        "sum_rule": float(np.linalg.norm(R - C - A)) / max(1.0, float(np.linalg.norm(C))),
        "commutator_flip": relative_defect((A @ T - T @ A) + (C @ T - T @ C), C, T),
        "invariant_commutes": relative_defect(R @ T - T @ R, R, T),
    }
    return MetricChangeReport(
        fiducial_change=C,
        invariant_change=R,
        averaging_defect=A,
        horizon=N,
        residuals=residuals,
        cesaro_residual=cesaro_residual,
    )
