"""Invariant metrics for operators with bounded power orbits.

The limit metric h_T(x, y) = Lim h0(T^n x, T^n y) is evaluated two
independent ways.  The closed form diagonalizes T and zeroes every
cross-cluster block of the fiducial Gram matrix in the eigenbasis, which is
exactly what averaging the almost periodic phase factors leaves behind.  The
finite Cesaro mean over an explicit horizon serves as a cross-check oracle
and never touches the eigendecomposition.

Both routes produce a positive similarity Q with Q^2 pulling h0 back to h_T,
so U = Q T Q^{-1} is unitary for h0.  A continuous analogue handles
generators X of bounded flows e^{tX}.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .boundedness import VERDICT_SELF_ADJOINT_LIKE, check_generator, require_bounded
from .core import (
    DEFAULT_TOLERANCES,
    EigenDecomposition,
    HermitianForm,
    ToleranceConfig,
    as_operator,
    cluster_pairing,
    eig,
    hermitize,
    invariance_residual,
    invert,
    psd_sqrt,
    require_nonsingular,
    resolve_fiducial,
    spectral_band,
)
from .errors import (
    DivergenceDetected,
    InvalidInput,
    NotBoundedFlow,
    SingularShift,
    SlowConvergence,
)

# Partial averages whose norm exceeds this multiple of the kernel norm abort
# the Cesaro evaluation; a bounded orbit can never reach it.
DIVERGENCE_FACTOR = 1e6

METHOD_SPECTRAL = "spectral_projection"
METHOD_CESARO = "cesaro"


@dataclass(eq=False)
class Unitarization:
    """Invariant metric plus the positive similarity that makes T unitary.

    invariant_form       h_T, invariant under the operator
    positive_similarity  Q, positive for the fiducial form, with
                         h0(Q^2 x, y) = h_T(x, y)
    unitarized           U = Q T Q^{-1}, unitary for the fiducial form
    method               which construction produced the metric
    cesaro_residual      drift of the finite average (None for closed form)
    residuals            named consistency residuals, all relative
    """

    invariant_form: HermitianForm
    positive_similarity: np.ndarray
    unitarized: np.ndarray
    method: str
    cesaro_residual: float | None
    residuals: dict[str, float]


def projected_gram(dec: EigenDecomposition, kernel: np.ndarray) -> np.ndarray:
    """Cesaro limit of (T^n)* K T^n for diagonalizable T with unimodular spectrum.

    In the eigenbasis the n-th pullback carries phase factors
    conj(lambda_i)^n lambda_j^n, which average to zero unless the two
    eigenvalues agree.  Keeping only same-cluster entries of the transformed
    kernel is therefore the exact limit.
    """
    return cluster_pairing(dec, dec, kernel, dec.same_cluster_mask())


def _positive_similarity(
    g_invariant: np.ndarray, h0: HermitianForm
) -> tuple[np.ndarray, np.ndarray]:
    """Q positive for h0 with G0 Q^2 = G_T; returns (Q, Q^{-1})."""
    if h0.is_identity():
        Q = psd_sqrt(g_invariant)
        return Q, invert(Q, "positive similarity")
    W = psd_sqrt(h0.gram)
    Winv = invert(W, "fiducial square root")
    hat = hermitize(Winv @ g_invariant @ Winv)
    Qhat = psd_sqrt(hat)
    Q = Winv @ Qhat @ W
    Qinv = Winv @ invert(Qhat, "normalized similarity") @ W
    return Q, Qinv


def _similarity_from_gram(X: np.ndarray, g_raw: np.ndarray, h0: HermitianForm, cfg):
    """Shared steps of both constructions: the hermitized invariant Gram
    matrix g and its form, the positive similarity Q with G0 Q^2 = g, the
    conjugate Q X Q^{-1}, and the relative gram_match residual."""
    g = hermitize(g_raw)
    form = HermitianForm(g, psd_tol=cfg.psd_tol)
    Q, Qinv = _positive_similarity(g, h0)
    gram_match = float(np.linalg.norm(h0.gram @ Q @ Q - g)) / np.linalg.norm(g)
    return g, form, Q, Q @ X @ Qinv, gram_match


def _unitarization_from_gram(
    T: np.ndarray,
    g_raw: np.ndarray,
    h0: HermitianForm,
    cfg: ToleranceConfig,
    method: str,
    cesaro_residual: float | None,
) -> Unitarization:
    g, form, Q, U, gram_match = _similarity_from_gram(T, g_raw, h0, cfg)
    residuals = {
        "invariance": invariance_residual(T, g),
        "unitarity": invariance_residual(U, h0.gram),
        "gram_match": gram_match,
    }
    return Unitarization(
        invariant_form=form,
        positive_similarity=Q,
        unitarized=U,
        method=method,
        cesaro_residual=cesaro_residual,
        residuals=residuals,
    )


def _checked_invariant_gram(T: np.ndarray, unitarization: Unitarization) -> np.ndarray:
    """Gram matrix of a unitarization supplied for T, checked to be T-invariant."""
    g = np.asarray(unitarization.invariant_form.gram)
    if g.shape[0] != T.shape[0]:
        raise InvalidInput("operator and unitarization dimensions differ")
    inv_res = invariance_residual(T, g)
    if inv_res > 1e-6:
        raise InvalidInput(
            f"the supplied metric is not invariant under this operator "
            f"(residual {inv_res:.3e})"
        )
    return g


def _spectral_unitarization(
    T: np.ndarray, dec: EigenDecomposition, h0: HermitianForm, cfg: ToleranceConfig
) -> Unitarization:
    """Closed-form unitarization of a bounded T from its decomposition and a
    resolved fiducial form."""
    g = projected_gram(dec, np.asarray(h0.gram))
    return _unitarization_from_gram(T, g, h0, cfg, METHOD_SPECTRAL, None)


def invariant_metric(
    operator, h0=None, cfg: ToleranceConfig | None = None
) -> Unitarization:
    """Invariant metric and unitarizing similarity for a power-bounded operator.

    Raises NotUniformlyBounded, carrying the reasons, when the power orbit
    of the operator is unbounded.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0], cfg)
    return _spectral_unitarization(T, require_bounded(T, cfg), h0, cfg)


def _double_and_add(
    left, kernel, right, count: int, guard: float | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Partial sums S_count and S_{count // 2} of (L^n)* K R^n in one pass.

    Reads the bits of count from the top, with S_{2L} = S_L + (L^L)* S_L R^L
    and S_{L+1} = S_L + (L^L)* K R^L.  The leading bit gives S_1 = K with
    powers L and R; the S_{count // 2} sum is S just before the last bit.
    A power no later step reads is never formed, and when left is right
    (tested before as_operator copies) each power is formed once.  That is
    3 log2(count) matmuls with one shared operator and 4 log2(count)
    otherwise.  S_{count // 2} is None for count 1.
    """
    shared = left is right
    L = as_operator(left)
    R = L if shared else as_operator(right)
    K = as_operator(kernel)
    if L.shape != K.shape or R.shape != K.shape:
        raise InvalidInput("operator and kernel dimensions differ")
    if count < 1:
        raise InvalidInput("the horizon must be a positive integer")
    k_norm = max(np.linalg.norm(K), 1e-300)
    bits = bin(int(count))[2:]
    last = len(bits) - 1
    half = None
    for i, bit in enumerate(bits):
        if i == 0:
            S, Lp, Rp, length = K, L, R, 1
        else:
            if i == last:
                half = S
            S = S + Lp.conj().T @ S @ Rp
            length *= 2
            if i < last or bit == "1":
                Lp = Lp @ Lp
                Rp = Lp if shared else Rp @ Rp
            if bit == "1":
                S = S + Lp.conj().T @ K @ Rp
                length += 1
                if i < last:
                    Lp = Lp @ L
                    Rp = Lp if shared else Rp @ R
        if guard is not None and np.linalg.norm(S) > guard * k_norm * length:
            # The traceback keeps this frame alive for as long as the caller
            # keeps the exception; release the n x n work arrays first.
            del L, R, K, S, Lp, Rp, half
            raise DivergenceDetected(
                f"partial power averages exceeded {guard:.1e} times the kernel "
                f"norm after {length} terms"
            )
    return S, half


def power_pullback_mean(
    operator, kernel, count: int, guard: float | None = DIVERGENCE_FACTOR
) -> np.ndarray:
    """Exact mean of (T^n)* K T^n for n = 0 .. count-1.

    Evaluated by binary double-and-add on the partial sums, using
    S_{2L} = S_L + (T^L)* S_L T^L and S_{L+1} = S_L + (T^L)* K T^L, so the
    result is the literal finite sum reassociated into a fixed-shape tree.
    T sits on both sides, so each power is formed once: about 3 log2(count)
    matmuls in one pass.
    """
    return mixed_pullback_mean(operator, kernel, operator, count, guard)


def mixed_pullback_mean(
    left, kernel, right, count: int, guard: float | None = DIVERGENCE_FACTOR
) -> np.ndarray:
    """Exact mean of (L^n)* K R^n for n = 0 .. count-1 by double-and-add.

    One pass over the bits of count, whose prefix before the last bit is the
    sum at count // 2.  It takes about 4 log2(count) matmuls, or
    3 log2(count) when left is right and each power is formed once.
    """
    return _double_and_add(left, kernel, right, count, guard)[0] / count


def cesaro_oracle(
    operator,
    h0=None,
    horizon: int | None = None,
    cfg: ToleranceConfig | None = None,
) -> tuple[HermitianForm, float]:
    """Finite Cesaro mean of the pulled-back fiducial metric.

    Returns the mean over the horizon as a form, together with the relative
    drift between the full-horizon mean and the mean at half the horizon.
    Both come from one double-and-add pass (about 3 log2(horizon) matmuls):
    the sum at half the horizon is the prefix of the full sum before its
    last bit.  A drift above cesaro_rel_tol raises the SlowConvergence
    warning; partial sums past the divergence guard raise DivergenceDetected.
    This path never looks at the spectrum, which is what makes it an
    independent oracle for the closed form.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0], cfg)
    N = int(horizon if horizon is not None else cfg.cesaro_horizon)
    if N < 1:
        raise InvalidInput("the horizon must be a positive integer")
    full, half = _double_and_add(T, h0.gram, T, N, DIVERGENCE_FACTOR)
    mean_full = hermitize(full / N)
    drift = 0.0
    if N >= 2:
        mean_part = hermitize(half / (N // 2))
        drift = float(
            np.linalg.norm(mean_full - mean_part) / max(np.linalg.norm(mean_full), 1e-300)
        )
        if drift > cfg.cesaro_rel_tol:
            warnings.warn(
                f"power average still drifting at horizon {N}: relative "
                f"change {drift:.3e}",
                SlowConvergence,
                stacklevel=2,
            )
    form = HermitianForm(mean_full, psd_tol=cfg.psd_tol)
    return form, drift


def cesaro_unitarization(
    operator,
    h0=None,
    horizon: int | None = None,
    cfg: ToleranceConfig | None = None,
) -> Unitarization:
    """Unitarization built from the finite Cesaro mean instead of the closed form."""
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0], cfg)
    form, drift = cesaro_oracle(T, h0, horizon, cfg)
    return _unitarization_from_gram(
        T, np.asarray(form.gram), h0, cfg, METHOD_CESARO, drift
    )


def cayley(operator) -> np.ndarray:
    """Cayley map H -> (H - iI)(H + iI)^{-1}.

    Sends operators similar to self-adjoint ones to operators similar to
    unitaries, with the eigenvalue map z -> (z - i)/(z + i).  Raises
    SingularShift when H + iI is singular, which happens exactly when -i is
    an eigenvalue.
    """
    H = as_operator(operator)
    n = H.shape[0]
    shift = H + 1j * np.eye(n)
    require_nonsingular(
        shift, SingularShift, "H + iI is numerically singular (eigenvalue -i)"
    )
    return np.linalg.solve(shift.T, (H - 1j * np.eye(n)).T).T


def inverse_cayley(operator) -> np.ndarray:
    """Inverse Cayley map T -> i(I + T)(I - T)^{-1}.

    Raises SingularShift when 1 is an eigenvalue of T.
    """
    T = as_operator(operator)
    n = T.shape[0]
    shift = np.eye(n) - T
    require_nonsingular(
        shift, SingularShift, "I - T is numerically singular (eigenvalue 1)"
    )
    return np.linalg.solve(shift.T, (1j * (np.eye(n) + T)).T).T


def unitary_log(
    operator, unitarization: Unitarization, cfg: ToleranceConfig | None = None
) -> np.ndarray:
    """Generator A with exp(iA) = T and A self-adjoint for the invariant metric.

    Eigenvalue phases are taken in [0, 2pi), with phase 0 (not 2 pi) for the
    eigenvalue 1, and one shared phase per cluster.  The supplied
    unitarization must belong to the same operator; its metric is checked
    for invariance before use.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    _checked_invariant_gram(T, unitarization)
    dec = eig(T, cfg)
    phases = []
    for mean in dec.cluster_means():
        theta = float(np.mod(np.angle(mean), 2.0 * np.pi))
        # An eigenvalue within the cluster radius of 1 gets phase 0, so the
        # wrap point of the angle convention cannot leak a spurious 2 pi.
        if 2.0 * np.pi - theta <= dec.cluster_tol:
            theta = 0.0
        phases.append(theta)
    return dec.spectral_function(phases)


def flow_invariant_metric(
    generator, h0=None, cfg: ToleranceConfig | None = None
) -> Unitarization:
    """Invariant metric for a bounded one-parameter flow e^{tX}.

    The flow is bounded over all real t exactly when X is diagonalizable
    with purely imaginary spectrum; anything else raises NotBoundedFlow.
    The returned unitarized matrix is Q X Q^{-1}, skew-adjoint for the
    fiducial form, and the invariant form satisfies X* G + G X = 0.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    X = as_operator(generator)
    h0 = resolve_fiducial(h0, X.shape[0], cfg)
    dec = eig(X, cfg)
    band = spectral_band(dec.operator_norm, cfg)
    off_axis = [lam for lam in dec.eigenvalues if abs(lam.real) > band]
    if off_axis:
        listed = ", ".join(f"{lam:.6g}" for lam in off_axis[:4])
        raise NotBoundedFlow(f"spectrum leaves the imaginary axis: {listed}")
    if not dec.diagonalizable:
        raise NotBoundedFlow("a purely imaginary eigenvalue is defective")
    g_raw = projected_gram(dec, np.asarray(h0.gram))
    g, form, Q, skew, gram_match = _similarity_from_gram(X, g_raw, h0, cfg)
    scale = max(1.0, dec.operator_norm)
    residuals = {
        "flow_invariance": float(np.linalg.norm(X.conj().T @ g + g @ X))
        / (np.linalg.norm(g) * scale),
        "skewness": float(
            np.linalg.norm(skew.conj().T @ h0.gram + h0.gram @ skew)
        )
        / (np.linalg.norm(h0.gram) * scale),
        "gram_match": gram_match,
    }
    return Unitarization(
        invariant_form=form,
        positive_similarity=Q,
        unitarized=skew,
        method=METHOD_SPECTRAL,
        cesaro_residual=None,
        residuals=residuals,
    )


def generator_metric(
    operator, cfg: ToleranceConfig | None = None
) -> tuple[HermitianForm, np.ndarray]:
    """Metric that makes a real-spectrum diagonalizable H self-adjoint.

    Routed through the Cayley map: H is similar to self-adjoint exactly when
    its Cayley image is similar to unitary, and the invariant metric of the
    image does both jobs.  Returns the form and the Cayley image.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    H = as_operator(operator)
    report = check_generator(H, cfg)
    if report.verdict != VERDICT_SELF_ADJOINT_LIKE:
        raise NotBoundedFlow(
            "operator is not similar to a self-adjoint one: "
            + (
                f"off-real eigenvalues {[f'{z:.6g}' for z in report.off_real]}"
                if report.off_real
                else f"defective eigenvalues {[f'{z:.6g}' for z in report.defective]}"
            )
        )
    image = cayley(H)
    result = invariant_metric(image, None, cfg)
    return result.invariant_form, image
