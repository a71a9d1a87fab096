"""Invariant metrics for operators with bounded power orbits.

The limit metric h_T(x, y) = Lim h0(T^n x, T^n y) is evaluated two
independent ways.  The closed form diagonalizes T and zeroes every
cross-cluster block of the fiducial Gram matrix in the eigenbasis, which is
exactly what averaging the almost periodic phase factors leaves behind.  The
finite Cesaro mean over an explicit horizon serves as a cross-check oracle
and never touches the eigendecomposition.

Both routes produce a positive similarity Q with Q^2 pulling h0 back to h_T,
so U = Q T Q^{-1} is unitary for h0.  A continuous analogue handles
generators X of bounded flows e^{tX}.  Every route, the family stages
included, builds its frozen Unitarization through one private builder,
_unitarization, which forms Q, the conjugate and the residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .boundedness import bounded, require_self_adjoint_like
from .core import (
    DEFAULT_TOLERANCES,
    DRIFT_RTOL,
    EigenDecomposition,
    HermitianForm,
    ToleranceConfig,
    as_operator,
    hermitize,
    invariance_residual,
    masked_block,
    relative_change,
    require_nonsingular,
    resolve_fiducial,
)
from .errors import (
    DivergenceDetected,
    InvalidInput,
    SingularShift,
    SlowConvergence,
)

# Partial averages whose norm exceeds this multiple of the kernel norm abort the Cesaro
# evaluation; a bounded T = S^-1 U S can reach it too once cond(S)^2 exceeds it (README).
DIVERGENCE_FACTOR = 1e6

METHOD_SPECTRAL = "spectral_projection"
METHOD_CESARO = "cesaro"


@dataclass(frozen=True, eq=False)
class Unitarization:
    """Invariant metric plus the positive similarity that makes T unitary.

    invariant_form       h_T, invariant under the operator
    positive_similarity  Q, positive for the fiducial form, with
                         h0(Q^2 x, y) = h_T(x, y); for the standard h0 it
                         is invariant_form.root's Q, read-only
    unitarized           U = Q T Q^{-1}, unitary for the fiducial form
    method               which construction produced the metric
    cesaro_residual      drift of the finite average (None for closed form)
    residuals            named consistency residuals, all relative
    decomposition        the EigenDecomposition of T the closed form was
                         averaged over, which unitary_log and phi_metric
                         read; None for a Cesaro mean, which never
                         decomposes, and for a flow, whose decomposition
                         belongs to -iX rather than to an evolution T
    """

    invariant_form: HermitianForm
    positive_similarity: np.ndarray
    unitarized: np.ndarray
    method: str
    cesaro_residual: float | None
    residuals: dict[str, float]
    decomposition: EigenDecomposition | None = None


def projected_gram(dec: EigenDecomposition, kernel: np.ndarray) -> np.ndarray:
    """Cesaro limit of (T^n)* K T^n for diagonalizable T with unimodular spectrum.

    In the eigenbasis the n-th pullback carries phase factors
    conj(lambda_i)^n lambda_j^n, which average to zero unless the two
    eigenvalues agree.  Keeping only same-cluster entries of the transformed
    kernel is therefore the exact limit: P^-* (mask o P* K P) P^-1.
    """
    Pi = dec.inverse
    return Pi.conj().T @ masked_block(dec, dec, kernel, dec.same_cluster_mask()) @ Pi


def _averaged_form(dec: EigenDecomposition, h0: HermitianForm) -> HermitianForm:
    """The closed-form invariant metric: h0 averaged over the bounded operator
    decomposed as dec."""
    return HermitianForm(hermitize(projected_gram(dec, h0.gram)))


def _unitarization(
    X: np.ndarray, form: HermitianForm, h0: HermitianForm, method: str,
    cesaro_residual: float | None = None, decomposition: EigenDecomposition | None = None,
    flow: bool = False,
) -> Unitarization:
    """The one builder of a Unitarization: the positive similarity Q with
    G0 Q^2 = g for form's Gram matrix g, the conjugate Q X Q^{-1}, and the
    relative residuals.  Q is form's root for the standard h0, else
    W^{-1} Qhat W with W h0's root and Qhat the root of W^{-1} g W^{-1}.
    X is an evolution, checked for invariance and unitarity, unless the flow
    route passes flow: then X is a generator, and flow_invariance and skewness
    are relative_change(A* G, -G A) for X and g, and for U and G0."""
    g, G0 = form.gram, h0.gram
    if h0.is_identity():
        Q, Qinv = form.root
    else:
        W, Winv = h0.root
        Qhat, Qhat_inv = HermitianForm(hermitize(Winv @ g @ Winv)).root
        Q = Winv @ Qhat @ W
        Qinv = Winv @ Qhat_inv @ W
    U = Q @ X @ Qinv
    if flow:
        residuals = {"flow_invariance": relative_change(X.conj().T @ g, -(g @ X)),
                     "skewness": relative_change(U.conj().T @ G0, -(G0 @ U))}
    else:
        residuals = {"invariance": invariance_residual(X, g),
                     "unitarity": invariance_residual(U, G0)}
    residuals["gram_match"] = relative_change(G0 @ Q @ Q, g)
    return Unitarization(form, Q, U, method, cesaro_residual, residuals, decomposition)


def _carried_decomposition(unitarization: Unitarization) -> EigenDecomposition:
    """The decomposition a closed-form unitarization was averaged over."""
    if unitarization.decomposition is None:
        raise InvalidInput(
            "a Cesaro or flow unitarization carries no eigendecomposition of "
            "its operator; take the closed form from invariant_metric"
        )
    return unitarization.decomposition


def invariant_metric(
    operator, h0=None, cfg: ToleranceConfig | None = None
) -> Unitarization:
    """Invariant metric and unitarizing similarity for a power-bounded operator.

    Raises NotUniformlyBounded, carrying the reasons, when the power orbit
    of the operator is unbounded.  The closed form is built while the
    decision's power norms finish (see boundedness.bounded).
    """
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0])
    with bounded(T, cfg) as dec:
        return _unitarization(T, _averaged_form(dec, h0), h0, METHOD_SPECTRAL, decomposition=dec)


def _next_powers(Lp, A, Rp, B, shared: bool):
    """Lp @ A and Rp @ B, with one product when both sides are the same."""
    P = Lp @ A
    return P, (P if shared else Rp @ B)


def _double_and_add(left, kernels, right, count: int) -> tuple[list, list]:
    """Partial sums S_count and S_{count // 2} of (L^n)* K R^n in one pass,
    one pair per kernel K in kernels, all from one chain of powers.

    Reads the bits of count from the top, with S_{2L} = S_L + (L^L)* S_L R^L
    and S_{L+1} = S_L + (L^L)* K R^L.  The leading bit gives S_1 = K with
    powers L and R; the S_{count // 2} sum is S just before the last bit.
    A power no later step reads is never formed, and when left is right
    (tested before as_operator copies) each power is formed once.  That is
    log2(count) matmuls for the powers of one shared operator, or
    2 log2(count) for two, plus 2 log2(count) per kernel for its sum.  Each
    S_{count // 2} is None for count 1.  A sum whose norm passes
    DIVERGENCE_FACTOR times its kernel norm and term count raises
    DivergenceDetected.

    The powers of each step are independent of its sum update, so from
    n = core.OVERLAP_MIN_DIM on, when core._overlaps holds, they are formed
    on one worker thread while the calling thread updates the sum; otherwise
    the calling thread forms them after the sum update.  Both modes run the
    same products on the same operands, so the matmul count and every bit of
    the result are the same.
    """
    shared = left is right
    L = as_operator(left)
    R = L if shared else as_operator(right)
    Ks = [as_operator(k) for k in kernels]
    if any(L.shape != K.shape or R.shape != K.shape for K in Ks):
        raise InvalidInput("operator and kernel dimensions differ")
    if not core._is_integer(count):
        raise InvalidInput("the horizon must be a positive integer")
    submit = core._overlap_submit(L.shape[0] >= core.OVERLAP_MIN_DIM)
    k_norms = [max(np.linalg.norm(K), 1e-300) for K in Ks]
    bits = bin(int(count))[2:]
    last = len(bits) - 1
    halves, powers = [None] * len(Ks), None
    for i, bit in enumerate(bits):
        if i == 0:
            sums, Lp, Rp, length = Ks, L, R, 1
        else:
            if i == last:
                halves = sums
            squares = i < last or bit == "1"
            if squares:
                powers = submit(_next_powers, Lp, Lp, Rp, Rp, shared)
            sums = [S + Lp.conj().T @ S @ Rp for S in sums]
            length *= 2
            if squares:
                Lp, Rp = powers.result()
            if bit == "1":
                if i < last:
                    powers = submit(_next_powers, Lp, L, Rp, R, shared)
                sums = [S + Lp.conj().T @ K @ Rp for S, K in zip(sums, Ks)]
                length += 1
                if i < last:
                    Lp, Rp = powers.result()
        if any(np.linalg.norm(S) > DIVERGENCE_FACTOR * k * length
               for S, k in zip(sums, k_norms)):
            # The traceback keeps this frame alive for as long as the caller
            # keeps the exception; release the n x n work arrays first.
            del L, R, Ks, sums, Lp, Rp, halves, powers
            raise DivergenceDetected(
                f"partial power averages exceeded {DIVERGENCE_FACTOR:.1e} times "
                f"the kernel norm after {length} terms"
            )
    return sums, halves


def mixed_pullback_mean(left, kernel, right, count: int) -> np.ndarray:
    """Exact mean of (L^n)* K R^n for n = 0 .. count-1 by double-and-add.

    One pass over the bits of count, whose prefix before the last bit is the
    sum at count // 2.  It takes about 4 log2(count) matmuls, or
    3 log2(count) when left is right and each power is formed once.  Under
    the overlap policy (n >= core.OVERLAP_MIN_DIM, two usable CPUs,
    BLAS pinned to one thread) each step's powers are formed on a worker
    thread while the sum updates, with the same matmul count and a
    bitwise-equal result.
    """
    return _double_and_add(left, (kernel,), right, count)[0][0] / count


def cesaro_oracle(operator, h0=None, horizon: int | None = None) -> tuple[HermitianForm, float]:
    """Finite Cesaro mean of the pulled-back fiducial metric.

    Returns the mean over the horizon (None: DEFAULT_TOLERANCES.cesaro_horizon
    terms) as a form, together with the relative drift between the
    full-horizon mean and the mean at half the horizon.
    Both come from one double-and-add pass (about 3 log2(horizon) matmuls):
    the sum at half the horizon is the prefix of the full sum before its
    last bit.  A drift above DRIFT_RTOL raises the SlowConvergence
    warning; partial sums past the divergence guard raise DivergenceDetected.
    Under the overlap policy each squaring runs on a worker thread while the
    sum updates, with the same matmul count and a bitwise-equal result.
    This path never looks at the spectrum, which is what makes it an
    independent oracle for the closed form.
    """
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0])
    N = DEFAULT_TOLERANCES.cesaro_horizon if horizon is None else horizon
    (full,), (half,) = _double_and_add(T, (h0.gram,), T, N)
    mean_full = hermitize(full / N)
    drift = 0.0
    if N >= 2:
        drift = relative_change(hermitize(half / (N // 2)), mean_full)
        if drift > DRIFT_RTOL:
            warnings.warn(
                f"power average still drifting at horizon {N}: relative "
                f"change {drift:.3e}",
                SlowConvergence,
                stacklevel=2,
            )
    return HermitianForm(mean_full), drift


def cesaro_unitarization(operator, h0=None, horizon: int | None = None) -> Unitarization:
    """Unitarization built from the finite Cesaro mean instead of the closed form."""
    T = as_operator(operator)
    h0 = resolve_fiducial(h0, T.shape[0])
    form, drift = cesaro_oracle(T, h0, horizon)
    return _unitarization(T, form, h0, METHOD_CESARO, drift)


def _mobius(numerator: np.ndarray, shift: np.ndarray, message: str) -> np.ndarray:
    """numerator shift^{-1}, the one step of both Cayley maps; SingularShift
    with message when shift is numerically singular."""
    require_nonsingular(shift, SingularShift, message)
    return np.linalg.solve(shift.T, numerator.T).T


def cayley(operator) -> np.ndarray:
    """Cayley map H -> (H - iI)(H + iI)^{-1}.

    Sends operators similar to self-adjoint ones to operators similar to
    unitaries, with the eigenvalue map z -> (z - i)/(z + i).  Raises
    SingularShift when H + iI is singular, which happens exactly when -i is
    an eigenvalue.
    """
    H = as_operator(operator)
    iI = 1j * np.eye(H.shape[0])
    return _mobius(H - iI, H + iI, "H + iI is numerically singular (eigenvalue -i)")


def inverse_cayley(operator) -> np.ndarray:
    """Inverse Cayley map T -> i(I + T)(I - T)^{-1}.

    Raises SingularShift when 1 is an eigenvalue of T.
    """
    T = as_operator(operator)
    eye = np.eye(T.shape[0])
    return _mobius(1j * (eye + T), eye - T, "I - T is numerically singular (eigenvalue 1)")


def unitary_log(unitarization: Unitarization) -> np.ndarray:
    """Generator A with exp(iA) = T and A self-adjoint for the invariant metric
    of a closed-form unitarization of T.

    Eigenvalue phases are taken in [0, 2pi), with phase 0 (not 2 pi) for the
    eigenvalue 1, and one shared phase per cluster, all read off the
    decomposition the unitarization carries.  A Cesaro or flow unitarization
    carries none and raises InvalidInput.
    """
    dec = _carried_decomposition(unitarization)
    return dec.spectral_function(dec.cluster_phases())


def flow_invariant_metric(
    generator, h0=None, cfg: ToleranceConfig | None = None
) -> Unitarization:
    """Invariant metric for a bounded one-parameter flow e^{tX}.

    The flow is bounded over all real t exactly when -iX is similar to a
    self-adjoint operator; anything else raises NotBoundedFlow.
    The returned unitarized matrix is Q X Q^{-1}, skew-adjoint for the
    fiducial form, and the invariant form satisfies X* G + G X = 0.
    """
    X = as_operator(generator)
    h0 = resolve_fiducial(h0, X.shape[0])
    dec = require_self_adjoint_like(-1j * X, cfg, "flow generator X, as -iX: ")
    return _unitarization(X, _averaged_form(dec, h0), h0, METHOD_SPECTRAL, flow=True)


def generator_metric(
    operator, cfg: ToleranceConfig | None = None
) -> tuple[HermitianForm, np.ndarray]:
    """Metric that makes a real-spectrum diagonalizable H self-adjoint.

    H is similar to self-adjoint exactly when its Cayley image is similar to
    unitary, and one metric does both jobs: the standard form averaged over
    the eigenclusters of H, which the image shares.  Returns the form and
    the Cayley image; raises NotBoundedFlow for any other H.
    """
    H = as_operator(operator)
    dec = require_self_adjoint_like(H, cfg)
    return _averaged_form(dec, resolve_fiducial(None, H.shape[0])), cayley(H)
