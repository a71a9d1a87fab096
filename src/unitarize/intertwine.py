"""Averaged connecting maps between two power-bounded operators.

Pairing the fiducial metric against powers of two different operators and
averaging leaves exactly the spectral overlap: the limit of the means of
h0(T1^n x, T2^n y) is a sesquilinear form supported on shared eigenvalues.
Its representing matrices, taken in the fiducial metric and in the two
invariant metrics, exchange the operators, so a nonzero limit produces an
explicit intertwiner and a zero limit certifies spectral disjointness.
Which eigenvalues the two spectra share is decided in core, by
EigenDecomposition.match with its radius rule and near-match warning.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .boundedness import bounded
from .core import (
    DEFAULT_TOLERANCES,
    HermitianForm,
    ToleranceConfig,
    _finite_array,
    _is_integer,
    _shown,
    as_operators,
    hermitize,
    invariance_residual,
    masked_block,
    relative_change,
    resolve_fiducial,
)
from .errors import InvalidInput, WeightOnUnmatchedPair
from .metrics import mixed_pullback_mean

# The averaged pairing counts as zero below this relative size; the closed
# form returns an exact zero for disjoint spectra, so the threshold only has
# to absorb rounding in the nonzero case.
ZERO_RTOL = 1e-10


@dataclass(eq=False)
class IntertwineResult:
    """Averaged pairing of two operators in three metric representations.

    in_fiducial_metric   A0 with Lim mean h0(T1^n x, T2^n y) = h0(x, A0 y)
    in_first_metric      A1, the same form written against h_{T1}; satisfies
                         T1 A1 = A1 T2 on the nose
    in_second_metric     A2, the same form written against h_{T2}
    common_eigenvalues   matched cluster means shared by the two spectra
    nonzero              whether the pairing survives the averaging
    rank                 numerical rank of A0 (0 when the pairing vanishes)
    relation_residuals   named relative residuals: the invariance of the two
                         metrics and the three exchange relations

    With P_i the eigenvectors of T_i, C_i the block of P_i* G0 P_i on T_i's
    own clusters and M the block of P1* G0 P2 on the matched clusters, the
    limit form is Z = P1^-* M P2^-1, and A0 = G0^-1 Z, A1 = P1 C1^-1 M P2^-1
    and A2 = P2 C2^-1 P2* Z: no averaged form is validated, no adjoint inverted.
    A_i is written against G_i = P_i^-* C_i P_i^-1, and q{i}_consistency is
    that metric's invariance residual ||T_i* G_i T_i - G_i|| / ||G_i||, the
    rule Unitarization and FamilyResult report: a wrong eigenbasis or block
    shows in it.  Each *_exchange key is T1 A = A T2 in its metric, read as
    the relative change of T1's side against A T2 (core.relative_change).
    """

    in_fiducial_metric: np.ndarray
    in_first_metric: np.ndarray
    in_second_metric: np.ndarray
    common_eigenvalues: tuple[complex, ...]
    nonzero: bool
    rank: int
    relation_residuals: dict[str, float]


def intertwiner(
    t1, t2, h0=None, cfg: ToleranceConfig | None = None
) -> IntertwineResult:
    """Averaged connecting map between two power-bounded operators.

    The closed form transforms the fiducial Gram matrix into the two
    eigenbases and keeps exactly the blocks on matched eigenvalue clusters;
    disjoint spectra give an identically zero map, which is a positive
    certificate, not an error.
    """
    T1, T2 = as_operators(t1, t2)
    h0 = resolve_fiducial(h0, T1.shape[0])
    with bounded(T1, cfg, "t1: ") as dec1, bounded(T2, cfg, "t2: ") as dec2:
        return _averaged_connection(T1, dec1, T2, dec2, h0)


def _averaged_connection(T1, dec1, T2, dec2, h0: HermitianForm) -> IntertwineResult:
    """intertwiner's closed form and certificate, from the blocks of the two
    decompositions (IntertwineResult gives the formulas) by products and
    solves only.  T1's inverted adjoint for a metric G sends A to
    G^-1 T1^-* G A = G^-1 W with W = T1^-* Z, so each exchange residual,
    relative_change(G^-1 W, A T2), takes one solve against T1*, found
    nonsingular by its decision, and the invariance residuals rebuild G_i
    by products.  Beyond the two decisions that is six solves (two each
    against G0 and C2, one each against C1 and T1*) and the rank's SVD."""
    solve, norm = np.linalg.solve, np.linalg.norm
    matched = dec1.match(dec2)
    common = (dec1.cluster_means()[:, None] + dec2.cluster_means()[None, :])[matched] / 2.0

    G0 = h0.gram
    mask = matched[np.ix_(dec1.labels, dec2.labels)]
    M = masked_block(dec1, dec2, G0, mask)
    Z = dec1.inverse.conj().T @ M @ dec2.inverse  # matrix of the limit form: x* Z y
    A0 = solve(G0, Z)

    C1, C2 = (hermitize(masked_block(d, d, G0, d.same_cluster_mask())) for d in (dec1, dec2))
    P1, P2 = dec1.eigenvectors, dec2.eigenvectors
    A1 = P1 @ solve(C1, M) @ dec2.inverse
    A2 = P2 @ solve(C2, P2.conj().T @ Z)
    G1, G2 = (d.inverse.conj().T @ C @ d.inverse for d, C in ((dec1, C1), (dec2, C2)))
    W = solve(T1.conj().T, Z)

    residuals = {"q1_consistency": invariance_residual(T1, G1),
                 "q2_consistency": invariance_residual(T2, G2),
                 "fiducial_exchange": relative_change(solve(G0, W), A0 @ T2),
                 "first_metric_exchange": relative_change(T1 @ A1, A1 @ T2),
                 "second_metric_exchange":
                     relative_change(P2 @ solve(C2, P2.conj().T @ W), A2 @ T2)}

    norm_a0 = float(norm(A0))
    nonzero = norm_a0 > ZERO_RTOL * max(1.0, float(norm(G0)))
    rank = 0
    if nonzero:
        rank = int(np.linalg.matrix_rank(A0, tol=ZERO_RTOL * max(1.0, norm_a0)))
    return IntertwineResult(
        in_fiducial_metric=A0,
        in_first_metric=A1,
        in_second_metric=A2,
        common_eigenvalues=tuple(common.tolist()),
        nonzero=nonzero,
        rank=rank,
        relation_residuals=residuals,
    )


def mixed_cesaro(t1, t2, h0=None, horizon: int | None = None) -> np.ndarray:
    """Finite mean of (T1^n)* G0 T2^n, the oracle for the averaged pairing.

    Returns the matrix Z_N of the finite pairing over N = horizon terms
    (None: DEFAULT_TOLERANCES.cesaro_horizon); the connecting map at
    horizon N is G0^{-1} Z_N.  Never touches either eigendecomposition.
    When t2 is t1 the one converted operator goes to both sides, so each
    power is formed once.
    """
    T1, T2 = as_operators(t1) * 2 if t2 is t1 else as_operators(t1, t2)
    G0 = resolve_fiducial(h0, T1.shape[0]).gram
    N = DEFAULT_TOLERANCES.cesaro_horizon if horizon is None else horizon
    return mixed_pullback_mean(T1, G0, T2, N)


def intertwiner_scaled(
    t1, t2, weights, h0=None, cfg: ToleranceConfig | None = None
) -> np.ndarray:
    """Intertwiner with prescribed weights on the matched eigenvalue pairs.

    The averaged pairing fixes one coefficient per shared eigenvalue; this
    constructor replaces those coefficients with arbitrary finite weights,
    zero included, which still yields T1 A = A T2 because each rank-one term
    joins an eigenvector of T1 to an eigenvector of T2 at the same eigenvalue.
    weights is a scalar applied to every matched pair, or a mapping from
    index pairs (position in t1's sorted spectrum, position in t2's) to
    values; a weight on an unmatched pair raises WeightOnUnmatchedPair, and
    any other key or value InvalidInput.
    Both spectra must be multiplicity-free (checked before the weights are read).

    With p_k and q_j the eigenvectors of T1 and T2 and G1, G2 their averaged
    metrics over h0, the map is the sum of c p_k q_j* G2 / (|p_k|_G1 |q_j|_G2):
    each term sends the h_T2-unit eigenvector q_j to c times the h_T1-unit
    eigenvector p_k and annihilates the other eigenvectors of T2.  For a
    simple spectrum G = P^-* diag(d^2) P^-1 with d = sqrt(diag(P* G0 P)), so
    |p_k|_G = d_k and q_j* G2 is d2_j^2 times row j of P2^-1, and the sum is
    the product A = P1 (C o d1^-1 d2^T) P2^-1, with C the matrix of weights:
    two products with G0, two with the eigenvector matrices, and the one
    inverse P2^-1.
    """
    T1, T2 = as_operators(t1, t2)
    n = T1.shape[0]
    G0 = resolve_fiducial(h0, n).gram
    with bounded(T1, cfg, "t1: ") as dec1, bounded(T2, cfg, "t2: ") as dec2:
        if dec1.degenerate_clusters or dec2.degenerate_clusters:
            raise InvalidInput("weighted connecting maps need multiplicity-free spectra; "
                               "a degenerate eigenvalue cluster was found")
        d1, d2 = (np.sqrt(np.einsum("ij,ij->j", P.conj(), G0 @ P).real)
                  for P in (dec1.eigenvectors, dec2.eigenvectors))
    matched = dec1.match(dec2)  # simple spectra: cluster k is eigenvalue k

    for val in weights.values() if isinstance(weights, Mapping) else [weights]:
        message = f"a weight must be a finite number, got {_shown(val)}"
        if not isinstance(val, (int, float, complex, np.number)):
            raise InvalidInput(message)
        _finite_array(val, message, message)
    if not isinstance(weights, Mapping):  # one weight on every matched pair
        weights = dict.fromkeys(map(tuple, np.argwhere(matched)), weights)
    C = np.zeros((n, n), dtype=np.complex128)
    for key, val in weights.items():
        if not (isinstance(key, tuple) and len(key) == 2 and all(_is_integer(k, 0) for k in key)):
            raise InvalidInput(
                f"a weight key must be a pair of integer positions, got {_shown(key)}")
        pair = (int(key[0]), int(key[1]))
        if not (max(pair) < n and matched[pair]):
            raise WeightOnUnmatchedPair(
                f"eigenvalue positions {pair} are not a shared eigenvalue of the two operators")
        C[pair] = complex(val)
    return dec1.eigenvectors @ (C * (d2 / d1[:, None])) @ dec2.inverse


def are_intertwined(t1, t2, connector) -> bool:
    """Check T1 A = A T2: relative_change(T1 A, A T2) <= 1e-8.

    An identically zero connector satisfies the relation trivially; that
    case returns True with a warning rather than pretending to certify
    anything.
    """
    T1, T2, A = as_operators(t1, t2, connector)
    if not A.any():
        warnings.warn("the connector is zero, so the exchange relation holds vacuously",
                      stacklevel=2)
        return True
    return relative_change(T1 @ A, A @ T2) <= 1e-8
