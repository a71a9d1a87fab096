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
    EigenDecomposition,
    ToleranceConfig,
    adjoint_wrt,
    as_operator,
    as_operator_pair,
    cluster_pairing,
    invert,
    resolve_fiducial,
)
from .errors import InvalidInput, WeightOnUnmatchedPair
from .metrics import _averaged_form, mixed_pullback_mean

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
    relation_residuals   named relative residuals of the exchange and
                         consistency identities
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
    T1, T2 = as_operator_pair(t1, t2)
    h0 = resolve_fiducial(h0, T1.shape[0])
    with bounded(T1, cfg, "t1: ") as dec1, bounded(T2, cfg, "t2: ") as dec2:
        return _averaged_connection(T1, dec1, T2, dec2, h0)


def _averaged_connection(T1, dec1, T2, dec2, h0: HermitianForm) -> IntertwineResult:
    """intertwiner's closed form and certificate, from the two decompositions
    and the resolved fiducial form."""
    matched = dec1.match(dec2)
    common = (dec1.cluster_means()[:, None] + dec2.cluster_means()[None, :])[matched] / 2.0

    G0 = np.asarray(h0.gram)
    mask = matched[np.ix_(dec1.labels, dec2.labels)]
    Z = cluster_pairing(dec1, dec2, G0, mask)  # matrix of the limit form: x* Z y
    A0 = np.linalg.solve(G0, Z)

    G1 = np.asarray(_averaged_form(dec1, h0).gram)
    form2 = _averaged_form(dec2, h0)
    G2 = np.asarray(form2.gram)
    A1 = np.linalg.solve(G1, G0 @ A0)
    A2 = np.linalg.solve(G2, G0 @ A0)

    a_scale = 1.0 + float(np.linalg.norm(A0))
    t_scale = 1.0 + max(float(np.linalg.norm(T1)), float(np.linalg.norm(T2)))
    q1_sq = np.linalg.solve(G0, G1)
    q2_sq = np.linalg.solve(G0, G2)
    adj1_inv = invert(adjoint_wrt(T1, h0), "fiducial adjoint of t1")
    adj2_inv = invert(adjoint_wrt(T1, form2), "invariant adjoint of t1")
    residuals = {
        "q1_consistency": float(np.linalg.norm(A0 - q1_sq @ A1)) / a_scale,
        "q2_consistency": float(np.linalg.norm(A0 - q2_sq @ A2)) / a_scale,
        "fiducial_exchange": float(np.linalg.norm(A0 @ T2 - adj1_inv @ A0))
        / (a_scale * t_scale),
        "first_metric_exchange": float(np.linalg.norm(A1 @ T2 - T1 @ A1))
        / (a_scale * t_scale),
        "second_metric_exchange": float(np.linalg.norm(A2 @ T2 - adj2_inv @ A2))
        / (a_scale * t_scale),
    }

    norm_a0 = float(np.linalg.norm(A0))
    nonzero = norm_a0 > ZERO_RTOL * max(1.0, float(np.linalg.norm(G0)))
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


def mixed_cesaro(
    t1, t2, h0=None, horizon: int | None = None, cfg: ToleranceConfig | None = None
) -> np.ndarray:
    """Finite mean of (T1^n)* G0 T2^n, the oracle for the averaged pairing.

    Returns the matrix Z_N of the finite pairing; the connecting map at
    horizon N is G0^{-1} Z_N.  Never touches either eigendecomposition.
    When t2 is t1 the one converted operator goes to both sides, so each
    power is formed once.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T1 = as_operator(t1)
    T2 = T1 if t2 is t1 else as_operator(t2)
    G0 = np.asarray(resolve_fiducial(h0, T1.shape[0]).gram)
    N = int(horizon if horizon is not None else cfg.cesaro_horizon)
    return mixed_pullback_mean(T1, G0, T2, N)


def _unit_eigenvectors(dec: EigenDecomposition, G: np.ndarray) -> np.ndarray:
    """The eigenvectors of a multiplicity-free spectrum, each scaled to unit
    length in the metric with Gram matrix G."""
    P = dec.eigenvectors
    return P / np.sqrt(np.einsum("ij,ij->j", P.conj(), G @ P).real)


def intertwiner_scaled(
    t1, t2, weights, h0=None, cfg: ToleranceConfig | None = None
) -> np.ndarray:
    """Intertwiner with prescribed weights on the matched eigenvalue pairs.

    The averaged pairing fixes one coefficient per shared eigenvalue; this
    constructor replaces those coefficients with arbitrary nonzero weights,
    which still yields T1 A = A T2 because each rank-one term joins an
    eigenvector of T1 to an eigenvector of T2 at the same eigenvalue.
    weights is a scalar applied to every matched pair, or a mapping from
    index pairs (position in t1's sorted spectrum, position in t2's) to
    values; a weight on an unmatched pair raises WeightOnUnmatchedPair.
    Both spectra must be multiplicity-free (checked before any averaging).

    With p_k and q_j the eigenvectors of T1 and T2 and G1, G2 their averaged
    metrics over h0, the map is A = sum of c p_k q_j* G2 / (|p_k|_G1 |q_j|_G2):
    each term sends the h_T2-unit eigenvector q_j to c times the h_T1-unit
    eigenvector p_k and annihilates the other eigenvectors of T2.
    """
    T1, T2 = as_operator_pair(t1, t2)
    n = T1.shape[0]
    h0 = resolve_fiducial(h0, n)
    with bounded(T1, cfg, "t1: ") as dec1, bounded(T2, cfg, "t2: ") as dec2:
        if dec1.degenerate_clusters or dec2.degenerate_clusters:
            raise InvalidInput("weighted connecting maps need multiplicity-free spectra; "
                               "a degenerate eigenvalue cluster was found")
        G1, G2 = (np.asarray(_averaged_form(dec, h0).gram) for dec in (dec1, dec2))
    left = _unit_eigenvectors(dec1, G1)
    right = G2 @ _unit_eigenvectors(dec2, G2)
    matched = dec1.match(dec2)  # simple spectra: cluster k is eigenvalue k

    if isinstance(weights, Mapping):
        table = {}
        for key, val in weights.items():
            pair = (int(key[0]), int(key[1]))
            if not (0 <= min(pair) and max(pair) < n and matched[pair]):
                raise WeightOnUnmatchedPair(
                    f"eigenvalue positions {pair} are not a shared eigenvalue "
                    f"of the two operators"
                )
            table[pair] = complex(val)
    else:
        table = dict.fromkeys(zip(*np.nonzero(matched)), complex(weights))

    A = np.zeros((n, n), dtype=np.complex128)
    for (k, q), c in table.items():
        if c != 0:
            A += c * np.outer(left[:, k], right[:, q].conj())
    return A


def are_intertwined(t1, t2, connector) -> bool:
    """Check T1 A = A T2 up to a relative tolerance.

    An identically zero connector satisfies the relation trivially; that
    case returns True with a warning rather than pretending to certify
    anything.
    """
    T1 = as_operator(t1)
    T2 = as_operator(t2)
    A = as_operator(connector)
    if T1.shape != T2.shape or A.shape != T1.shape:
        raise InvalidInput("dimension mismatch between operators and connector")
    a_norm = float(np.linalg.norm(A))
    t_scale = 1.0 + max(float(np.linalg.norm(T1)), float(np.linalg.norm(T2)))
    if a_norm <= ZERO_RTOL:
        warnings.warn(
            "the connector is numerically zero, so the exchange relation "
            "holds vacuously",
            stacklevel=2,
        )
        return True
    res = float(np.linalg.norm(T1 @ A - A @ T2)) / (a_norm * t_scale)
    return res <= 1e-8
