"""Joint invariant metrics for commuting families and Weyl triples.

Averaging over one operator preserves invariance under anything that
commutes with it, because the pullback by T1 of a T1-invariant metric
commutes with the averaging over T2 term by term.  Iterating the averaging
therefore produces one metric invariant under a whole commuting family.
The same staging handles discrete Weyl triples, where the two generators do
not commute with each other but both commute with the central element, and
the relations force the final metric to be invariant for all three.

Both constructions share one staged routine that decides each operator once
and keeps its decomposition beside its form; the shortcut reads a pair's.  A
numerical unimodular scalar, such as the central element of an irreducible
Weyl triple, is not decided at all: averaging over it changes no form.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .boundedness import bounded
from .core import (
    EigenDecomposition,
    HermitianForm,
    ToleranceConfig,
    _is_integer,
    _require_tolerance,
    as_operators,
    invariance_residual,
    relative_defect,
    resolve_fiducial,
    scalar_eig,
)
from .errors import InvalidInput, NotCommuting, RelationViolated
from .metrics import METHOD_SPECTRAL, _averaged_form, _unitarization

# Relative commutator size above which two operators do not count as
# commuting.  Conjugated commuting pairs built in floating point land around
# 1e-14 of scale; genuinely noncommuting pairs sit many orders higher.
COMMUTE_RTOL = 1e-8


class Stage(NamedTuple):
    """One averaging pass: the operator, the decomposition its verdict was
    read from, and the form averaged over it."""

    label: str
    operator: np.ndarray
    decomposition: EigenDecomposition
    form: HermitianForm


@dataclass(eq=False)
class FamilyResult:
    """Joint invariant metric with the intermediate stages kept for audit.

    stages lists one Stage per averaging pass, in averaging order, ending
    with the joint metric; each carries the decomposition its operator was
    decided and averaged with.  An operator that is numerically a unimodular
    scalar (core.scalar_eig) is neither decided nor averaged over: its stage
    carries the one-cluster decomposition of that scalar, with identity
    eigenvectors, and the form the stage was handed.  unitarity_residuals
    reports how far each generator is from unitary in the final metric.
    """

    form: HermitianForm
    stages: list[Stage]
    unitarity_residuals: dict[str, float]


def _averaged_metric(T: np.ndarray, dec: EigenDecomposition, h0: HermitianForm) -> HermitianForm:
    """invariant_metric's form for a T already decided bounded as dec, from
    a resolved fiducial form h0.

    Read off the full unitarization, square root included: the traced
    connect_n64 benchmark requires a core.psd_sqrt call, and this is its
    last caller there.  The root stays cached on the form, so a next stage
    that averages over this form as its fiducial does not root it again."""
    form = _averaged_form(dec, h0)
    return _unitarization(T, form, h0, METHOD_SPECTRAL, decomposition=dec).invariant_form


def _staged_metric(operators: dict[str, np.ndarray], order, h0, cfg) -> FamilyResult:
    """Resolve h0 before any decision, so a form of another size raises
    InvalidInput with no eig call; then decide each operator once, in
    argument order, average h0 over them in the stage order and read each
    residual in the joint metric.  An operator with a scalar_eig
    decomposition is not decided, and its stage keeps the form it was
    handed: averaging over a scalar is the identity."""
    form = resolve_fiducial(h0, operators[order[0]].shape[0])
    with ExitStack() as decided:
        decs, scalars = {}, set()
        for label, T in operators.items():
            decs[label] = scalar_eig(T, cfg)
            if decs[label] is None:
                decs[label] = decided.enter_context(bounded(T, cfg, f"{label}: "))
            else:
                scalars.add(label)
        stages = []
        for label in order:
            if label not in scalars:
                form = _averaged_metric(operators[label], decs[label], form)
            stages.append(Stage(label, operators[label], decs[label], form))
        residuals = {label: invariance_residual(T, form.gram) for label, T in operators.items()}
    return FamilyResult(form=form, stages=stages, unitarity_residuals=residuals)


def commuting_pair_metric(
    t1, t2, h0=None, cfg: ToleranceConfig | None = None
) -> FamilyResult:
    """Metric invariant under both members of a commuting pair.

    Stage one averages the fiducial metric over t1; stage two averages the
    result over t2.  The second averaging keeps t1-invariance: each term
    pulls a t1-invariant metric back through a power of t2, and the two
    operators commute, so every term is again t1-invariant and so is the
    cluster-projected limit.  h0 is resolved after the commutation gate and
    before either operator is decided, so a form of another size raises
    InvalidInput with no eig call.
    """
    T1, T2 = as_operators(t1, t2)
    res = relative_defect(T1 @ T2 - T2 @ T1, T1, T2)
    if res > COMMUTE_RTOL:
        raise NotCommuting(f"t1 and t2 do not commute: relative residual {res:.3e}")
    return _staged_metric({"t1": T1, "t2": T2}, ("t1", "t2"), h0, cfg)


@dataclass(eq=False)
class ShortcutReport:
    """Whether one averaging pass already suffices for a commuting pair.

    When t1 has simple spectrum (no degenerate cluster), anything commuting
    with it is a polynomial in it, and the t1-averaged metric is
    automatically invariant under t2.  A degenerate cluster breaks the
    argument; degenerate_cluster names t1's first such cluster, and the
    report carries the actual t2-invariance defect of the single-pass metric.
    """

    valid: bool
    degenerate_cluster: int | None
    second_invariance_residual: float


def multiplicity_free_shortcut(pair: FamilyResult) -> ShortcutReport:
    """Whether the pair's first stage, h0 averaged over t1 alone, is already
    invariant under t2: read off a commuting_pair_metric result, from t1's
    decomposition and the first stage's form, with nothing decided again."""
    if [stage.label for stage in pair.stages] != ["t1", "t2"]:
        raise InvalidInput("the shortcut reads a commuting_pair_metric result")
    first, second = pair.stages
    degenerate = first.decomposition.degenerate_clusters
    return ShortcutReport(
        valid=not degenerate,
        degenerate_cluster=degenerate[0] if degenerate else None,
        second_invariance_residual=invariance_residual(second.operator, first.form.gram),
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
    relative defect above relation_tol raises RelationViolated (a
    relation_tol that is not finite and non-negative, InvalidInput).
    Averaging runs over the commuting pair (t1, t3) first and over t2
    second.  The exchange relation turns t2-pullback into a t3-twisted
    t1-pullback, which is why the final metric stays invariant under t1 and
    t3 as well.  h0 is resolved after the relations and before any operator
    is decided, so a form of another size raises InvalidInput with no eig
    call.

    The centre of an irreducible triple is a scalar w I (Schur's lemma), and
    averaging over a scalar is the identity map.  So a t3 that is
    numerically a unimodular scalar, mu = tr t3 / n with
    ||t3 - mu I||_F <= RANK_RTOL (1 + |mu|) / 2 and
    ||mu| - 1| + ||t3 - mu I||_F <= band / 2 (core.scalar_eig, with eig's
    band), is not decided: its stage keeps the t1 stage's form.  With these
    factor-2 margins check_uniformly_bounded calls any such t3 bounded with
    one diagonalizable cluster.  Any other t3 (a reducible triple's centre,
    a scalar off the circle) is decided and averaged over as t1 and t2 are,
    with the same verdict and message.  A clock-shift triple with the
    standard h0 then takes 2 eig, 2 eigh (the roots), 4 inv (two
    eigenvector matrices, two roots) and 4 eigvalsh (the forms'
    validations), and per decision the SVDs of the singularity test, the
    power-norm stacks and cond(P): 12 SVDs at n = 64.
    """
    _require_tolerance("relation_tol", relation_tol)
    T1, T2, T3 = as_operators(t1, t2, t3)

    defects = {
        "t1 t2 = t3 t2 t1": relative_defect(T1 @ T2 - T3 @ T2 @ T1, T1, T2),
        "t1 t3 = t3 t1": relative_defect(T1 @ T3 - T3 @ T1, T1, T3),
        "t2 t3 = t3 t2": relative_defect(T2 @ T3 - T3 @ T2, T2, T3),
    }
    broken = [f"{rel} (residual {res:.3e})" for rel, res in defects.items() if res > relation_tol]
    if broken:
        raise RelationViolated("; ".join(broken))
    return _staged_metric({"t1": T1, "t2": T2, "t3": T3}, ("t1", "t3", "t2"), h0, cfg)


def make_clock_shift(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cyclic shift, clock, and central phase of the dimension-d Weyl triple.

    Returns (shift, clock, center) with shift mapping basis vector e_j to
    e_{j-1} cyclically, clock = diag(1, w, ..., w^{d-1}) for w = e^{2 pi i/d},
    and center = w I.  They satisfy shift clock = center clock shift, so the
    triple (shift, clock, center) feeds heisenberg_metric directly.  For
    dim = 2 these are the swap, the diagonal sign flip, and -I.
    """
    if not _is_integer(dim, minimum=2):
        raise InvalidInput("the Weyl triple needs integer dimension at least 2")
    d = int(dim)
    omega = np.exp(2j * np.pi / d)
    try:
        shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=1)
        clock = np.diag(omega ** np.arange(d)).astype(np.complex128)
        center = omega * np.eye(d, dtype=np.complex128)
    # numpy refuses a size past its index range, and the allocator one past memory
    except (ValueError, MemoryError) as exc:
        raise InvalidInput(f"the Weyl triple of dimension {d} is too large to build") from exc
    return shift, clock, center
