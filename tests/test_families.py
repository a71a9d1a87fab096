import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    InvalidInput,
    NotCommuting,
    NotUniformlyBounded,
    RelationViolated,
    ToleranceConfig,
    commuting_pair_metric,
    heisenberg_metric,
    make_clock_shift,
    multiplicity_free_shortcut,
)
from unitarize import boundedness, core
from unitarize.boundedness import bounded
from unitarize.core import _Task, as_operator_pair, invariance_residual
from unitarize.families import _averaged_metric
from unitarize.fixtures import (
    commuting_conjugated_pair,
    invertible_with_condition,
    jittered_unimodular_phases,
)

CFG = ToleranceConfig()


def unitarity_residual(T, G):
    return np.linalg.norm(T.conj().T @ G @ T - G) / np.linalg.norm(G)


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_clock_shift_relations(dim):
    shift, clock, center = make_clock_shift(dim)
    omega = np.exp(2j * np.pi / dim)
    assert_allclose(shift @ clock, omega * clock @ shift, atol=1e-14)
    assert_allclose(center, omega * np.eye(dim), atol=1e-14)
    assert_allclose(np.linalg.matrix_power(shift, dim), np.eye(dim), atol=1e-12)
    assert_allclose(np.linalg.matrix_power(clock, dim), np.eye(dim), atol=1e-12)


def test_clock_shift_equals_the_loop_built_shift():
    # benchmark inputs are built from make_clock_shift, so its shift must
    # keep the bits (and layout) of the loop that first filled it
    for dim in range(2, 129):
        want = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(dim):
            want[i, (i + 1) % dim] = 1.0
        shift = make_clock_shift(dim)[0]
        assert np.array_equal(shift, want) and shift.tobytes() == want.tobytes(), dim


def test_commuting_pair_metric(rng):
    t1, t2 = commuting_conjugated_pair(rng, 4, 20.0)
    result = commuting_pair_metric(t1, t2, None, CFG)
    G = result.form.gram
    assert unitarity_residual(t1, G) <= 1e-9
    assert unitarity_residual(t2, G) <= 1e-9
    labels = [stage.label for stage in result.stages]
    assert labels == ["t1", "t2"]
    # the first stage only handles t1
    G1 = result.stages[0].form.gram
    assert unitarity_residual(t1, G1) <= 1e-9


def test_commuting_pair_rejects_noncommuting():
    shift, clock, _ = make_clock_shift(3)
    with pytest.raises(NotCommuting):
        commuting_pair_metric(shift, clock, None, CFG)


def test_shortcut_valid_for_simple_spectrum(rng):
    t1, t2 = commuting_conjugated_pair(rng, 4, 15.0)
    report = multiplicity_free_shortcut(commuting_pair_metric(t1, t2, None, CFG))
    assert report.valid
    assert report.degenerate_cluster is None
    assert report.second_invariance_residual <= 1e-10


def _degenerate_pair():
    """t1 has a double eigenvalue; t2 commutes with t1 but mixes the
    degenerate plane non-unitarily, so stage one alone is not enough."""
    t1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    t2 = np.zeros((3, 3), dtype=complex)
    t2[:2, :2] = np.array([[1.0, 2.0], [0.0, -1.0]])
    t2[2, 2] = 1.0
    return t1, t2


def test_shortcut_counterexample_with_degenerate_cluster():
    t1, t2 = _degenerate_pair()
    assert np.linalg.norm(t1 @ t2 - t2 @ t1) == 0.0
    report = multiplicity_free_shortcut(commuting_pair_metric(t1, t2, None, CFG))
    assert not report.valid
    assert report.degenerate_cluster == 0
    assert report.second_invariance_residual > 0.1


def _shortcut_decided_again(t1, t2):
    """The shortcut's verdict, t1's first stage and the t2 residual, from t1
    decided and averaged on its own."""
    T1, T2 = as_operator_pair(t1, t2)
    with bounded(T1, CFG, "t1: ") as dec:
        degenerate = next((c for c, idx in enumerate(dec.clusters) if len(idx) > 1), None)
        first = _averaged_metric(T1, dec, None)
    residual = invariance_residual(T2, first.gram)
    return degenerate is None, degenerate, first.gram.tobytes(), np.float64(residual).tobytes()


@pytest.mark.parametrize("simple", [True, False], ids=["simple", "degenerate"])
def test_shortcut_read_off_the_pair_equals_a_second_decision(rng, simple):
    t1, t2 = commuting_conjugated_pair(rng, 4, 15.0) if simple else _degenerate_pair()
    pair = commuting_pair_metric(t1, t2, None, CFG)
    cut = multiplicity_free_shortcut(pair)
    got = (cut.valid, cut.degenerate_cluster, pair.stages[0].form.gram.tobytes(),
           np.float64(cut.second_invariance_residual).tobytes())
    assert got == _shortcut_decided_again(t1, t2)
    assert cut.valid is simple


def test_shortcut_reads_only_a_pair():
    with pytest.raises(InvalidInput, match="commuting_pair_metric result"):
        multiplicity_free_shortcut(heisenberg_metric(*make_clock_shift(3), None, CFG))


def test_degenerate_t1_with_unbounded_t2_is_not_bounded():
    # the shortcut reads a pair, so t2 is decided before any reading of t1
    t2 = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotUniformlyBounded, match="^t2: "):
        commuting_pair_metric(np.eye(2, dtype=complex), t2, None, CFG)


def test_heisenberg_metric_on_weyl_triple():
    for dim in (2, 3, 4):
        shift, clock, center = make_clock_shift(dim)
        result = heisenberg_metric(shift, clock, center, None, CFG)
        G = result.form.gram
        for T in (shift, clock, center):
            assert unitarity_residual(T, G) <= 1e-12
        assert set(result.unitarity_residuals) == {"t1", "t2", "t3"}


def test_heisenberg_metric_conjugated(rng):
    dim = 4
    shift, clock, center = make_clock_shift(dim)
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    S = np.eye(dim) + 0.3 * M / np.linalg.norm(M)
    Si = np.linalg.inv(S)
    result = heisenberg_metric(S @ shift @ Si, S @ clock @ Si, S @ center @ Si, None, CFG)
    G = result.form.gram
    for T in (shift, clock, center):
        assert unitarity_residual(S @ T @ Si, G) <= 1e-9


def test_heisenberg_rejects_wrong_relation():
    shift, clock, _ = make_clock_shift(3)
    with pytest.raises(RelationViolated):
        heisenberg_metric(shift, clock, np.eye(3, dtype=complex), None, CFG)


def _off_central_triple(commutes_with):
    """The n=3 Weyl triple with t3 turned by exp(1e-4 i H): H Hermitian and
    commuting with the named generator only, so t3 fails to commute with the
    other one at a relative residual near 1e-4."""
    shift, clock, center = make_clock_shift(3)
    H = np.diag([1.0, -1.0, 0.0]) if commutes_with == "t2" else shift + shift.conj().T
    w, V = np.linalg.eigh(H)
    return shift, clock, center @ ((V * np.exp(1e-4j * w)) @ V.conj().T)


@pytest.mark.parametrize("relation_tol, outcome", [(1e-3, "metric"), (1e-6, "violated")])
def test_heisenberg_checks_both_centrality_relations_alike(relation_tol, outcome):
    # Each relation is checked once, against relation_tol: a t3 that fails to
    # commute with t1 and one that fails with t2 meet the same fate.
    got = {}
    for fails_with, commutes_with in (("t1", "t2"), ("t2", "t1")):
        t1, t2, t3 = _off_central_triple(commutes_with)
        other = t1 if fails_with == "t1" else t2
        assert 1e-6 < np.linalg.norm(other @ t3 - t3 @ other) < 1e-3
        try:
            heisenberg_metric(t1, t2, t3, None, CFG, relation_tol=relation_tol)
            got[fails_with] = "metric"
        except RelationViolated as exc:
            assert f"{fails_with} t3 = t3 {fails_with}" in str(exc)
            got[fails_with] = "violated"
    assert got == {"t1": outcome, "t2": outcome}


# -- overlapped decisions: each construction's answer built as the norms finish --


def _weyl_and_pair(rng, n):
    """A Weyl triple and a commuting pair of dimension n, conjugated at
    cond 10; the pair's phases are jittered because rejection sampling of
    this many fails."""
    s = invertible_with_condition(rng, n, 10.0)
    triple = [np.linalg.solve(s, m @ s) for m in make_clock_shift(n)]
    d1, d2 = (np.exp(1j * jittered_unimodular_phases(rng, n, np.pi / n)) for _ in range(2))
    pair = [np.linalg.solve(s, d[:, None] * s) for d in (d1, d2)]
    return triple, pair


def _family_bytes(result):
    """Each stage's form and decomposition, the joint form, the residuals
    and, for a pair, the shortcut report read off it."""
    stages = [(s.label, s.form.gram.tobytes(), s.decomposition.eigenvalues.tobytes(),
               s.decomposition.eigenvectors.tobytes()) for s in result.stages]
    cut = [vars(multiplicity_free_shortcut(result))] if len(result.stages) == 2 else []
    return stages, result.form.gram.tobytes(), result.unitarity_residuals, cut


# at the decision's overlap cut (test_boundedness.N_CUT) and connect_n64's size
@pytest.mark.parametrize("construction, n", [
    ("commuting_pair_metric", 17), ("heisenberg_metric", 17),
    ("commuting_pair_metric", 64), ("heisenberg_metric", 64),
], ids=["commuting_pair_metric", "heisenberg_metric",
        "commuting_pair_metric-n64", "heisenberg_metric-n64"])
def test_overlapped_construction_equals_the_serial_one(rng, monkeypatch, submitted, construction, n):
    triple, pair = _weyl_and_pair(rng, n)
    call = {
        "commuting_pair_metric": lambda: commuting_pair_metric(*pair, None, CFG),
        "heisenberg_metric": lambda: heisenberg_metric(*triple, None, CFG),
    }[construction]
    decided = []
    real_check = boundedness.check_uniformly_bounded

    def recording_check(T, *args, **kwargs):
        decided.append((T, real_check(T, *args, **kwargs)))
        return decided[-1][1]

    monkeypatch.setattr(boundedness, "check_uniformly_bounded", recording_check)
    results = []
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        decided.clear()
        result = call()
        results.append(_family_bytes(result))
        # decided in argument order, and each stage holds what its verdict was read from
        by_label = dict(zip(["t1", "t2", "t3"], decided))
        assert len(decided) == len(result.stages)
        for stage in result.stages:
            T, report = by_label[stage.label]
            assert stage.operator is T and stage.decomposition is report.decomposition
    assert results[1] == results[0]
    decisions = 2 if construction == "commuting_pair_metric" else 3
    assert [isinstance(f, _Task) for f in submitted] == [False] * decisions + [True] * decisions
    assert all(f.done() for f in submitted[decisions:])


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-6])
def test_heisenberg_refuses_a_relation_tol_that_is_not_finite_and_non_negative(tol):
    # with a NaN bound every relation check passed, so (shift, clock^2,
    # center), whose braid residual is 1, came back as a joint metric
    shift, clock, center = make_clock_shift(3)
    with pytest.raises(InvalidInput, match="^relation_tol must be a finite non-negative number"):
        heisenberg_metric(shift, clock @ clock, center, None, CFG, relation_tol=tol)
