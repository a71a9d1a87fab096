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


# -- the triple's centre: a numerical unimodular scalar is read, not decided --


def _conjugated(s, ops):
    return [np.linalg.solve(s, m @ s) for m in ops]


def _recording_decisions(monkeypatch) -> list:
    """(operator, report) of each boundedness.check_uniformly_bounded call
    from now on."""
    decided = []
    real_check = boundedness.check_uniformly_bounded

    def recording_check(T, *args, **kwargs):
        decided.append((T, real_check(T, *args, **kwargs)))
        return decided[-1][1]

    monkeypatch.setattr(boundedness, "check_uniformly_bounded", recording_check)
    return decided


def test_a_reducible_triple_decides_its_centre(rng, monkeypatch):
    # the direct sum of the n = 3 and n = 4 triples has centre diag(w3 I, w4 I),
    # two clusters: no scalar, so all three operators are decided and averaged
    triple = [np.zeros((7, 7), dtype=complex) for _ in range(3)]
    for m, a, b in zip(triple, make_clock_shift(3), make_clock_shift(4)):
        m[:3, :3], m[3:, 3:] = a, b
    triple = _conjugated(invertible_with_condition(rng, 7, 10.0), triple)
    decided = _recording_decisions(monkeypatch)
    result = heisenberg_metric(*triple, None, CFG)
    operators = {stage.label: stage.operator for stage in result.stages}
    assert [id(T) for T, _ in decided] == [id(operators[label]) for label in ("t1", "t2", "t3")]
    centre = result.stages[1]
    assert centre.label == "t3" and np.array_equal(centre.operator, triple[2])
    assert sorted(map(len, centre.decomposition.clusters)) == [3, 4]
    assert max(result.unitarity_residuals.values()) <= 1e-10


def test_a_scalar_centre_off_the_circle_is_refused_as_before():
    # a scalar centre off the circle cannot satisfy the braid relation (its
    # determinant is not 1), so relation_tol admits the defect 0.05 / sqrt(3)
    shift, clock, center = make_clock_shift(3)
    t3 = 1.05 * center
    assert core.scalar_eig(t3, CFG) is None
    want = "t3: " + "; ".join(boundedness.check_uniformly_bounded(t3, CFG).reasons)
    assert "off the unit circle" in want
    with pytest.raises(NotUniformlyBounded) as refused:
        heisenberg_metric(shift, clock, t3, None, CFG, relation_tol=0.1)
    assert str(refused.value) == want


def _near_scalars():
    """(name, t3, whether core.scalar_eig gives a decomposition) for the
    n = 3 centre w I moved just inside and just past the scalar test's
    margins: ||E||_F against RANK_RTOL (1 + |mu|) / 2 = RANK_RTOL, |mu|
    against half the band and the band, and a Jordan-like w I + eps N."""
    n = 3
    w = np.exp(2j * np.pi / n) * np.eye(n)
    e = np.random.default_rng([32, 3]).standard_normal((n, n, 2)) @ [1.0, 1j]
    e -= np.trace(e) / n * np.eye(n)
    e /= np.linalg.norm(e)
    nil = np.diag(np.ones(n - 1), 1) / np.sqrt(n - 1)
    band = core._radii(CFG, 1.0)[1]
    rank = core.RANK_RTOL
    return [
        ("scalar", w, True),
        ("defect_inside", w + 0.99 * rank * e, True),
        ("defect_past", w + 1.01 * rank * e, False),
        ("defect_defective", w + 4.0 * rank * e, False),
        ("modulus_inside", (1.0 + 0.49 * band) * w, True),
        ("modulus_past_half_band", (1.0 + 0.51 * band) * w, False),
        ("modulus_past_band", (1.0 + 1.01 * band) * w, False),
        ("modulus_inside_below", (1.0 - 0.49 * band) * w, True),
        ("modulus_past_band_below", (1.0 - 1.01 * band) * w, False),
        ("jordan_inside", w + 0.99 * rank * nil, True),
        ("jordan_past", w + 1e-6 * nil, False),
    ]


@pytest.mark.parametrize("t3, fires", [c[1:] for c in _near_scalars()],
                         ids=[c[0] for c in _near_scalars()])
def test_the_scalar_centre_and_the_decision_reach_one_verdict(t3, fires):
    report = boundedness.check_uniformly_bounded(t3, CFG)
    scalar = core.scalar_eig(t3, CFG)
    assert (scalar is not None) is fires
    if fires:
        # wherever the scalar test passes, the decision says bounded with one
        # diagonalizable cluster
        assert report.bounded
        assert len(report.decomposition.clusters) == 1 and report.decomposition.diagonalizable
        assert scalar.clusters == report.decomposition.clusters
        assert scalar.band == pytest.approx(report.decomposition.band, rel=1e-6)
    shift, clock, _ = make_clock_shift(3)
    try:
        heisenberg_metric(shift, clock, t3, None, CFG, relation_tol=1e-3)
        verdict = "bounded"
    except NotUniformlyBounded as exc:
        verdict = str(exc)
    assert verdict == ("bounded" if report.bounded else "t3: " + "; ".join(report.reasons))


# seeds drawn for this test alone: (n, cond, draw) -> default_rng([32, n, cond, draw])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("cond, residual_bound, form_bound",
                         [(10.0, 1e-12, 1e-10), (100.0, 1e-12, 1e-10), (1e4, 1e-8, 1e-8)],
                         ids=["cond10", "cond100", "cond1e4"])
def test_conjugated_weyl_triples_hold_to_rounding(n, cond, residual_bound, form_bound):
    """The joint metric of S^-1 (shift, clock, w I) S is S* S up to scale.
    Averaged through a LAPACK basis of the centre's n-fold cluster, these
    n = 64 draws reached residuals of 2e-10 at cond 10 and 3e-11 at cond
    100; at cond 1e4 the t1 and t2 stages alone leave about 4e-10."""
    for draw in range(3):
        s = invertible_with_condition(np.random.default_rng([32, n, int(cond), draw]), n, cond)
        result = heisenberg_metric(*_conjugated(s, make_clock_shift(n)), None, CFG)
        assert max(result.unitarity_residuals.values()) <= residual_bound
        ref = s.conj().T @ s
        g = np.asarray(result.form.gram)
        assert np.linalg.norm(g / np.linalg.norm(g) - ref / np.linalg.norm(ref)) <= form_bound


# -- overlapped decisions: each construction's answer built as the norms finish --


def _weyl_and_pair(rng, n):
    """A Weyl triple and a commuting pair of dimension n, conjugated at
    cond 10; the pair's phases are jittered because rejection sampling of
    this many fails."""
    s = invertible_with_condition(rng, n, 10.0)
    triple = _conjugated(s, make_clock_shift(n))
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
    decided = _recording_decisions(monkeypatch)
    results = []
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        decided.clear()
        result = call()
        results.append(_family_bytes(result))
        # t1 and t2 decided in argument order, and each stage holds what its
        # verdict was read from; the triple's centre, a scalar, is not decided
        by_label = dict(zip(["t1", "t2"], decided))
        assert len(decided) == 2
        for stage in result.stages:
            if stage.label == "t3":
                dec = stage.decomposition
                assert dec.clusters == (tuple(range(n)),) and dec.diagonalizable
                assert np.array_equal(dec.eigenvectors, np.eye(n))
                assert stage.form is result.stages[0].form
                continue
            T, report = by_label[stage.label]
            assert stage.operator is T and stage.decomposition is report.decomposition
    assert results[1] == results[0]
    assert [isinstance(f, _Task) for f in submitted] == [False, False, True, True]
    assert all(f.done() for f in submitted[2:])


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-6])
def test_heisenberg_refuses_a_relation_tol_that_is_not_finite_and_non_negative(tol):
    # with a NaN bound every relation check passed, so (shift, clock^2,
    # center), whose braid residual is 1, came back as a joint metric
    shift, clock, center = make_clock_shift(3)
    with pytest.raises(InvalidInput, match="^relation_tol must be a finite non-negative number"):
        heisenberg_metric(shift, clock @ clock, center, None, CFG, relation_tol=tol)
