import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    NotCommuting,
    RelationViolated,
    ToleranceConfig,
    commuting_pair_metric,
    heisenberg_metric,
    make_clock_shift,
    multiplicity_free_shortcut,
)
from unitarize.fixtures import commuting_conjugated_pair

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


def test_commuting_pair_metric(rng):
    t1, t2 = commuting_conjugated_pair(rng, 4, 20.0)
    result = commuting_pair_metric(t1, t2, None, CFG)
    G = result.form.gram
    assert unitarity_residual(t1, G) <= 1e-9
    assert unitarity_residual(t2, G) <= 1e-9
    labels = [label for label, _ in result.stages]
    assert labels == ["t1", "t2"]
    # the first stage only handles t1
    G1 = result.stages[0][1].gram
    assert unitarity_residual(t1, G1) <= 1e-9


def test_commuting_pair_rejects_noncommuting():
    shift, clock, _ = make_clock_shift(3)
    with pytest.raises(NotCommuting):
        commuting_pair_metric(shift, clock, None, CFG)


def test_shortcut_valid_for_simple_spectrum(rng):
    t1, t2 = commuting_conjugated_pair(rng, 4, 15.0)
    report = multiplicity_free_shortcut(t1, t2, None, CFG)
    assert report.valid
    assert report.degenerate_cluster is None
    assert report.second_invariance_residual <= 1e-10


def test_shortcut_counterexample_with_degenerate_cluster():
    # t1 has a double eigenvalue; t2 commutes with t1 but mixes the
    # degenerate plane non-unitarily, so stage one alone is not enough
    t1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    t2 = np.zeros((3, 3), dtype=complex)
    t2[:2, :2] = np.array([[1.0, 2.0], [0.0, -1.0]])
    t2[2, 2] = 1.0
    assert np.linalg.norm(t1 @ t2 - t2 @ t1) == 0.0
    report = multiplicity_free_shortcut(t1, t2, None, CFG)
    assert not report.valid
    assert report.degenerate_cluster is not None
    assert report.second_invariance_residual > 0.1


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
