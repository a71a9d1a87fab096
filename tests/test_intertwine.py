import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    DEFAULT_TOLERANCES,
    HermitianForm,
    InvalidInput,
    ToleranceConfig,
    WeightOnUnmatchedPair,
    are_intertwined,
    intertwiner,
    intertwiner_scaled,
    make_clock_shift,
    mixed_cesaro,
)
from unitarize import core, intertwine
from unitarize.boundedness import bounded
from unitarize.core import _Task, hermitize, invariance_residual, masked_block, resolve_fiducial
from unitarize.fixtures import (
    conjugated_unitary,
    jittered_unimodular_phases,
    positive_definite_fixture,
    unimodular_phases,
)
from unitarize.metrics import METHOD_SPECTRAL, _averaged_form, _unitarization

CFG = ToleranceConfig()


def test_connector_relations_on_shared_spectrum(rng):
    n = 4
    phases = unimodular_phases(rng, n)
    T1, _, _ = conjugated_unitary(rng, n, 20.0, phases)
    T2, _, _ = conjugated_unitary(rng, n, 20.0, phases)
    h0 = HermitianForm(positive_definite_fixture(rng, n, 4.0))
    result = intertwiner(T1, T2, h0, CFG)
    assert result.nonzero
    assert result.rank == n
    assert len(result.common_eigenvalues) == n
    for key, value in result.relation_residuals.items():
        assert value <= 1e-8, key
    # the second-metric connector exchanges the two operators
    assert are_intertwined(T1, T2, result.in_first_metric)


def test_connector_vanishes_for_disjoint_spectra():
    T1 = np.diag([1.0, -1.0]).astype(complex)
    T2 = np.diag([1j, -1j])
    result = intertwiner(T1, T2, None, CFG)
    assert not result.nonzero
    assert result.rank == 0
    assert np.linalg.norm(result.in_fiducial_metric) <= 1e-10


def test_connector_keeps_only_shared_eigenvalues():
    T1 = np.diag([1.0, 1j])
    T2 = np.diag([1.0, -1j])
    result = intertwiner(T1, T2, None, CFG)
    assert result.rank == 1
    assert len(result.common_eigenvalues) == 1
    assert_allclose(result.common_eigenvalues[0], 1.0, atol=1e-12)


def test_connector_matches_finite_mixed_average(rng):
    n = 3
    phases = unimodular_phases(rng, n, min_gap=0.3)
    T1, _, _ = conjugated_unitary(rng, n, 8.0, phases)
    T2, _, _ = conjugated_unitary(rng, n, 8.0, phases)
    result = intertwiner(T1, T2, None, CFG)
    averaged = mixed_cesaro(T1, T2, None, horizon=1 << 22, cfg=CFG)
    scale = max(np.linalg.norm(result.in_fiducial_metric), 1e-300)
    assert np.linalg.norm(averaged - result.in_fiducial_metric) <= 1e-4 * scale


def _shared_pair(rng, n, cond):
    """T_i = S_i^-1 D S_i for one unimodular diagonal D, and the averaged map
    for the standard h0 in closed form: the mean of (T1^k)* T2^k keeps the
    entries of S1^-* S2^-1 between equal phases, S1* (same o S1^-* S2^-1) S2."""
    phases = jittered_unimodular_phases(rng, n, margin=1.5 * np.pi / n)
    T1, S1, _ = conjugated_unitary(rng, n, cond, phases)
    T2, S2, _ = conjugated_unitary(rng, n, cond, phases)
    same = phases[:, None] == phases[None, :]
    inner = np.linalg.inv(S1).conj().T @ np.linalg.inv(S2)
    return T1, T2, S1.conj().T @ (same * inner) @ S2


@pytest.mark.parametrize("cond", [1e3, 1e4])
@pytest.mark.parametrize("n", [16, 64])
def test_ill_conditioned_shared_pairs_are_answered(n, cond):
    """No residual inverts an adjoint of T1, so a pair whose adjoints are
    numerically singular still gets its map, and the map is right."""
    for k in range(6):
        T1, T2, want = _shared_pair(np.random.default_rng([31, n, int(cond), k]), n, cond)
        result = intertwiner(T1, T2, None, CFG)
        assert result.nonzero and result.rank == n
        got = result.in_fiducial_metric
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
        for key, value in result.relation_residuals.items():
            assert value <= 1e-6, key


@pytest.mark.parametrize("fiducial", ["identity", "general"])
def test_block_maps_are_the_averaged_form_solves(rng, fiducial):
    """A1 and A2, built from the decompositions' blocks, are G_i^-1 G0 A0
    for the validated averaged forms G_i, on shared and half-shared spectra."""
    for n, cond in ((4, 10.0), (16, 100.0), (64, 100.0)):
        phases = jittered_unimodular_phases(rng, n, margin=1.5 * np.pi / n)
        other = phases.copy()
        other[::2] += np.pi / n
        for phases2 in (phases, other):
            T1, _, _ = conjugated_unitary(rng, n, cond, phases)
            T2, _, _ = conjugated_unitary(rng, n, cond, phases2)
            g = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
            h0 = resolve_fiducial(g, n)
            result = intertwiner(T1, T2, h0, CFG)
            Z = h0.gram @ result.in_fiducial_metric
            for t, got in ((T1, result.in_first_metric), (T2, result.in_second_metric)):
                with bounded(t, CFG) as dec:
                    want = np.linalg.solve(_averaged_form(dec, h0).gram, Z)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            for key, value in result.relation_residuals.items():
                assert value <= 1e-11, key


def _shared_decisions(rng, n, cond):
    phases = jittered_unimodular_phases(rng, n, margin=1.5 * np.pi / n)
    T1, _, _ = conjugated_unitary(rng, n, cond, phases)
    T2, _, _ = conjugated_unitary(rng, n, cond, phases)
    with bounded(T1, CFG) as dec1, bounded(T2, CFG) as dec2:
        pass
    return T1, dec1, T2, dec2


@pytest.mark.parametrize("fiducial", ["identity", "general"])
def test_q_residuals_are_the_invariance_of_the_metrics_the_maps_are_written_in(rng, fiducial):
    """q{i}_consistency is invariance_residual(T_i, G_i) for the metric
    G_i = P_i^-* C_i P_i^-1 that A_i is written against."""
    for n, cond in ((4, 10.0), (16, 1e3)):
        T1, dec1, T2, dec2 = _shared_decisions(rng, n, cond)
        g = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
        h0 = resolve_fiducial(g, n)
        result = intertwine._averaged_connection(T1, dec1, T2, dec2, h0)
        for key, T, d in (("q1_consistency", T1, dec1), ("q2_consistency", T2, dec2)):
            C = hermitize(masked_block(d, d, np.asarray(h0.gram), d.same_cluster_mask()))
            G = d.inverse.conj().T @ C @ d.inverse
            assert result.relation_residuals[key] == invariance_residual(T, G), key


def test_a_perturbed_eigenbasis_shows_in_its_q_residual(rng):
    """One eigenvector column of t1 off by a relative 1e-4 writes A1 against
    a metric T1 does not preserve, and q1_consistency reports it; the
    identity A0 - G0^-1 G1 A1 it replaced stayed at rounding level."""
    T1, dec1, T2, dec2 = _shared_decisions(rng, 16, 10.0)
    h0 = resolve_fiducial(None, 16)
    P = dec1.eigenvectors.copy()
    k = int(rng.integers(16))
    kick = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    P[:, k] += 1e-4 * np.linalg.norm(P[:, k]) * kick / np.linalg.norm(kick)
    bent = dataclasses.replace(dec1, eigenvectors=P)
    clean = intertwine._averaged_connection(T1, dec1, T2, dec2, h0).relation_residuals
    residuals = intertwine._averaged_connection(T1, bent, T2, dec2, h0).relation_residuals
    assert clean["q1_consistency"] <= 1e-12
    assert residuals["q1_consistency"] > 1e-6
    assert residuals["q2_consistency"] == clean["q2_consistency"]


def test_scaled_connector_reproduces_fourier_matrix():
    dim = 4
    shift, clock, _ = make_clock_shift(dim)
    A = intertwiner_scaled(clock, shift, 1.0, cfg=CFG)
    omega = np.exp(2j * np.pi / dim)
    dft = np.array(
        [[omega ** (-(k * j)) for j in range(dim)] for k in range(dim)]
    ) / np.sqrt(dim)
    assert_allclose(A, dft, atol=1e-12)
    assert np.linalg.norm(clock @ A - A @ shift) <= 1e-12


def _scaled_connector_via_frames(t1, t2, weights, h0):
    """intertwiner_scaled as first built: each eigenvector pushed through
    the positive similarity Q of its operator's unitarization to an
    h0-orthonormal frame, then pulled back through Q1^-1 on the left and
    Q2 on the right."""
    h0 = resolve_fiducial(h0, len(t1))
    G0 = np.asarray(h0.gram)
    Qs, frames = [], []
    for t in (t1, t2):
        with bounded(t, DEFAULT_TOLERANCES) as dec:
            form = _averaged_form(dec, h0)
            Q = _unitarization(np.asarray(t), form, h0, METHOD_SPECTRAL).positive_similarity
        frame = Q @ dec.eigenvectors
        frame /= np.sqrt(np.einsum("ij,ij->j", frame.conj(), G0 @ frame).real)
        Qs.append(Q)
        frames.append(frame)
    A = np.zeros_like(G0)
    for (k, q), c in weights.items():
        left = np.linalg.inv(Qs[0]) @ frames[0][:, k]
        right = (Qs[1] @ frames[1][:, q]).conj() @ G0
        A += c * np.outer(left, right)
    return A


def _shifted_spectra(rng, n, cond, shifted):
    """Two operators of dimension n on n + 1 sorted, spread phases: t2 takes
    the first n, and t1 the same ones or, with shifted, the last n, so that
    eigenvalue k of t1 is eigenvalue k + 1 of t2."""
    phases = np.sort(np.mod(jittered_unimodular_phases(rng, n + 1, 0.5 / n), 2.0 * np.pi))
    T1, _, _ = conjugated_unitary(rng, n, cond, phases[1:] if shifted else phases[:n])
    T2, _, _ = conjugated_unitary(rng, n, cond, phases[:n])
    return T1, T2


def _assert_matches_the_frames(T1, T2, weights, h0):
    got = intertwiner_scaled(T1, T2, weights, h0, CFG)
    want = _scaled_connector_via_frames(T1, T2, weights, h0)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(T1 @ got - got @ T2) <= 1e-9 * np.linalg.norm(got)


@pytest.mark.parametrize("fiducial", ["identity", "general"])
def test_scaled_connector_matches_the_frame_construction(rng, fiducial):
    n = 6
    for _ in range(5):
        phases = unimodular_phases(rng, n, min_gap=0.3)
        T1, _, _ = conjugated_unitary(rng, n, 30.0, phases)
        T2, _, _ = conjugated_unitary(rng, n, 30.0, phases)
        h0 = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
        weights = {(k, k): complex(*rng.standard_normal(2)) for k in range(n)}
        _assert_matches_the_frames(T1, T2, weights, h0)
    # n = 64, the matched pairs on the diagonal or one off it, one weight zero
    n = 64
    for cond in (10.0, 100.0):
        for shifted in (False, True):
            T1, T2 = _shifted_spectra(rng, n, cond, shifted)
            h0 = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
            pairs = [(k, k + shifted) for k in range(n - shifted)]
            weights = {pair: complex(*rng.standard_normal(2)) for pair in pairs}
            weights[pairs[rng.integers(len(pairs))]] = 0.0
            _assert_matches_the_frames(T1, T2, weights, h0)


def test_scaled_connector_is_linear_in_the_weight():
    shift, clock, _ = make_clock_shift(3)
    A1 = intertwiner_scaled(clock, shift, 1.0, cfg=CFG)
    A3 = intertwiner_scaled(clock, shift, 3.0, cfg=CFG)
    assert_allclose(A3, 3.0 * A1, atol=1e-12)


def test_scaled_connector_single_pair():
    T1 = np.diag([1.0, -1.0]).astype(complex)
    T2 = np.diag([-1.0, 1.0]).astype(complex)
    A = intertwiner_scaled(T1, T2, {(1, 1): 2.0}, cfg=CFG)
    assert_allclose(A, np.array([[0.0, 0.0], [2.0, 0.0]]), atol=1e-12)
    assert np.linalg.norm(T1 @ A - A @ T2) <= 1e-12


def test_scaled_connector_rejects_unmatched_weight():
    T1 = np.diag([1.0, -1.0]).astype(complex)
    T2 = np.diag([1.0, 1j])
    with pytest.raises(WeightOnUnmatchedPair):
        intertwiner_scaled(T1, T2, {(1, 1): 1.0}, cfg=CFG)


@pytest.mark.parametrize("weights, named", [
    ({0: 1.0}, "0"),
    ({(0,): 1.0}, "(0,)"),
    ({("a", 0): 1.0}, "('a', 0)"),
    ({(0, 0.5): 1.0}, "(0, 0.5)"),
    ({(0, 0): float("nan")}, "nan"),
    ({(0, 0): float("inf")}, "inf"),
    ({(0, 0): "1"}, "'1'"),
    (float("nan"), "nan"),
    (None, "None"),
])
def test_scaled_connector_refuses_malformed_weights(weights, named):
    T = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(InvalidInput, match="weight") as caught:
        intertwiner_scaled(T, T, weights, cfg=CFG)
    assert f"got {named}" in str(caught.value)


def test_scaled_connector_takes_zero_and_numpy_weights():
    T = np.diag([1.0, -1.0]).astype(complex)
    A = intertwiner_scaled(T, T, {(np.int64(0), 0): np.float32(2.0), (1, 1): 0}, cfg=CFG)
    assert_allclose(A, np.diag([2.0, 0.0]), atol=1e-12)
    assert np.array_equal(intertwiner_scaled(T, T, 0.0, cfg=CFG), np.zeros((2, 2)))


def test_scaled_connector_requires_simple_spectra():
    T1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(InvalidInput):
        intertwiner_scaled(T1, T1, 1.0, cfg=CFG)


@pytest.mark.parametrize("degenerate", ["t1", "t2"])
def test_scaled_connector_refuses_degenerate_spectra_before_averaging(degenerate):
    # the refusal comes before the weights are read: a weight on a pair that
    # is not shared would raise WeightOnUnmatchedPair
    double = np.diag([1.0, 1.0, -1.0]).astype(complex)
    simple = np.diag([1.0, -1.0, 1j])
    T1, T2 = (double, simple) if degenerate == "t1" else (simple, double)
    for weights in (1.0, {(5, 5): 1.0}):
        with pytest.raises(InvalidInput, match="multiplicity-free"):
            intertwiner_scaled(T1, T2, weights, cfg=CFG)


def test_are_intertwined_detects_violations(rng):
    shift, clock, _ = make_clock_shift(3)
    A = intertwiner_scaled(clock, shift, 1.0, cfg=CFG)
    assert are_intertwined(clock, shift, A)
    assert not are_intertwined(shift, clock, A)
    with pytest.warns(UserWarning, match="zero"):
        assert are_intertwined(clock, shift, np.zeros((3, 3)))
    # only an identically zero connector is vacuous: a small one is judged
    # relative to its own norm, like any other
    T = np.diag(np.exp([0.1j, 0.7j, 2j]))
    R = rng.standard_normal((3, 3))
    assert not are_intertwined(T, T, R)
    assert not are_intertwined(T, T, 1e-11 * R)
    assert are_intertwined(T, T, 1e-11 * np.eye(3))


# the decision's overlap cut (test_boundedness.N_CUT) and connect_n64's size
@pytest.mark.parametrize("n", [17, 64])
def test_overlapped_intertwiner_equals_the_serial_one(rng, monkeypatch, submitted, n):
    """The second decision's eig and the connecting map run while the worker
    finishes the power norms; the result is the serial one bit for bit.  The
    operators share half their eigenvalues."""
    phases = jittered_unimodular_phases(rng, n, np.pi / n)
    other = phases.copy()
    other[::2] += np.pi / n
    T1, _, _ = conjugated_unitary(rng, n, 10.0, phases)
    T2, _, _ = conjugated_unitary(rng, n, 10.0, other)
    results = []
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        r = intertwiner(T1, T2, None, CFG)
        results.append((r.in_fiducial_metric.tobytes(), r.in_first_metric.tobytes(),
                        r.in_second_metric.tobytes(), r.common_eigenvalues, r.rank,
                        r.relation_residuals))
    assert results[0][4] == n // 2
    assert results[1] == results[0]
    assert [isinstance(f, _Task) for f in submitted] == [False, False, True, True]
    assert all(f.done() for f in submitted[2:])
