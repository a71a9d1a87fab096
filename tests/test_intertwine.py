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
from unitarize.core import _Task, resolve_fiducial
from unitarize.fixtures import (
    conjugated_unitary,
    jittered_unimodular_phases,
    positive_definite_fixture,
    unimodular_phases,
)
from unitarize.metrics import _spectral_unitarization

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
            Q = _spectral_unitarization(np.asarray(t), dec, h0).positive_similarity
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


@pytest.mark.parametrize("fiducial", ["identity", "general"])
def test_scaled_connector_matches_the_frame_construction(rng, fiducial):
    n = 6
    for _ in range(5):
        phases = unimodular_phases(rng, n, min_gap=0.3)
        T1, _, _ = conjugated_unitary(rng, n, 30.0, phases)
        T2, _, _ = conjugated_unitary(rng, n, 30.0, phases)
        h0 = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
        weights = {(k, k): complex(*rng.standard_normal(2)) for k in range(n)}
        got = intertwiner_scaled(T1, T2, weights, h0, CFG)
        want = _scaled_connector_via_frames(T1, T2, weights, h0)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(T1 @ got - got @ T2) <= 1e-9 * np.linalg.norm(got)


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


def test_scaled_connector_requires_simple_spectra():
    T1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(InvalidInput):
        intertwiner_scaled(T1, T1, 1.0, cfg=CFG)


@pytest.mark.parametrize("degenerate", ["t1", "t2"])
def test_scaled_connector_refuses_degenerate_spectra_before_averaging(monkeypatch, degenerate):
    averaged = []
    monkeypatch.setattr(intertwine, "_averaged_form", lambda *args: averaged.append(args))
    double = np.diag([1.0, 1.0, -1.0]).astype(complex)
    simple = np.diag([1.0, -1.0, 1j])
    T1, T2 = (double, simple) if degenerate == "t1" else (simple, double)
    with pytest.raises(InvalidInput, match="multiplicity-free"):
        intertwiner_scaled(T1, T2, 1.0, cfg=CFG)
    assert averaged == []


def test_are_intertwined_detects_violations(rng):
    shift, clock, _ = make_clock_shift(3)
    A = intertwiner_scaled(clock, shift, 1.0, cfg=CFG)
    assert are_intertwined(clock, shift, A)
    assert not are_intertwined(shift, clock, A)
    with pytest.warns(UserWarning, match="zero"):
        assert are_intertwined(clock, shift, np.zeros((3, 3)))


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
