import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    DivergenceDetected,
    SlowConvergence,
    HermitianForm,
    NotBoundedFlow,
    NotUniformlyBounded,
    SingularShift,
    ToleranceConfig,
    cayley,
    cesaro_oracle,
    cesaro_unitarization,
    flow_invariant_metric,
    generator_metric,
    invariant_metric,
    inverse_cayley,
    mixed_pullback_mean,
    power_pullback_mean,
    unitary_log,
)
from unitarize.fixtures import (
    conjugated_unitary,
    defective_unimodular,
    hermitian_fixture,
    off_circle_fixture,
    positive_definite_fixture,
    unimodular_phases,
)

CFG = ToleranceConfig()

# involution with a non-orthogonal eigenbasis; its averaged metric
# over the flat fiducial form is [[1, 1], [1, 3]] on the nose
INVOLUTION = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
INVOLUTION_GRAM = np.array([[1.0, 1.0], [1.0, 3.0]], dtype=complex)


def series_exp(M, terms=60):
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def test_invariant_metric_certifies(rng):
    n = 5
    T, _, _ = conjugated_unitary(rng, n, 30.0, unimodular_phases(rng, n))
    result = invariant_metric(T, HermitianForm.identity(n), CFG)
    G = result.invariant_form.gram
    scale = np.linalg.norm(G)
    assert np.linalg.norm(T.conj().T @ G @ T - G) <= 1e-9 * scale
    U = result.unitarized
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-9
    Q = result.positive_similarity
    assert np.all(np.linalg.eigvalsh((Q + Q.conj().T) / 2) > 0.0)
    assert_allclose(Q @ T @ np.linalg.inv(Q), U, atol=1e-8)
    assert result.method == "spectral_projection"


def test_invariant_metric_general_fiducial(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    h0 = HermitianForm(positive_definite_fixture(rng, n, 6.0))
    result = invariant_metric(T, h0, CFG)
    for key in ("invariance", "unitarity", "gram_match"):
        assert result.residuals[key] <= 1e-9
    # Q is positive for the fiducial form, not for the flat one
    Q = result.positive_similarity
    GQ = h0.gram @ Q
    assert np.linalg.norm(GQ - GQ.conj().T) <= 1e-9 * np.linalg.norm(GQ)


def test_involution_metric_is_exact():
    result = invariant_metric(INVOLUTION, HermitianForm.identity(2), CFG)
    assert_allclose(result.invariant_form.gram, INVOLUTION_GRAM, atol=1e-14)


def test_unbounded_inputs_are_rejected(rng):
    with pytest.raises(NotUniformlyBounded, match="defective"):
        invariant_metric(defective_unimodular(rng, 3, 5.0), None, CFG)
    with pytest.raises(NotUniformlyBounded, match="modulus"):
        invariant_metric(off_circle_fixture(rng, 3, 5.0), None, CFG)


def test_power_pullback_mean_matches_direct_sum(rng):
    T = off_circle_fixture(rng, 3, 4.0, bump=0.01)
    K = positive_definite_fixture(rng, 3, 3.0)
    count = 7
    acc = np.zeros_like(K)
    P = np.eye(3, dtype=complex)
    for _ in range(count):
        acc += P.conj().T @ K @ P
        P = T @ P
    assert_allclose(power_pullback_mean(T, K, count), acc / count, atol=1e-12)


def test_mixed_pullback_mean_matches_direct_sum(rng):
    L = off_circle_fixture(rng, 3, 4.0, bump=0.01)
    R = off_circle_fixture(rng, 3, 4.0, bump=0.01)
    K = positive_definite_fixture(rng, 3, 3.0)
    count = 6
    acc = np.zeros_like(K)
    Pl = np.eye(3, dtype=complex)
    Pr = np.eye(3, dtype=complex)
    for _ in range(count):
        acc += Pl.conj().T @ K @ Pr
        Pl = L @ Pl
        Pr = R @ Pr
    assert_allclose(mixed_pullback_mean(L, K, R, count), acc / count, atol=1e-12)


def test_cesaro_oracle_agrees_with_projection(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 8.0, unimodular_phases(rng, n, min_gap=0.2))
    closed = invariant_metric(T, None, CFG).invariant_form.gram
    # a generic spectrum converges like 1/horizon, so the drift monitor
    # still sees motion at the default horizon; that is worth a warning
    with pytest.warns(SlowConvergence):
        form, drift = cesaro_oracle(T, None, cfg=CFG)
    averaged = form.gram
    assert np.linalg.norm(averaged - closed) <= 1e-3 * np.linalg.norm(closed)
    assert drift < 1e-2


def test_cesaro_oracle_exact_on_involution():
    form, drift = cesaro_oracle(INVOLUTION, None, cfg=CFG)
    averaged = form.gram
    assert_allclose(averaged, INVOLUTION_GRAM, atol=1e-12)
    assert drift <= 1e-15


def test_cesaro_unitarization_reports_method():
    result = cesaro_unitarization(INVOLUTION, None, cfg=CFG)
    assert result.method == "cesaro"
    assert result.cesaro_residual is not None
    assert_allclose(result.invariant_form.gram, INVOLUTION_GRAM, atol=1e-12)


def test_divergence_guard_trips(rng):
    cfg = ToleranceConfig(cesaro_horizon=512)
    T = 1.05 * np.eye(2, dtype=complex)
    with pytest.raises(DivergenceDetected):
        cesaro_oracle(T, None, cfg=cfg)


def test_divergence_traceback_pins_no_work_arrays():
    # A caller that keeps the exception keeps the raising frame alive; the
    # frame may hold the caller's own arrays but none of its copies or sums.
    T = 1.05 * np.eye(3, dtype=complex)
    K = np.eye(3, dtype=complex)
    with pytest.raises(DivergenceDetected) as info:
        mixed_pullback_mean(T, K, T, 512)
    tb = info.value.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_name == "mixed_pullback_mean"
    held = [v for v in tb.tb_frame.f_locals.values() if isinstance(v, np.ndarray)]
    assert all(v is T or v is K for v in held)


def test_unitary_log_closed_form():
    result = invariant_metric(INVOLUTION, None, CFG)
    A = unitary_log(INVOLUTION, result, CFG)
    assert_allclose(A, np.array([[0.0, -np.pi], [0.0, np.pi]]), atol=1e-12)
    # T = exp(iA) and A is self-adjoint for the invariant form
    assert_allclose(series_exp(1j * A), INVOLUTION, atol=1e-12)
    G = result.invariant_form.gram
    assert np.linalg.norm(A.conj().T @ G - G @ A) <= 1e-12 * np.linalg.norm(G)


def test_unitary_log_generic(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    result = invariant_metric(T, None, CFG)
    A = unitary_log(T, result, CFG)
    assert_allclose(series_exp(1j * A), T, atol=1e-9 * np.linalg.norm(T))


def test_cayley_roundtrip(rng):
    H = hermitian_fixture(rng, 4)
    T = cayley(H)
    assert np.linalg.norm(T.conj().T @ T - np.eye(4)) <= 1e-12
    assert_allclose(inverse_cayley(T), H, atol=1e-10 * (1 + np.linalg.norm(H)))


def test_cayley_singular_shifts():
    with pytest.raises(SingularShift):
        cayley(np.diag([-1j, 2.0]))
    with pytest.raises(SingularShift):
        inverse_cayley(np.diag([1.0, -1.0]).astype(complex))


def test_flow_invariant_metric():
    X = np.array([[1j, 2j], [0.0, -1j]])
    result = flow_invariant_metric(X, None, CFG)
    G = result.invariant_form.gram
    assert np.linalg.norm(X.conj().T @ G + G @ X) <= 1e-12 * np.linalg.norm(G)
    skew = result.unitarized
    assert np.linalg.norm(skew + skew.conj().T) <= 1e-12
    with pytest.raises(NotBoundedFlow):
        flow_invariant_metric(np.array([[1.0, 0.0], [0.0, 2.0]]), None, CFG)


def test_generator_metric_makes_self_adjoint(rng):
    H = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    form, image = generator_metric(H, CFG)
    G = form.gram
    assert np.linalg.norm(H.conj().T @ G - G @ H) <= 1e-10 * np.linalg.norm(G)
    assert np.linalg.norm(image.conj().T @ G @ image - G) <= 1e-10 * np.linalg.norm(G)
    with pytest.raises(NotBoundedFlow):
        generator_metric(np.array([[1j, 0.0], [0.0, 1.0]]), CFG)
