import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    DivergenceDetected,
    commuting_pair_metric,
    heisenberg_metric,
    make_clock_shift,
    check_uniformly_bounded,
    SlowConvergence,
    HermitianForm,
    InvalidInput,
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
    metric_dependence,
    mixed_cesaro,
    mixed_pullback_mean,
    unitary_log,
)
from unitarize.core import hermitize
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    defective_unimodular,
    hermitian_fixture,
    invertible_with_condition,
    jittered_unimodular_phases,
    off_circle_fixture,
    positive_definite_fixture,
    real_spectrum_fixture,
    unimodular_phases,
)
from unitarize import core, families, metrics
from unitarize.boundedness import bounded, require_self_adjoint_like
from unitarize.core import BLAS_THREAD_VARS, OVERLAP_MIN_DIM, _Task
from unitarize.metrics import DIVERGENCE_FACTOR, METHOD_CESARO, METHOD_SPECTRAL, _unitarization

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
    assert_allclose(mixed_pullback_mean(T, K, T, count), acc / count, atol=1e-12)


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


def _traceback_frames(exc):
    frames = []
    tb = exc.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame)
        tb = tb.tb_next
    return frames


def _held_arrays(frame):
    return [v for v in frame.f_locals.values() if isinstance(v, np.ndarray)]


def test_divergence_traceback_pins_no_work_arrays():
    # A caller that keeps the exception keeps the raising frame alive; the
    # frame may hold the caller's own arrays but none of its copies or sums.
    T = 1.05 * np.eye(3, dtype=complex)
    K = np.eye(3, dtype=complex)
    with pytest.raises(DivergenceDetected) as info:
        mixed_pullback_mean(T, K, T, 512)
    frames = _traceback_frames(info.value)
    assert [f.f_code.co_name for f in frames[-2:]] == [
        "mixed_pullback_mean",
        "_double_and_add",
    ]
    for frame in frames[-2:]:
        assert all(v is T or v is K for v in _held_arrays(frame))


# Every public entry point taking a Cesaro horizon, called on T with horizon h.
HORIZON_CALLS = {
    "cesaro_oracle": lambda T, h: cesaro_oracle(T, None, h),
    "cesaro_unitarization": lambda T, h: cesaro_unitarization(T, None, h),
    "mixed_cesaro": lambda T, h: mixed_cesaro(T, T, None, h),
    "mixed_pullback_mean": lambda T, h: mixed_pullback_mean(T, np.eye(2), T, h),
}


@pytest.mark.parametrize("call", HORIZON_CALLS.values(), ids=HORIZON_CALLS.keys())
@pytest.mark.parametrize("horizon", [2.5, 4.0, float("nan"), True, "8"])
def test_a_horizon_that_is_not_an_integer_is_invalid_input(call, horizon):
    # 2.5 used to run with horizon 2, True with horizon 1, and NaN raised a
    # bare ValueError
    T = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(InvalidInput, match="^the horizon must be a positive integer$"):
        call(T, horizon)
    assert call(T, np.int64(8)) is not None


def test_divergence_in_the_oracle_releases_the_half_horizon_sum():
    # At horizon 256 the guard trips on the last bit, after the pass has set
    # the sum at 128 aside for the drift; neither sum may stay pinned.
    T = 1.05 * np.eye(3, dtype=complex)
    with pytest.raises(DivergenceDetected, match="after 256 terms") as info:
        cesaro_oracle(T, None, horizon=256, cfg=CFG)
    caller, inner = _traceback_frames(info.value)[-2:]
    assert caller.f_code.co_name == "cesaro_oracle"
    assert inner.f_code.co_name == "_double_and_add"
    copy, gram = caller.f_locals["T"], caller.f_locals["h0"].gram
    assert all(v is copy or v is T for v in _held_arrays(caller))
    assert all(v is copy or v is gram for v in _held_arrays(inner))


def test_unitary_log_closed_form():
    result = invariant_metric(INVOLUTION, None, CFG)
    A = unitary_log(result)
    assert_allclose(A, np.array([[0.0, -np.pi], [0.0, np.pi]]), atol=1e-12)
    # T = exp(iA) and A is self-adjoint for the invariant form
    assert_allclose(series_exp(1j * A), INVOLUTION, atol=1e-12)
    G = result.invariant_form.gram
    assert np.linalg.norm(A.conj().T @ G - G @ A) <= 1e-12 * np.linalg.norm(G)


def test_unitary_log_generic(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    result = invariant_metric(T, None, CFG)
    A = unitary_log(result)
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


@pytest.mark.parametrize("X", [np.diag([1.0, 2.0]), np.array([[1j, 1.0], [0.0, 1j]])],
                         ids=["off_axis", "defective"])
def test_flow_invariant_metric_rejects_unbounded_flows(X):
    with pytest.raises(NotBoundedFlow, match=r"^flow generator X"):
        flow_invariant_metric(X, None, CFG)


# -- the one builder -----------------------------------------------------------


def _reference_similarity(X, form, h0):
    """g, Q, Q X Q^-1 and gram_match as each route formed them before the
    routes shared one builder."""
    g = np.asarray(form.gram)
    if h0.is_identity():
        Q, Qinv = form.root
    else:
        W, Winv = h0.root
        Qhat, Qhat_inv = HermitianForm(hermitize(Winv @ g @ Winv)).root
        Q = Winv @ Qhat @ W
        Qinv = Winv @ Qhat_inv @ W
    gram_match = float(np.linalg.norm(h0.gram @ Q @ Q - g)) / np.linalg.norm(g)
    return g, Q, Q @ X @ Qinv, gram_match


def _reference_flow(X, h0):
    """flow_invariant_metric's form, Q, skew conjugate and residuals, with the
    residuals in their own order and formulas."""
    dec = require_self_adjoint_like(-1j * X, CFG)
    form = metrics._averaged_form(dec, h0)
    g, Q, skew, gram_match = _reference_similarity(X, form, h0)
    scale = max(1.0, dec.operator_norm)
    residuals = {
        "flow_invariance": float(np.linalg.norm(X.conj().T @ g + g @ X))
        / (np.linalg.norm(g) * scale),
        "skewness": float(np.linalg.norm(skew.conj().T @ h0.gram + h0.gram @ skew))
        / (np.linalg.norm(h0.gram) * scale),
        "gram_match": gram_match,
    }
    return form, Q, skew, residuals, (METHOD_SPECTRAL, None), {"flow_scale": scale}


def _reference_cesaro(T, h0):
    form, drift = cesaro_oracle(T, h0, 256, CFG)
    g, Q, U, gram_match = _reference_similarity(T, form, h0)
    residuals = {
        "invariance": core.invariance_residual(T, g),
        "unitarity": core.invariance_residual(U, h0.gram),
        "gram_match": gram_match,
    }
    return form, Q, U, residuals, (METHOD_CESARO, drift), {}


def _same_bits(result, form, Q, U, residuals, method_and_drift):
    assert np.array_equal(result.invariant_form.gram, form.gram)
    assert np.array_equal(result.positive_similarity, Q)
    assert np.array_equal(result.unitarized, U)
    # the same keys in the same order, each value to the bit
    assert list(result.residuals.items()) == list(residuals.items())
    assert (result.method, result.cesaro_residual) == method_and_drift
    assert result.decomposition is None


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("fiducial", ["standard", "weighted"])
@pytest.mark.parametrize("route", ["flow", "cesaro"])
def test_flow_and_cesaro_routes_keep_their_formulas_to_the_bit(rng, route, fiducial):
    n = 6
    h0 = core.resolve_fiducial(
        None if fiducial == "standard" else positive_definite_fixture(rng, n, 20.0), n)
    if route == "flow":
        X = 1j * real_spectrum_fixture(rng, n, 10.0)
        result = flow_invariant_metric(X, h0, CFG)
        form, Q, U, residuals, method, options = _reference_flow(X, h0)
    else:
        X, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n, min_gap=0.2))
        result = cesaro_unitarization(X, h0, 256, CFG)
        form, Q, U, residuals, method, options = _reference_cesaro(X, h0)
    _same_bits(result, form, Q, U, residuals, method)
    # the builder called on the reference form gives the same bits again
    built = _unitarization(X, HermitianForm(form.gram), h0, *method, **options)
    _same_bits(built, form, Q, U, residuals, method)


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
def test_every_route_builds_through_the_one_builder(monkeypatch, rng):
    built = []
    real = metrics._unitarization

    def counting(*args, **kwargs):
        built.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "_unitarization", counting)
    monkeypatch.setattr(families, "_unitarization", counting)
    t1, t2 = commuting_conjugated_pair(rng, 4, 10.0)
    routes = {
        "invariant_metric": (lambda: invariant_metric(t1, None, CFG), 1),
        "cesaro_unitarization": (lambda: cesaro_unitarization(t1, None, 64, CFG), 1),
        "flow_invariant_metric": (lambda: flow_invariant_metric(np.diag([1j, -2j]), None, CFG), 1),
        "commuting_pair_metric": (lambda: commuting_pair_metric(t1, t2, None, CFG), 2),
        "heisenberg_metric": (lambda: heisenberg_metric(*make_clock_shift(3), None, CFG), 3),
    }
    for name, (call, stages) in routes.items():
        built.clear()
        call()
        assert len(built) == stages, name


def test_a_returned_unitarization_is_frozen():
    result = invariant_metric(INVOLUTION, None, CFG)
    for field in dataclasses.fields(result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, field.name, None)


def test_generator_metric_makes_self_adjoint(rng):
    H = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    form, image = generator_metric(H, CFG)
    G = form.gram
    assert np.linalg.norm(H.conj().T @ G - G @ H) <= 1e-10 * np.linalg.norm(G)
    assert np.linalg.norm(image.conj().T @ G @ image - G) <= 1e-10 * np.linalg.norm(G)
    with pytest.raises(NotBoundedFlow):
        generator_metric(np.array([[1j, 0.0], [0.0, 1.0]]), CFG)


@pytest.mark.parametrize("cond", [None, 10.0], ids=["diagonal", "conjugated"])
def test_generator_metric_on_close_large_eigenvalues(rng, cond):
    """The Cayley map puts the images of 2000 and 2001 about 5e-7 apart,
    inside the image's cluster radius but above its rank cut, so a second
    decision on the image called this self-adjoint-like H defective."""
    H = np.diag([2000.0, 2001.0]).astype(complex)
    if cond is not None:
        s = invertible_with_condition(rng, 2, cond)
        H = np.linalg.solve(s, H @ s)
    G = generator_metric(H, CFG)[0].gram
    defect = np.linalg.norm(H.conj().T @ G - G @ H)
    assert defect <= 1e-10 * np.linalg.norm(H) * np.linalg.norm(G)


def _generator_metric_via_cayley(H):
    """generator_metric's form as first built: the invariant metric of the
    Cayley image, read from a second decision on the image."""
    image = cayley(H)
    with bounded(image, CFG) as dec:
        return metrics._averaged_form(dec, HermitianForm.identity(image.shape[0])).gram


def test_generator_metric_matches_the_cayley_route(rng):
    answered = 0
    for n in range(2, 9):
        for cond in (1.0, 10.0, 100.0):
            H = real_spectrum_fixture(rng, n, cond)
            try:
                want = _generator_metric_via_cayley(H)
            except NotUniformlyBounded:
                continue
            answered += 1
            got = generator_metric(H, CFG)[0].gram
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert answered >= 18


def _reference_mixed_mean(left, kernel, right, count):
    """Reference double-and-add: one pass per count, from S = 0 and identity
    powers, forming both powers at every step."""
    L = np.array(left, dtype=np.complex128)
    R = np.array(right, dtype=np.complex128)
    K = np.array(kernel, dtype=np.complex128)
    k_norm = max(np.linalg.norm(K), 1e-300)
    n = K.shape[0]
    S = np.zeros((n, n), dtype=np.complex128)
    Lp = np.eye(n, dtype=np.complex128)
    Rp = np.eye(n, dtype=np.complex128)
    length = 0
    for bit in bin(int(count))[2:]:
        if length:
            S = S + Lp.conj().T @ S @ Rp
            Lp = Lp @ Lp
            Rp = Rp @ Rp
            length *= 2
        if bit == "1":
            S = S + Lp.conj().T @ K @ Rp
            Lp = Lp @ L
            Rp = Rp @ R
            length += 1
        if np.linalg.norm(S) > DIVERGENCE_FACTOR * k_norm * max(length, 1):
            raise DivergenceDetected(
                f"partial power averages exceeded {DIVERGENCE_FACTOR:.1e} times the "
                f"kernel norm after {length} terms"
            )
    return S / count


def _reference_oracle(T, G0, N):
    mean_full = hermitize(_reference_mixed_mean(T, G0, T, N))
    if N < 2:
        return mean_full, 0.0
    mean_part = hermitize(_reference_mixed_mean(T, G0, T, N // 2))
    drift = float(
        np.linalg.norm(mean_full - mean_part) / max(np.linalg.norm(mean_full), 1e-300)
    )
    return mean_full, drift


COUNTS = [1, 2, 3, 5, 7, 8, 64, 1000, 4096, 1 << 20, (1 << 20) + 3]


@pytest.fixture
def pair(rng):
    """Two bounded operators sharing a spectrum, and a positive kernel."""
    n = 4
    phases = unimodular_phases(rng, n, min_gap=0.2)
    t1, _, _ = conjugated_unitary(rng, n, 10.0, phases)
    t2, _, _ = conjugated_unitary(rng, n, 10.0, phases)
    return t1, t2, positive_definite_fixture(rng, n, 5.0)


def _operand_cases(t1, t2):
    """(left, right) pairs: one object on both sides, an equal copy, another
    operator, separate equal lists and one list on both sides."""
    as_list = t1.tolist()
    return {
        "same": (t1, t1),
        "copy": (t1, t1.copy()),
        "other": (t1, t2),
        "lists": (t1.tolist(), t1.tolist()),
        "same_list": (as_list, as_list),
    }


@pytest.mark.parametrize("count", COUNTS)
def test_pullback_means_equal_the_two_pass_reference(pair, count):
    t1, t2, K = pair
    G0 = HermitianForm(K).gram
    for name, (left, right) in _operand_cases(t1, t2).items():
        expected = _reference_mixed_mean(left, K, right, count)
        assert np.array_equal(mixed_pullback_mean(left, K, right, count), expected), name
        assert np.array_equal(mixed_pullback_mean(left, K.tolist(), right, count), expected)
        expected = _reference_mixed_mean(left, G0, right, count)
        assert np.array_equal(mixed_cesaro(left, right, K, count), expected), name
    for op in (t1, t1.tolist()):
        expected = _reference_mixed_mean(op, K, op, count)
        assert np.array_equal(mixed_pullback_mean(op, K, op, count), expected)


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("count", COUNTS)
def test_cesaro_oracle_equals_the_two_pass_reference(pair, count):
    t1, _, K = pair
    for h0, G0 in ((None, np.eye(4, dtype=complex)), (K, HermitianForm(K).gram)):
        gram, drift = _reference_oracle(t1, G0, count)
        for op in (t1, t1.tolist()):
            form, got = cesaro_oracle(op, h0, count, CFG)
            assert np.array_equal(form.gram, gram)
            assert got == drift


@pytest.mark.parametrize("count", COUNTS[1:])
def test_metric_dependence_equals_the_four_pass_reference(pair, count):
    t1, _, K = pair
    h0p = positive_definite_fixture(np.random.default_rng(count), 4, 3.0)
    report = metric_dependence(t1, K, h0p, CFG, horizon=count)
    G0, G0p = HermitianForm(K).gram, HermitianForm(h0p).gram
    C = np.linalg.solve(G0p, G0)
    Gp = invariant_metric(t1, h0p, CFG).invariant_form.gram
    assert np.array_equal(report.fiducial_change, C)

    def defect_at(n):
        Z = _reference_mixed_mean(t1, C.conj().T @ G0p, t1, n) - C.conj().T @ (
            _reference_mixed_mean(t1, G0p, t1, n)
        )
        return np.linalg.solve(Gp, Z.conj().T)

    A, A_half = defect_at(count), defect_at(count // 2)
    assert np.array_equal(report.averaging_defect, A)
    assert report.cesaro_residual == float(
        np.linalg.norm(A - A_half) / max(np.linalg.norm(A), 1e-300)
    )


def _divergent_operators(rng):
    n = 4
    bounded, S, phases = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    moduli = np.array([1.05, 1.0, 1.0, 1.0])
    return {
        "jordan": defective_unimodular(rng, n, 5.0),
        "off_circle": np.linalg.solve(S, (moduli * np.exp(1j * phases))[:, None] * S),
        "scaled_identity": 1.05 * np.eye(n, dtype=complex),
        "bounded": bounded,
    }


def _outcome(call):
    """The result of call, or the type and message of what it raised."""
    try:
        return call()
    except DivergenceDetected as exc:
        return ("raised", str(exc))


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("count", [7, 64, 1000, 4096, 1 << 20, (1 << 20) + 3])
def test_divergent_inputs_raise_the_reference_message(rng, count):
    ops = _divergent_operators(rng)
    K = np.eye(4, dtype=complex)
    raised = set()
    for name in ("jordan", "off_circle", "scaled_identity"):
        T = ops[name]
        sides = {"both": (T, T), "left": (T, ops["bounded"]), "right": (ops["bounded"], T)}
        for side, (left, right) in sides.items():
            expected = _outcome(lambda: _reference_mixed_mean(left, K, right, count))
            got = _outcome(lambda: mixed_pullback_mean(left, K, right, count))
            assert _same(got, expected), (name, side, got, expected)
            if isinstance(got, tuple):
                raised.add((name, side))
        expected = _outcome(lambda: _reference_oracle(T, K, count)[0])
        got = _outcome(lambda: cesaro_oracle(T, None, count, CFG)[0].gram)
        assert _same(got, expected), (name, got, expected)
        if isinstance(got, tuple):
            raised.add((name, "oracle"))
    if count >= 4096:
        # A Jordan block against a bounded operator grows too slowly for the
        # guard, with or without the rewrite; every other case must raise.
        assert raised == {
            (name, side)
            for name in ("jordan", "off_circle", "scaled_identity")
            for side in ("both", "left", "right", "oracle")
        } - {("jordan", "left"), ("jordan", "right")}


# -- the overlapped pass: powers on the worker thread, the sum on the caller --


@pytest.fixture(params=["serial", "overlap"])
def mode(request, monkeypatch, submitted):
    """Forces one mode through the policy, whatever the host's BLAS and CPUs;
    after the test, checks that each product ran where the mode says and
    that none is left pending."""
    overlap = request.param == "overlap"
    monkeypatch.setattr(core, "_overlaps", lambda n: overlap)
    yield request.param
    assert all(isinstance(f, _Task) == overlap for f in submitted)
    assert not overlap or all(f.done() for f in submitted)


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("count", COUNTS)
def test_both_modes_equal_the_reference(pair, count, mode, submitted):
    t1, t2, K = pair
    for left, right in ((t1, t1), (t1, t2)):
        expected = _reference_mixed_mean(left, K, right, count)
        assert np.array_equal(mixed_pullback_mean(left, K, right, count), expected)
    gram, drift = _reference_oracle(t1, HermitianForm(K).gram, count)
    form, got = cesaro_oracle(t1, K, count, CFG)
    assert np.array_equal(form.gram, gram) and got == drift
    # counts 1 and 2 form no power past the first
    assert bool(submitted) == (count >= 3)


@pytest.mark.parametrize("count", COUNTS)
def test_one_pass_over_several_kernels_equals_one_pass_each(pair, count, mode):
    t1, t2, K = pair
    kernels = (K, K @ t1, np.eye(4, dtype=complex))
    for left, right in ((t1, t1), (t1, t2)):
        sums, halves = metrics._double_and_add(left, kernels, right, count)
        for kernel, S, half in zip(kernels, sums, halves):
            (alone,), (alone_half,) = metrics._double_and_add(left, (kernel,), right, count)
            assert np.array_equal(S, alone)
            assert half is alone_half is None or np.array_equal(half, alone_half)


def test_overlapped_divergence_releases_the_work_arrays(monkeypatch, submitted):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    test_divergence_traceback_pins_no_work_arrays()
    test_divergence_in_the_oracle_releases_the_half_horizon_sum()
    assert submitted and all(isinstance(f, _Task) and f.done() for f in submitted)
    # nor does the raising frame keep a task, whose result pins the powers
    T = 1.05 * np.eye(3, dtype=complex)
    with pytest.raises(DivergenceDetected) as info:
        mixed_pullback_mean(T, np.eye(3, dtype=complex), T, 512)
    inner = _traceback_frames(info.value)[-1]
    assert not [v for v in inner.f_locals.values() if isinstance(v, _Task)]


@pytest.fixture
def pinned_host(monkeypatch):
    """Two usable CPUs, BLAS pinned to one thread, and no worker yet: the
    host suits the overlap unless a test undoes one of them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(core, "_worker", None)
    return monkeypatch


def _bounded(n):
    rng = np.random.default_rng(n)
    return conjugated_unitary(rng, n, 10.0, jittered_unimodular_phases(rng, n, np.pi / n))[0]


@pytest.mark.parametrize("host", ["pinned", "below_cutoff", "one_cpu", "unpinned", "two_blas"])
def test_policy_starts_a_thread_only_when_all_three_hold(pinned_host, host):
    n = OVERLAP_MIN_DIM - 1 if host == "below_cutoff" else OVERLAP_MIN_DIM
    if host == "one_cpu":
        pinned_host.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pinned_host.setattr(os, "cpu_count", lambda: 1)
    for var in BLAS_THREAD_VARS:
        if host == "unpinned":
            pinned_host.delenv(var)
        elif host == "two_blas" and var == "OMP_NUM_THREADS":
            pinned_host.setenv(var, "2")
    T = _bounded(n)
    K = np.eye(n, dtype=complex)
    before = set(threading.enumerate())
    got = mixed_pullback_mean(T, K, T, 1000)
    started = set(threading.enumerate()) - before
    overlaps = host == "pinned"
    assert core._overlaps(n >= OVERLAP_MIN_DIM) == overlaps
    assert (core._worker is not None) == overlaps
    assert len(started) == int(overlaps)
    assert np.array_equal(got, _reference_mixed_mean(T, K, T, 1000))


@pytest.mark.parametrize("work, cut", [("decision", 17), ("double_and_add", OVERLAP_MIN_DIM)])
def test_each_kind_of_work_overlaps_from_its_own_cut(pinned_host, submitted, work, cut):
    """On a suited host the decision overlaps once one stack of its power
    SVDs releases the GIL (n = 17), the double-and-add from OVERLAP_MIN_DIM."""
    modes = []
    for n in (cut - 1, cut):
        T = _bounded(n)
        if work == "decision":
            check_uniformly_bounded(T, CFG)
        else:
            mixed_pullback_mean(T, np.eye(n, dtype=complex), T, 1000)
        modes.append({type(f) for f in submitted})
        submitted.clear()
    assert modes == [{core._Deferred}, {_Task}]


def _decided(T):
    """What a decision reports, in bitwise-comparable form."""
    r = check_uniformly_bounded(T, CFG)
    return (r.verdict, r.sampled_power_norms, r.bound_estimate,
            r.decomposition.eigenvalues.tobytes(), r.decomposition.eigenvectors.tobytes())


def test_concurrent_callers_share_one_worker(pinned_host):
    # Five Cesaro callers and two deciders, all forced onto the one worker.
    decided = [_bounded(6), defective_unimodular(np.random.default_rng(5), 6, 10.0)]
    pinned_host.setattr(core, "_overlaps", lambda n: False)
    decisions = [_decided(T) for T in decided]
    pinned_host.setattr(core, "_overlaps", lambda n: True)
    cases = [(T, np.eye(len(T), dtype=complex)) for T in map(_bounded, range(4, 9))]
    expected = [_reference_mixed_mean(T, K, T, 1000) for T, K in cases]
    failures = []
    start = threading.Barrier(len(cases) + len(decided))

    def caller(T, K, want):
        try:
            start.wait(timeout=60)
            for _ in range(20):
                if not np.array_equal(mixed_pullback_mean(T, K, T, 1000), want):
                    failures.append(len(T))
        except Exception as exc:
            failures.append(exc)

    def decider(T, want):
        try:
            start.wait(timeout=60)
            for _ in range(20):
                if _decided(T) != want:
                    failures.append(("decision", len(T)))
        except Exception as exc:
            failures.append(exc)

    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(*case, want))
                   for case, want in zip(cases, expected)]
        callers += [threading.Thread(target=decider, args=case)
                    for case in zip(decided, decisions)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert not failures
    started = set(threading.enumerate()) - before
    assert [t.name.startswith("unitarize-worker") for t in started] == [True]


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
def test_host_policy_matches_the_reference_at_the_cutoff(submitted):
    # The policy as the host has it: with BLAS pinned and two usable CPUs
    # this is the overlapped pass, otherwise the serial one.
    n = OVERLAP_MIN_DIM
    T = _bounded(n)
    K = positive_definite_fixture(np.random.default_rng(1), n, 3.0)
    count = (1 << 20) + 3
    gram, drift = _reference_oracle(T, HermitianForm(K).gram, count)
    form, got = cesaro_oracle(T, K, count, CFG)
    assert np.array_equal(form.gram, gram) and got == drift
    assert submitted
    assert all(isinstance(f, _Task) == core._overlaps(True) for f in submitted)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
def test_forked_child_finishes_an_overlapped_oracle(monkeypatch):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    T = _bounded(8)
    expected = cesaro_oracle(T, None, 4096, CFG)[0].gram
    assert core._worker is not None
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            got = cesaro_oracle(T, None, 4096, CFG)[0].gram
            status = 0 if np.array_equal(got, expected) else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish within 30 s")
    assert os.waitstatus_to_exitcode(status) == 0


def test_importing_the_cli_starts_no_thread():
    # and loads only the modules every subcommand runs; a bare package import
    # loads none of its submodules
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys, threading\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'unitarize')\n"
        "import unitarize\n"
        "print(' '.join(loaded()))\n"
        "import unitarize.cli, unitarize.core as c\n"
        "assert threading.active_count() == 1 and c._worker is None\n"
        "print(' '.join(loaded()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bare, cli = (line.split() for line in proc.stdout.splitlines())
    assert bare == ["unitarize"]
    base = ("boundedness", "cli", "core", "errors", "serialization")
    assert cli == ["unitarize"] + [f"unitarize.{m}" for m in base]
