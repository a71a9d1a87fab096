import functools
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from unitarize import boundedness, core
from unitarize import (
    InvalidInput,
    NotAutomorphism,
    NotUniformlyBounded,
    ToleranceConfig,
    check_generator,
    check_normal_dichotomy,
    check_uniformly_bounded,
    sampled_power_norms,
)
from unitarize.boundedness import (
    POWER_SAMPLE_RANGE,
    RECIPROCAL_RTOL,
    VERDICT_ALREADY_UNITARY,
    VERDICT_BOUNDED,
    VERDICT_NORMAL_NOT_UNITARY,
    VERDICT_NOT_BOUNDED,
    VERDICT_NOT_NORMAL,
    VERDICT_SELF_ADJOINT_LIKE,
)
from unitarize.core import _Task
from unitarize.errors import ClusterAmbiguity
from unitarize.fixtures import (
    conjugated_unitary,
    defective_unimodular,
    haar_unitary,
    invertible_with_condition,
    jittered_unimodular_phases,
    normal_fixture,
    off_circle_fixture,
    real_spectrum_fixture,
    unimodular_phases,
)

CFG = ToleranceConfig()


def test_conjugated_unitary_is_bounded(rng):
    n = 5
    T, S, _ = conjugated_unitary(rng, n, 40.0, unimodular_phases(rng, n))
    report = check_uniformly_bounded(T, CFG)
    assert report.verdict == VERDICT_BOUNDED
    assert report.bounded
    assert not report.off_circle
    assert not report.defective
    # the eigenvector condition number bounds every sampled power norm
    worst = max(report.sampled_power_norms.values())
    assert worst <= report.bound_estimate * (1.0 + 1e-8)


def test_off_circle_modulus_is_flagged(rng):
    T = off_circle_fixture(rng, 4, 10.0, bump=0.05)
    report = check_uniformly_bounded(T, CFG)
    assert report.verdict == VERDICT_NOT_BOUNDED
    assert report.off_circle
    assert not report.bounded


def test_jordan_block_is_flagged(rng):
    T = defective_unimodular(rng, 4, 10.0)
    report = check_uniformly_bounded(T, CFG)
    assert report.verdict == VERDICT_NOT_BOUNDED
    assert report.defective
    assert any("defective" in r for r in report.reasons)


def test_power_norms_need_invertibility():
    T = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotAutomorphism):
        sampled_power_norms(T)


def test_power_norms_validate_their_argument(rng):
    T, _, _ = conjugated_unitary(rng, 3, 10.0, unimodular_phases(rng, 3))
    assert sampled_power_norms(T.tolist()) == sampled_power_norms(T)
    with pytest.raises(InvalidInput, match="square"):
        sampled_power_norms(np.ones((2, 3)))
    with pytest.raises(InvalidInput, match="finite"):
        sampled_power_norms(np.array([[1.0, 0.0], [0.0, np.nan]]))


@pytest.mark.parametrize("k_range", [2.5, "a", True, -3, None, np.float64(2.0)], ids=repr)
def test_power_norms_refuse_a_range_that_is_not_a_non_negative_integer(k_range):
    # 2.5 and "a" raised a bare TypeError, True ran as 1 and -3 returned {0: 1.0}
    with pytest.raises(InvalidInput, match="^k_range must be a non-negative integer"):
        sampled_power_norms(np.eye(2), k_range)


def test_power_norms_take_a_range_of_zero_or_a_numpy_integer():
    assert sampled_power_norms(np.eye(2), 0) == {0: 1.0}
    assert sampled_power_norms(np.eye(2), np.int64(2)) == sampled_power_norms(np.eye(2), 2)


def test_power_norms_cover_negative_exponents(rng):
    U = haar_unitary(rng, 3)
    norms = sampled_power_norms(U)
    assert min(norms) < 0 < max(norms)
    np.testing.assert_allclose(list(norms.values()), 1.0, atol=1e-12)


def test_generator_verdicts():
    H = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    assert check_generator(H, CFG).verdict == VERDICT_SELF_ADJOINT_LIKE
    rotated = np.array([[1j, 0.0], [0.0, 1.0]])
    rep = check_generator(rotated, CFG)
    assert not rep.similar_to_self_adjoint
    assert rep.off_real
    # a Jordan block at a real eigenvalue fails through defectivity alone
    jordan = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)
    rep = check_generator(jordan, CFG)
    assert not rep.similar_to_self_adjoint
    assert rep.defective and not rep.off_real


def test_normal_dichotomy_unitary(rng):
    U = haar_unitary(rng, 4)
    assert check_normal_dichotomy(U, CFG).verdict == VERDICT_ALREADY_UNITARY


def test_normal_dichotomy_normal_but_not_unimodular(rng):
    N = normal_fixture(rng, 4, unimodular=False)
    report = check_normal_dichotomy(N, CFG)
    assert report.verdict == VERDICT_NORMAL_NOT_UNITARY


def test_normal_dichotomy_rejects_non_normal():
    T = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    assert check_normal_dichotomy(T, CFG).verdict == VERDICT_NOT_NORMAL
    # the residuals are relative, so a small operator is judged like a large one
    assert check_normal_dichotomy(1e-6 * T, CFG).verdict == VERDICT_NOT_NORMAL


def test_normal_dichotomy_takes_no_svd(rng, monkeypatch):
    # np.linalg.norm(a, 2) reaches the SVD through the module's own name, so
    # the count patches numpy.linalg._linalg rather than np.linalg
    calls = []
    real = np.linalg._linalg.svd
    monkeypatch.setattr(np.linalg._linalg, "svd",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    for T in (haar_unitary(rng, 4), normal_fixture(rng, 4, unimodular=False),
              np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)):
        check_normal_dichotomy(T, CFG)
    assert calls == []


# -- power norms against extended precision ---------------------------------

REF_DIM = 5


def _reference_power_norms(T, k_range):
    """||T^k|| for 0 < |k| <= k_range from 100-digit products of T.

    The singular values come from the Hermitian eigenproblem of (T^k)* T^k.
    Its conditioning, the square of cond(T^k), stays below 1e66 for every
    input here (the spread diagonal at k = 32), so the reference keeps more
    than 30 correct digits.
    """
    mpmath = pytest.importorskip("mpmath")
    out = {}
    with mpmath.workdps(100):
        A = mpmath.matrix(T.tolist())
        P = mpmath.eye(T.shape[0])
        for k in range(1, k_range + 1):
            P = P * A
            gram_eigs = mpmath.eighe(P.H * P, eigvals_only=True)
            out[k] = float(mpmath.sqrt(max(gram_eigs)))
            out[-k] = float(1 / mpmath.sqrt(min(gram_eigs)))
    return out


def _worst_relative_error(T, k_range):
    got = sampled_power_norms(T, k_range)
    ref = _reference_power_norms(T, k_range)
    return max(abs(got[k] - ref[k]) / ref[k] for k in ref)


def _off_circle(rng, cond, bump, n=REF_DIM):
    """S^-1 D S with unimodular D except one modulus 1 + bump."""
    d = np.exp(1j * unimodular_phases(rng, n))
    d[0] *= 1.0 + bump
    s = invertible_with_condition(rng, n, cond)
    return np.linalg.solve(s, d[:, None] * s)


ACCURACY_INPUTS = {
    "bounded": lambda rng, cond: conjugated_unitary(rng, REF_DIM, cond)[0],
    "jordan": lambda rng, cond: defective_unimodular(rng, REF_DIM, cond),
    **{
        f"off{bump:+g}": functools.partial(_off_circle, bump=bump)
        for bump in (0.05, -0.05, 0.5, -0.5)
    },
}

# Worst relative error allowed over k in [-32, 32], per cond(S).  A guarded
# reciprocal magnifies the rounding error of the computed T^k by up to
# cond(T^k) <= 1 / RECIPROCAL_RTOL; the fallback through products of inv(T)
# loses about k eps cond(S)^2.  The bounds sit 10 to 20 times above the worst
# errors seen over 20 seeds (8e-13, 1.2e-11 and 2.4e-9).
POWER_NORM_RTOL = {10.0: 1e-11, 100.0: 2e-10, 1e3: 5e-8}


@pytest.mark.parametrize("cond", sorted(POWER_NORM_RTOL))
@pytest.mark.parametrize("kind", sorted(ACCURACY_INPUTS))
def test_power_norms_match_extended_precision(rng, kind, cond):
    T = ACCURACY_INPUTS[kind](rng, cond)
    assert _worst_relative_error(T, POWER_SAMPLE_RANGE) <= POWER_NORM_RTOL[cond]


def _spread_diagonal(rng):
    """diag(3, 1/3, 1, i) conjugated at cond 10: T^32 has cond near 3^64."""
    s = invertible_with_condition(rng, 4, 10.0)
    return np.linalg.solve(s, np.diag([3.0, 1.0 / 3.0, 1.0, 1j]) @ s)


def test_guard_keeps_ill_conditioned_inverse_powers_accurate(rng):
    T = _spread_diagonal(rng)
    ref = _reference_power_norms(T, POWER_SAMPLE_RANGE)
    # the unguarded reciprocal falls short by more than ten orders here
    naive = 1.0 / np.linalg.svd(np.linalg.matrix_power(T, 32), compute_uv=False)[-1]
    assert naive < 1e-10 * ref[-32]
    got = sampled_power_norms(T)
    # worst seen over 20 seeds: 4.9e-13
    assert max(abs(got[k] - ref[k]) / ref[k] for k in ref) <= 1e-11


@pytest.mark.parametrize("kind", ["bounded", "off_circle", "jordan"])
def test_power_norms_at_the_demo_range(rng, kind):
    """k_range = 64 on the boundedness demo's three specimens (cond 20)."""
    phases = unimodular_phases(rng, 4, min_gap=0.1)
    T = {
        "bounded": lambda: conjugated_unitary(rng, 4, 20.0, phases)[0],
        "off_circle": lambda: off_circle_fixture(rng, 4, 20.0),
        "jordan": lambda: defective_unimodular(rng, 4, 20.0),
    }[kind]()
    # worst seen over 20 seeds: 2.8e-12
    assert _worst_relative_error(T, 64) <= 5e-11


# -- exactness of the two paths ---------------------------------------------

EXACTNESS_INPUTS = {
    "bounded": lambda rng: conjugated_unitary(rng, 4, 10.0)[0],
    "off_circle": lambda rng: _off_circle(rng, 100.0, 0.5, n=4),
    "spread_diagonal": _spread_diagonal,
}


@pytest.mark.parametrize("kind", sorted(EXACTNESS_INPUTS))
def test_power_norms_equal_the_repeated_products(rng, kind):
    """Positive k, and negative k whose T^k fails the reciprocal guard, give
    the spectral norm of the repeated product of T or of inv(T) exactly;
    the others give 1 / sigma_min(T^k) exactly."""
    T = EXACTNESS_INPUTS[kind](rng)
    norms = sampled_power_norms(T)
    Tinv = np.linalg.inv(T)
    fwd = np.eye(4, dtype=complex)
    bwd = np.eye(4, dtype=complex)
    guarded_out = 0
    for k in range(1, POWER_SAMPLE_RANGE + 1):
        fwd = fwd @ T
        bwd = bwd @ Tinv
        assert norms[k] == np.linalg.norm(fwd, 2)
        sv = np.linalg.svd(fwd, compute_uv=False)
        if sv[-1] >= RECIPROCAL_RTOL * sv[0]:
            assert norms[-k] == 1.0 / sv[-1]
        else:
            guarded_out += 1
            assert norms[-k] == np.linalg.norm(bwd, 2)
    if kind == "bounded":
        assert guarded_out == 0
    else:
        assert guarded_out > 0


# -- the overlapped decision: eig on the caller, power norms on the worker --

# The decision's overlap cut: from n = 17 on one stack of the power SVDs
# runs without the GIL (test_metrics.test_each_kind_of_work_overlaps_from_its_own_cut).
N_CUT = 17


def _conjugated(rng, diagonal, superdiagonal=0.0):
    """S^-1 J S at cond(S) = 10, where J is diag(diagonal) with J[0, 1] set
    to superdiagonal: 1 over a repeated first eigenvalue is a Jordan block."""
    j = np.diag(diagonal).astype(complex)
    j[0, 1] = superdiagonal
    s = invertible_with_condition(rng, len(diagonal), 10.0)
    return np.linalg.solve(s, j @ s)


def _cutoff_input(rng, kind, n=N_CUT):
    """Bounded, Jordan, off-circle and spread-diagonal operators, by default
    at the overlap cutoff; the phases are jittered because rejection
    sampling of this many fails.  The spread diagonal has eigenvalues 3 and
    1/3, so the reciprocal guard fails from some power on."""
    d = np.exp(1j * jittered_unimodular_phases(rng, n, np.pi / n))
    if kind == "jordan":
        d[1] = d[0]
        return _conjugated(rng, d, 1.0)
    if kind == "off_circle":
        d[3] *= 1.05
    elif kind == "spread_diagonal":
        d[:2] = 3.0, 1.0 / 3.0
    return _conjugated(rng, d)


def _report_fields(r):
    """Every part of a report, in bitwise-comparable form."""
    dec = r.decomposition
    return (r.verdict, r.off_circle, r.defective, r.bound_estimate,
            np.array(list(r.sampled_power_norms.items())).tobytes(),
            dec.eigenvalues.tobytes(), dec.eigenvectors.tobytes(), dec.clusters)


@pytest.mark.parametrize("kind, verdict", [
    ("bounded", VERDICT_BOUNDED),
    ("jordan", VERDICT_NOT_BOUNDED),
    ("off_circle", VERDICT_NOT_BOUNDED),
])
def test_overlapped_decision_equals_the_serial_one(rng, kind, verdict, monkeypatch, submitted):
    T = _cutoff_input(rng, kind)
    reports = []
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        reports.append(check_uniformly_bounded(T, CFG))
    serial, overlapped = reports
    assert serial.verdict == verdict
    assert bool(serial.defective) == (kind == "jordan")
    assert bool(serial.off_circle) == (kind == "off_circle")
    assert _report_fields(overlapped) == _report_fields(serial)
    # one hand-off per decision, and the worker's is finished on return
    assert [isinstance(f, _Task) for f in submitted] == [False, True]
    assert submitted[1].done()


def test_host_policy_decision_at_the_cutoff(rng, monkeypatch, submitted):
    # The policy as the host has it: with BLAS pinned and two usable CPUs
    # this decision overlaps, otherwise it is serial.
    T = _cutoff_input(rng, "bounded")
    got = check_uniformly_bounded(T, CFG)
    assert [isinstance(f, _Task) for f in submitted] == [core._overlaps(True)]
    assert all(f.done() for f in submitted if isinstance(f, _Task))
    monkeypatch.setattr(core, "_overlaps", lambda n: False)
    assert _report_fields(got) == _report_fields(check_uniformly_bounded(T, CFG))


@pytest.mark.parametrize("overlap", [False, True])
def test_singular_operator_raises_before_either_half(monkeypatch, submitted, overlap):
    monkeypatch.setattr(core, "_overlaps", lambda n: overlap)
    eig_calls = []
    monkeypatch.setattr(boundedness, "eig", lambda *a: eig_calls.append(a))
    T = np.diag(np.r_[np.ones(N_CUT - 1), 0.0]).astype(complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotAutomorphism, match="singular"):
            check_uniformly_bounded(T, CFG)
    assert not submitted and not eig_calls and not caught


def test_worker_failure_reaches_the_caller(rng, monkeypatch, submitted):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    ran_on = []

    def failing(*args):
        ran_on.append(threading.current_thread())
        raise RuntimeError("power chain failed")

    monkeypatch.setattr(boundedness, "sampled_power_norms", failing)
    with pytest.raises(RuntimeError, match="power chain failed"):
        check_uniformly_bounded(_cutoff_input(rng, "bounded"), CFG)
    assert ran_on and ran_on[0] is not threading.current_thread()
    assert len(submitted) == 1 and submitted[0].done()


def _ambiguous(rng):
    """Two eigenvalues 1.5 cluster radii apart, one pair in the ambiguity
    zone, and the tolerances that put it there."""
    d = np.exp(1j * jittered_unimodular_phases(rng, N_CUT, np.pi / N_CUT))
    d[1] = d[0] * np.exp(1.5e-4j)
    return _conjugated(rng, d), ToleranceConfig(eig_cluster_tol=1e-4)


def test_cluster_ambiguity_reaches_the_caller_when_overlapped(rng, monkeypatch, submitted):
    T, cfg = _ambiguous(rng)
    caught = []
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            check_uniformly_bounded(T, cfg)
        caught.append([(w.category, str(w.message), w.filename) for w in record])
    serial, overlapped = caught
    assert len(serial) == 1 and serial[0][0] is ClusterAmbiguity
    assert "1 eigenvalue pair(s)" in serial[0][1]
    assert overlapped == serial
    assert [isinstance(f, _Task) for f in submitted] == [False, True]


def test_an_eig_failure_reaches_the_caller_with_the_worker_done(rng, monkeypatch, submitted):
    # the ambiguity raised from inside eig while the norms are pending
    T, cfg = _ambiguous(rng)
    for overlap in (False, True):
        monkeypatch.setattr(core, "_overlaps", lambda n, o=overlap: o)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ClusterAmbiguity)
            with pytest.raises(ClusterAmbiguity, match="1 eigenvalue pair"):
                check_uniformly_bounded(T, cfg)
    assert [isinstance(f, _Task) for f in submitted] == [False, True]
    assert submitted[1].done()


def test_given_singular_values_stand_in_for_the_singularity_test(rng, monkeypatch):
    T = _cutoff_input(rng, "bounded")
    sv = np.linalg.svd(T, compute_uv=False)
    expected = sampled_power_norms(T)
    svd_calls = []
    real_svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: svd_calls.append(a.shape) or real_svd(a, **kw))
    assert sampled_power_norms(T, POWER_SAMPLE_RANGE, sv) == expected
    # the powers k = 2 .. 32 in stacks of b, and no SVD of T itself
    b = boundedness._power_stack_size(N_CUT, POWER_SAMPLE_RANGE)
    assert len(svd_calls) == -(-(POWER_SAMPLE_RANGE - 1) // b)
    assert sum(shape[0] for shape in svd_calls) == POWER_SAMPLE_RANGE - 1
    assert all(shape[1:] == (N_CUT, N_CUT) for shape in svd_calls)


# -- stacked SVDs against one SVD per power ------------------------------------


def _one_svd_per_power(T, k_range):
    """The reference for the stacked SVDs: sampled_power_norms with one
    values-only SVD of each T^k, the same products and the same guard.
    Returns the norms and how many negative powers failed the guard."""
    sv = np.linalg.svd(T, compute_uv=False)
    norms = {0: 1.0}
    fwd = T
    bwd = None
    built = guarded_out = 0
    for k in range(1, k_range + 1):
        if k > 1:
            fwd = fwd @ T
            sv = np.linalg.svd(fwd, compute_uv=False)
        norms[k] = float(sv[0])
        if sv[-1] >= RECIPROCAL_RTOL * sv[0]:
            norms[-k] = float(1.0 / sv[-1])
            continue
        guarded_out += 1
        if bwd is None:
            Tinv = bwd = np.linalg.inv(T)
            built = 1
        for _ in range(built, k):
            bwd = bwd @ Tinv
        built = k
        norms[-k] = float(np.linalg.norm(bwd, 2))
    return norms, guarded_out


# both sides of the stack-size steps 9 -> 8 (n = 62 | 63) and 5 -> 4
# (n = 125 | 126), the benchmark's 64, 72 and 128, and small n, where the
# cap at k_range - 1 sets the size
STACKING_DIMS = [4, 16, 62, 63, 64, 72, 125, 126, 128]
STACKING_RANGES = [1, 2, 5, 32, 64]


@pytest.mark.parametrize("n", STACKING_DIMS)
def test_stacked_power_norms_equal_one_svd_per_power(rng, n):
    for kind in ("bounded", "jordan", "off_circle", "spread_diagonal"):
        T = _cutoff_input(rng, kind, n)
        # one SVD per power reads the same chain whatever the range, so the
        # widest range's norms, cut down, serve every narrower one
        ref, guarded_out = _one_svd_per_power(T, max(STACKING_RANGES))
        assert guarded_out > 0 or kind in ("bounded", "off_circle")
        for k_range in STACKING_RANGES:
            want = {k: v for k, v in ref.items() if abs(k) <= k_range}
            assert sampled_power_norms(T, k_range) == want, (kind, k_range)


@pytest.mark.parametrize("n, k_range, size", [
    (4, 32, 31), (4, 5, 4), (16, 64, 32), (62, 32, 9), (63, 32, 8),
    (72, 32, 7), (125, 32, 5), (126, 32, 4), (128, 32, 4), (128, 3, 2),
    (250, 32, 3), (251, 32, 2), (500, 32, 2), (501, 32, 1), (1024, 32, 1),
    (16, 2, 1), (16, 1, 1), (16, 0, 1),
])
def test_power_stack_size(n, k_range, size):
    """The fewest powers whose singular values number more than the GIL
    cut, capped at the k_range - 1 powers after the first, at least one."""
    assert boundedness._power_stack_size(n, k_range) == size
    if 1 < size < k_range - 1:
        assert size * n > boundedness.GIL_HELD_MAX_OUTPUT >= (size - 1) * n


# -- bounded(): the block runs while the power norms finish -------------------


def _gated_power_norms(monkeypatch):
    """Make the worker's power norms wait until the returned event is set,
    so a block that ran before they were read can say so."""
    release = threading.Event()
    real = boundedness.sampled_power_norms

    def gated(*args):
        assert release.wait(10), "the power norms were read before the block ran"
        return real(*args)

    monkeypatch.setattr(boundedness, "sampled_power_norms", gated)
    return release


def test_bounded_block_runs_before_the_norms_are_read(rng, monkeypatch, submitted):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    release = _gated_power_norms(monkeypatch)
    T = _cutoff_input(rng, "bounded")
    with boundedness.bounded(T, CFG) as dec:
        assert len(submitted) == 1 and not submitted[0].done()
        release.set()
    assert submitted[0].done()
    monkeypatch.setattr(core, "_overlaps", lambda n: False)
    serial = check_uniformly_bounded(T, CFG).decomposition
    assert dec.eigenvalues.tobytes() == serial.eigenvalues.tobytes()
    assert dec.eigenvectors.tobytes() == serial.eigenvectors.tobytes()


def test_bounded_block_that_raises_leaves_no_work_on_the_worker(rng, monkeypatch, submitted):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    release = _gated_power_norms(monkeypatch)
    with pytest.raises(KeyError, match="raised in the block"):
        with boundedness.bounded(_cutoff_input(rng, "bounded"), CFG):
            release.set()
            raise KeyError("raised in the block")
    assert len(submitted) == 1 and submitted[0].done()


def test_worker_failure_after_a_clean_block_reaches_the_caller(rng, monkeypatch, submitted):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)

    def failing(*args):
        raise RuntimeError("power chain failed")

    monkeypatch.setattr(boundedness, "sampled_power_norms", failing)
    ran = []
    with pytest.raises(RuntimeError, match="power chain failed"):
        with boundedness.bounded(_cutoff_input(rng, "bounded"), CFG) as dec:
            ran.append(dec)
    assert ran and len(submitted) == 1 and submitted[0].done()


@pytest.mark.parametrize("overlap", [False, True])
def test_unbounded_verdict_raises_after_the_norms_are_read(rng, monkeypatch, submitted, overlap):
    monkeypatch.setattr(core, "_overlaps", lambda n: overlap)
    read = []
    real = boundedness.sampled_power_norms
    # slow enough that the worker would still be running if the verdict
    # were raised before the norms were read
    monkeypatch.setattr(boundedness, "sampled_power_norms",
                        lambda *args: time.sleep(0.2) or read.append(1) or real(*args))
    with pytest.raises(NotUniformlyBounded, match=r"^t2: unimodular eigenvalue .* is defective$"):
        with boundedness.bounded(_cutoff_input(rng, "jordan"), CFG, "t2: "):
            pytest.fail("the block ran for an unbounded operator")
    assert read == [1]
    assert [isinstance(f, _Task) for f in submitted] == [overlap]
    assert all(f.done() for f in submitted if isinstance(f, _Task))


# -- shared stacks: the caller decomposes the stacks the worker has not reached --


def _stack_threads(monkeypatch, caller, hook=None):
    """Record the thread of every stack SVD (a 3-d operand) in a list, and
    call hook(on_caller) before each one."""
    threads = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            on_caller = threading.current_thread() is caller
            threads.append("caller" if on_caller else "worker")
            if hook is not None:
                hook(on_caller)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return threads


def _split_stacks(monkeypatch, caller, split):
    """Steer which thread decomposes the stacks: "caller" holds the worker
    back until the caller has claimed every stack, "worker" holds the caller
    back until the worker has, and "both" starts the caller once the worker
    is in its first stack SVD, which waits in turn until the caller is in
    one.  Returns the list of shared-stack objects that run() saw."""
    seen = []
    real_run = boundedness._PowerStacks.run
    caller_ran, worker_ran = threading.Event(), threading.Event()
    caller_in, worker_in = threading.Event(), threading.Event()

    def run(self):
        seen.append(self)
        on_caller = threading.current_thread() is caller
        if on_caller and split in ("worker", "both"):
            assert (worker_ran if split == "worker" else worker_in).wait(10)
        if not on_caller and split == "caller":
            assert caller_ran.wait(10)
        real_run(self)
        (caller_ran if on_caller else worker_ran).set()

    def hook(on_caller):
        if split != "both":
            return
        if on_caller:
            caller_in.set()
        elif not worker_in.is_set():
            worker_in.set()
            assert caller_in.wait(10)

    monkeypatch.setattr(boundedness._PowerStacks, "run", run)
    return seen, _stack_threads(monkeypatch, caller, hook)


SHARED_DIM = 64  # four stacks of at most 8 powers


@pytest.mark.parametrize("split", ["caller", "worker", "both"])
@pytest.mark.parametrize("kind", ["bounded", "jordan", "spread_diagonal"])
def test_shared_stacks_equal_the_serial_decision(rng, monkeypatch, submitted, kind, split):
    T = _cutoff_input(rng, kind, SHARED_DIM)
    monkeypatch.setattr(core, "_overlaps", lambda n: False)
    serial = check_uniformly_bounded(T, CFG)
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    seen, threads = _split_stacks(monkeypatch, threading.current_thread(), split)
    shared = check_uniformly_bounded(T, CFG)
    assert _report_fields(shared) == _report_fields(serial)
    assert submitted[-1].done()
    # one shared object, run by the caller and the worker, whose four stacks
    # were each claimed and decomposed once
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0]._claimed == seen[0]._finished == len(threads) == 4
    want = {"caller": {"caller"}, "worker": {"worker"}, "both": {"caller", "worker"}}[split]
    assert set(threads) == want


@pytest.mark.parametrize("split", ["caller", "worker", "both"])
def test_shared_stacks_of_one_power_use_the_two_slot_ring(rng, monkeypatch, submitted, split):
    # a cut of zero makes every stack hold one power, so each thread's ring
    # has two slots and a claim may read the power the other thread wrote
    monkeypatch.setattr(boundedness, "GIL_HELD_MAX_OUTPUT", 0)
    assert boundedness._power_stack_size(N_CUT, POWER_SAMPLE_RANGE) == 1
    T = _cutoff_input(rng, "spread_diagonal")
    monkeypatch.setattr(core, "_overlaps", lambda n: False)
    serial = check_uniformly_bounded(T, CFG)
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    seen, threads = _split_stacks(monkeypatch, threading.current_thread(), split)
    shared = check_uniformly_bounded(T, CFG)
    assert _report_fields(shared) == _report_fields(serial)
    assert submitted[-1].done()
    assert seen[0]._claimed == seen[0]._finished == len(threads) == POWER_SAMPLE_RANGE - 1
    assert set(threads) == ({"caller", "worker"} if split == "both" else {split})


@pytest.mark.parametrize("via", ["check", "bounded"])
@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_a_failed_stack_reaches_the_caller(rng, monkeypatch, submitted, failing, via):
    monkeypatch.setattr(core, "_overlaps", lambda n: True)
    caller = threading.current_thread()
    seen, threads = _split_stacks(monkeypatch, caller, "both")
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if np.ndim(a) == 3 and (threading.current_thread() is caller) == (failing == "caller"):
            raise RuntimeError(f"stack failed on the {failing}")
        return out

    monkeypatch.setattr(np.linalg, "svd", svd)
    T = _cutoff_input(rng, "bounded", SHARED_DIM)
    with pytest.raises(RuntimeError, match=f"^stack failed on the {failing}$"):
        if via == "check":
            check_uniformly_bounded(T, CFG)
        else:
            with boundedness.bounded(T, CFG):
                pass
    # both threads took a stack, the worker's task is done, and every
    # claimed stack finished, the failed one included
    assert set(threads) == {"caller", "worker"}
    assert len(submitted) == 1 and submitted[0].done()
    stacks = seen[0]
    assert stacks._error is not None and stacks._claimed == stacks._finished >= 2


@pytest.mark.parametrize("cut", [boundedness.GIL_HELD_MAX_OUTPUT, 0])
def test_shared_stacks_under_more_threads_than_cores(rng, monkeypatch, cut):
    # four threads on one set of stacks, switching as often as the
    # interpreter allows: a stack claimed twice, a power formed from the
    # wrong running product or a slot written while another thread still
    # reads it changes the norms
    monkeypatch.setattr(boundedness, "GIL_HELD_MAX_OUTPUT", cut)
    T = _cutoff_input(rng, "spread_diagonal", SHARED_DIM)
    sv = np.linalg.svd(T, compute_uv=False)
    want = sampled_power_norms(T)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            stacks = boundedness._PowerStacks(T, POWER_SAMPLE_RANGE)
            threads = [threading.Thread(target=stacks.run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not any(t.is_alive() for t in threads)
            assert sampled_power_norms(T, POWER_SAMPLE_RANGE, sv, stacks) == want
    finally:
        sys.setswitchinterval(interval)


# -- the one spectral screen --------------------------------------------------
#
# The two decisions used to run their own band loops, each reading the band
# from the config; the loops are kept here as the reference the screen, which
# reads dec.band, must match bit for bit.


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


def _floor(dec, tol):
    """max(tol, CLUSTER_FLOOR (1 + ||T||)): the rule both radii follow."""
    return max(tol, core.CLUSTER_FLOOR * (1.0 + dec.operator_norm))


def _loop_circle_screen(dec, cfg):
    """check_uniformly_bounded's band loop: verdict, off_circle, defective,
    reasons and bound estimate."""
    band = _floor(dec, cfg.unitarity_tol)
    moduli = np.abs(dec.eigenvalues)
    off = tuple(complex(lam) for lam, m in zip(dec.eigenvalues, moduli) if abs(m - 1.0) > band)
    means = [complex(z) for z in dec.cluster_means()]
    defective = tuple(means[c] for c in dec.defective_clusters
                      if abs(abs(means[c]) - 1.0) <= band)
    reasons = [f"eigenvalue {lam:.12g} has modulus {abs(lam):.12g}, off the unit circle"
               for lam in off]
    reasons += [f"unimodular eigenvalue {lam:.12g} is defective" for lam in defective]
    bound = None
    if not off and not defective:
        p_sv = np.linalg.svd(dec.eigenvectors, compute_uv=False)
        bound = float(p_sv[0] / p_sv[-1])
    verdict = VERDICT_BOUNDED if bound is not None else VERDICT_NOT_BOUNDED
    reasons = tuple(reasons or ["diagonalizable with unimodular spectrum"])
    return verdict, off, defective, reasons, bound


def _loop_axis_screen(dec, cfg):
    """check_generator's band loop: verdict, off_real and defective."""
    band = _floor(dec, cfg.unitarity_tol)
    off_real = tuple(complex(lam) for lam in dec.eigenvalues if abs(lam.imag) > band)
    means = dec.cluster_means()
    defective = tuple(complex(means[c]) for c in dec.defective_clusters)
    ok = not off_real and not defective
    return (VERDICT_SELF_ADJOINT_LIKE if ok else boundedness.VERDICT_NOT_SELF_ADJOINT_LIKE,
            off_real, defective)


def _jordan_generator(rng, n, cond):
    """A conjugated Jordan block at a real eigenvalue, the rest of the
    spectrum real and distinct."""
    vals = rng.uniform(-2.0, 2.0, n) + 0.1 * np.arange(n)
    j = np.diag(vals).astype(complex)
    j[1, 1], j[0, 1] = vals[0], 1.0
    s = invertible_with_condition(rng, n, cond)
    return np.linalg.solve(s, j @ s)


def _screen_inputs(rng, cfg):
    """Bounded, Jordan, off-circle, real-spectrum, Jordan-generator and
    off-axis inputs, n 2-16, two draws each; and normal inputs with one
    eigenvalue 0.8 and 1.25 band widths off the circle (outside and inside)
    or off the real axis.  A normal input's norm is its largest modulus,
    about 1, so its band is the one computed here."""
    for n in (2, 3, 5, 8, 12, 16):
        for cond in (3.0, 50.0):
            yield conjugated_unitary(rng, n, cond, unimodular_phases(rng, n))[0]
            yield defective_unimodular(rng, n, cond)
            yield off_circle_fixture(rng, n, cond, bump=0.05)
            yield real_spectrum_fixture(rng, n, cond)
            yield _jordan_generator(rng, n, cond)
            yield real_spectrum_fixture(rng, n, cond) + 1e-4j * np.eye(n)
        band = max(cfg.unitarity_tol, core.CLUSTER_FLOOR * 2.0)
        for offset in (0.8 * band, 1.25 * band):
            u = haar_unitary(rng, n)
            for d in (np.exp(1j * unimodular_phases(rng, n)) * np.r_[1.0 + offset, np.ones(n - 1)],
                      np.exp(1j * unimodular_phases(rng, n)) * np.r_[1.0 - offset, np.ones(n - 1)],
                      np.r_[-1.0 + 1j * offset, np.linspace(-0.9, 0.9, n - 1)]):
                yield u @ (d[:, None] * u.conj().T)


SCREEN_CFGS = [
    CFG,
    ToleranceConfig(eig_cluster_tol=1e-6, unitarity_tol=1e-6),
    ToleranceConfig(unitarity_tol=1e-3),
    ToleranceConfig(eig_cluster_tol=0.0, unitarity_tol=0.0),
]


@pytest.mark.parametrize("cfg", SCREEN_CFGS, ids=["default", "wide", "band_1e-3", "zero"])
def test_the_screen_equals_the_band_loops(rng, cfg):
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClusterAmbiguity)
        for T in _screen_inputs(rng, cfg):
            gen = check_generator(T, cfg)
            verdict, off_real, defective = _loop_axis_screen(gen.decomposition, cfg)
            assert gen.verdict == verdict
            assert _bits(gen.off_real) == _bits(off_real)
            assert _bits(gen.defective) == _bits(defective)
            kinds.add(("generator", gen.verdict, bool(gen.off_real), bool(gen.defective)))
            try:
                rep = check_uniformly_bounded(T, cfg)
            except NotAutomorphism:
                continue
            verdict, off, defective, reasons, bound = _loop_circle_screen(rep.decomposition, cfg)
            assert rep.verdict == verdict and rep.reasons == reasons
            assert _bits(rep.off_circle) == _bits(off) and _bits(rep.defective) == _bits(defective)
            assert rep.bound_estimate == bound
            kinds.add(("circle", rep.verdict, bool(rep.off_circle), bool(rep.defective)))
    # every outcome of both screens came up
    assert {("generator", VERDICT_SELF_ADJOINT_LIKE, False, False),
            ("generator", boundedness.VERDICT_NOT_SELF_ADJOINT_LIKE, True, False),
            ("generator", boundedness.VERDICT_NOT_SELF_ADJOINT_LIKE, False, True),
            ("circle", VERDICT_BOUNDED, False, False),
            ("circle", VERDICT_NOT_BOUNDED, True, False),
            ("circle", VERDICT_NOT_BOUNDED, False, True)} <= kinds


@pytest.mark.parametrize("cfg", SCREEN_CFGS, ids=["default", "wide", "band_1e-3", "zero"])
def test_the_decomposition_carries_both_radii(rng, cfg):
    for T in _screen_inputs(rng, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClusterAmbiguity)
            dec = core.eig(T, cfg)
        assert dec.operator_norm == np.linalg.norm(T, 2)
        assert dec.cluster_tol == _floor(dec, cfg.eig_cluster_tol)
        assert dec.band == _floor(dec, cfg.unitarity_tol)
    # None stands for the default config
    assert core.eig(T).band == _floor(dec, CFG.unitarity_tol)
