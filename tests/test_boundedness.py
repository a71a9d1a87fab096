import functools

import numpy as np
import pytest

from unitarize import (
    InvalidInput,
    NotAutomorphism,
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
from unitarize.fixtures import (
    conjugated_unitary,
    defective_unimodular,
    haar_unitary,
    invertible_with_condition,
    normal_fixture,
    off_circle_fixture,
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
