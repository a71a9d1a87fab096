import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    HermitianForm,
    InvalidInput,
    MissingClusterWeight,
    NonPositivePhi,
    NonPositiveWeight,
    ScalingSpec,
    ToleranceConfig,
    commutant_positive_basis,
    invariant_metric,
    metric_dependence,
    phi_metric,
    scaled_metric,
)
from unitarize.boundedness import bounded
from unitarize.core import hermitize, resolve_fiducial
from unitarize.fixtures import (
    conjugated_degenerate,
    conjugated_unitary,
    jittered_unimodular_phases,
    positive_definite_fixture,
    unimodular_phases,
)

CFG = ToleranceConfig()
INVOLUTION = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)


def invariance_residual(T, G):
    return np.linalg.norm(T.conj().T @ G @ T - G) / np.linalg.norm(G)


def test_equal_weights_recover_scaled_limit_metric():
    base = invariant_metric(INVOLUTION, None, CFG).invariant_form.gram
    G = scaled_metric(INVOLUTION, ScalingSpec({0: 2.0, 1: 2.0}), CFG).gram
    assert_allclose(G, 2.0 * base, atol=1e-12)


def test_distinct_weights_stay_invariant(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 20.0, unimodular_phases(rng, n))
    weights = {c: w for c, w in enumerate(rng.uniform(0.5, 3.0, n))}
    G = scaled_metric(T, ScalingSpec(weights), CFG).gram
    assert invariance_residual(T, G) <= 1e-10
    base = invariant_metric(T, None, CFG).invariant_form.gram
    assert np.linalg.norm(G - base) > 1e-3 * np.linalg.norm(base)


def test_block_weight_on_degenerate_cluster(rng):
    T, _, _ = conjugated_degenerate(rng, 3, 10.0)
    B = positive_definite_fixture(rng, 2, 3.0)
    G = scaled_metric(T, ScalingSpec({0: B, 1: 1.5}), CFG).gram
    assert invariance_residual(T, G) <= 1e-10
    assert np.all(np.linalg.eigvalsh((G + G.conj().T) / 2) > 0.0)


def test_scalar_weight_block_has_the_validated_blocks_bits():
    """w I is what HermitianForm returned for it, so B and the metric keep
    their bits without an eigvalsh per cluster."""
    for size in (1, 2, 5):
        for w in (0.5, 2, np.float64(7.25), 1e-30, 1.0 + 0j):
            want = HermitianForm(np.diag(np.full(size, complex(w)))).gram
            got = ScalingSpec({3: w}).block_for(3, size)
            assert np.asarray(got, dtype=np.complex128).tobytes() == want.tobytes()


def test_weight_table_is_validated(rng):
    T, _, _ = conjugated_unitary(rng, 3, 5.0, unimodular_phases(rng, 3))
    with pytest.raises(MissingClusterWeight):
        scaled_metric(T, ScalingSpec({0: 1.0}), CFG)
    with pytest.raises(NonPositiveWeight):
        scaled_metric(T, ScalingSpec({0: 1.0, 1: -2.0, 2: 1.0}), CFG)
    with pytest.raises(InvalidInput):
        scaled_metric(T, ScalingSpec({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}), CFG)
    # a 2x2 block makes no sense on a simple eigenvalue
    with pytest.raises(InvalidInput):
        block = np.eye(2)
        scaled_metric(T, ScalingSpec({0: block, 1: 1.0, 2: 1.0}), CFG)
    # a block is a weight when HermitianForm takes it as a metric
    with pytest.raises(NonPositiveWeight, match="cluster 0: .*not positive definite"):
        ScalingSpec({0: np.diag([1.0, 1e-12])}).block_for(0, 2)
    with pytest.raises(NonPositiveWeight, match="cluster 0: .*not Hermitian"):
        ScalingSpec({0: np.array([[1.0, 0.5], [0.0, 1.0]])}).block_for(0, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_weight_is_rejected_at_its_block(bad):
    block = np.array([[2.0, bad], [bad, 1.0]])
    for spec in (ScalingSpec({0: 1.0, 1: block}), ScalingSpec({0: 1.0, 1: bad})):
        with pytest.raises(NonPositiveWeight, match="^cluster 1: "):
            spec.block_for(1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)],
                         ids=["nan", "inf", "nan_imag"])
def test_non_finite_values_are_rejected_by_name(rng, bad):
    with pytest.raises(NonPositiveWeight, match="^cluster 1: scalar weight must be real"):
        ScalingSpec({0: 1.0, 1: bad}).block_for(1, 2)
    T, _, _ = conjugated_unitary(rng, 3, 5.0, unimodular_phases(rng, 3))
    result = invariant_metric(T, None, CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositivePhi, match="on cluster 0 is not positive"):
            phi_metric(result, lambda theta: bad)
        with pytest.raises(NonPositivePhi, match="on cluster 2 is not positive"):
            phi_metric(result, {0: 1.0, 1: 2.0, 2: bad})


def test_phi_metric_commutes_and_stays_invariant(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 15.0, unimodular_phases(rng, n))
    result = invariant_metric(T, None, CFG)
    phi = lambda theta: 1.0 + 0.5 * np.cos(theta)
    form, factor = phi_metric(result, phi)
    G = form.gram
    assert invariance_residual(T, G) <= 1e-9
    assert np.linalg.norm(T @ factor - factor @ T) <= 1e-9 * np.linalg.norm(factor)


def test_phi_identity_returns_limit_metric(rng):
    n = 3
    T, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    result = invariant_metric(T, None, CFG)
    form, factor = phi_metric(result, lambda theta: 1.0)
    assert_allclose(form.gram, result.invariant_form.gram, atol=1e-12)
    assert_allclose(factor, np.eye(n), atol=1e-10)


def test_phi_mapping_and_positivity(rng):
    T, _, _ = conjugated_unitary(rng, 3, 5.0, unimodular_phases(rng, 3))
    result = invariant_metric(T, None, CFG)
    form, _ = phi_metric(result, {0: 2.0, 1: 0.5, 2: 1.0})
    assert invariance_residual(T, form.gram) <= 1e-9
    with pytest.raises(NonPositivePhi):
        phi_metric(result, lambda theta: np.cos(theta))


def test_phi_reads_phase_zero_at_eigenvalue_one():
    # The computed eigenvalue at 1 has a phase a rounding error below zero,
    # which wraps to 2 pi unless the cluster radius snaps it back, as it
    # does for unitary_log.
    T, _, _ = conjugated_unitary(np.random.default_rng(2), 4, 10.0, [0.0, 1.0, 2.5, 4.0])
    result = invariant_metric(T, None, CFG)
    seen = []
    phi_metric(result, lambda theta: seen.append(theta) or 1.0)
    assert len(seen) == 4 and min(seen) == 0.0 and max(seen) < 2.0 * np.pi
    assert_allclose(sorted(seen), [0.0, 1.0, 2.5, 4.0], atol=1e-12)


def test_commutant_basis_spans_expected_dimension():
    T = np.diag([1.0, 1.0, -1.0]).astype(complex)
    basis = commutant_positive_basis(T, None, CFG)
    assert len(basis) == 5  # 2^2 + 1^2
    stacked = np.array([K.reshape(-1) for K in basis])
    assert np.linalg.matrix_rank(stacked) == 5
    G = invariant_metric(T, None, CFG).invariant_form.gram
    for K in basis:
        # commutes with T and is self-adjoint for the averaged metric
        assert np.linalg.norm(T @ K - K @ T) <= 1e-12 * np.linalg.norm(K)
        GK = G @ K
        assert np.linalg.norm(GK - GK.conj().T) <= 1e-12 * np.linalg.norm(GK)


def test_commutant_basis_deforms_the_metric(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 10.0, unimodular_phases(rng, n))
    basis = commutant_positive_basis(T, None, CFG)
    assert len(basis) == n
    G = invariant_metric(T, None, CFG).invariant_form.gram
    for K in basis:
        assert np.linalg.norm(T @ K - K @ T) <= 1e-9 * np.linalg.norm(K)
        # a small step along each direction is again an invariant metric
        Gp = G + 0.01 / np.linalg.norm(K) * (G @ K)
        Gp = (Gp + Gp.conj().T) / 2
        assert np.all(np.linalg.eigvalsh(Gp) > 0.0)
        assert invariance_residual(T, Gp) <= 1e-9


def _padded_commutant_basis(T, h0):
    """commutant_positive_basis as first built: each element's cluster block
    padded into an n x n kappa and written back as P kappa P^{-1}."""
    with bounded(T, CFG) as dec:
        n = dec.dim
        G0 = np.asarray(resolve_fiducial(h0, n).gram)
        P, Pi = dec.eigenvectors, dec.inverse
        M = P.conj().T @ G0 @ P
    out = []
    for idx in dec.clusters:
        rows = list(idx)
        m = len(rows)
        Mc_inv = np.linalg.inv(hermitize(M[np.ix_(rows, rows)]))
        for a in range(m):
            for b in range(a, m):
                if a == b:
                    hs = [np.zeros((m, m), dtype=np.complex128)]
                    hs[0][a, a] = 1.0
                else:
                    h_re = np.zeros((m, m), dtype=np.complex128)
                    h_re[a, b] = h_re[b, a] = 1.0
                    h_im = np.zeros((m, m), dtype=np.complex128)
                    h_im[a, b] = 1j
                    h_im[b, a] = -1j
                    hs = [h_re, h_im]
                for h in hs:
                    kappa = np.zeros((n, n), dtype=np.complex128)
                    kappa[np.ix_(rows, rows)] = Mc_inv @ h
                    out.append(P @ kappa @ Pi)
    return out


@pytest.mark.parametrize("fiducial", ["identity", "general"])
@pytest.mark.parametrize("spectrum", ["simple", "degenerate"])
def test_commutant_basis_equals_the_padded_construction(rng, fiducial, spectrum):
    for n, cond in ((8, 10.0), (64, 10.0), (64, 100.0)):
        r = 1 if spectrum == "simple" else n // 4  # one eigenvalue r times
        distinct = jittered_unimodular_phases(rng, n - r + 1, 0.5 / n)
        T, _, _ = conjugated_unitary(rng, n, cond, np.concatenate([np.full(r, distinct[0]),
                                                                   distinct[1:]]))
        h0 = None if fiducial == "identity" else positive_definite_fixture(rng, n, 10.0)
        got = commutant_positive_basis(T, h0, CFG)
        want = _padded_commutant_basis(T, h0)
        assert len(got) == len(want) == n - r + r * r
        for K, W in zip(got, want):
            assert np.linalg.norm(K - W) <= 1e-13 * np.linalg.norm(W)


def test_metric_dependence_identities(rng):
    n = 4
    T, _, _ = conjugated_unitary(rng, n, 5.0, jittered_unimodular_phases(rng, n, margin=0.3))
    h0 = HermitianForm(positive_definite_fixture(rng, n, 3.0))
    h0p = HermitianForm(positive_definite_fixture(rng, n, 3.0))
    report = metric_dependence(T, h0, h0p, CFG)
    assert report.residuals["sum_rule"] <= 1e-6
    assert report.residuals["commutator_flip"] <= 1e-6
    assert report.residuals["invariant_commutes"] <= 1e-9
    # the fiducial change is a plain two-sided Gram quotient
    C = np.linalg.solve(h0p.gram, h0.gram)
    assert_allclose(report.fiducial_change, C, atol=1e-12)


def test_metric_dependence_horizon_override(rng):
    n = 3
    T, _, _ = conjugated_unitary(rng, n, 5.0, jittered_unimodular_phases(rng, n, margin=0.3))
    h0 = HermitianForm(positive_definite_fixture(rng, n, 3.0))
    h0p = HermitianForm(positive_definite_fixture(rng, n, 3.0))
    coarse = metric_dependence(T, h0, h0p, CFG, horizon=1 << 8)
    fine = metric_dependence(T, h0, h0p, CFG)
    assert coarse.horizon == 1 << 8
    assert fine.residuals["sum_rule"] < coarse.residuals["sum_rule"]
    with pytest.raises(InvalidInput):
        metric_dependence(T, h0, h0p, CFG, horizon=1)
    with pytest.raises(InvalidInput, match="^the averaging horizon must be an integer"):
        metric_dependence(T, h0, h0p, CFG, horizon=256.5)
