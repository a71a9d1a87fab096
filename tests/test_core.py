import inspect
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    HermitianForm,
    InvalidInput,
    NotPositiveDefinite,
    ToleranceConfig,
    adjoint_wrt,
    as_operator,
    eig,
    psd_sqrt,
)
from unitarize import alternatives, cli, core, hamiltonian, intertwine, metrics
from unitarize.core import CLUSTER_FLOOR, ClusterAmbiguity, invert, relative_change
from unitarize.fixtures import (
    conjugated_unitary,
    defective_unimodular,
    positive_definite_fixture,
    unimodular_phases,
)
from unitarize.serialization import matrix_payload, parse_matrix


def test_as_operator_rejects_nonsquare():
    with pytest.raises(InvalidInput):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        as_operator([[1.0, np.inf], [0.0, 1.0]])


def test_the_standard_form_is_one_validated_object_per_size():
    # the default fiducial form and every caller of identity share it
    for n in (1, 3, 7):
        form = HermitianForm.identity(n)
        assert form is HermitianForm.identity(n) is core.resolve_fiducial(None, n)
        assert form.is_identity() and not form.gram.flags.writeable
    assert not hasattr(core, "_standard_form")


def test_the_relation_tolerance_has_one_default():
    from unitarize.families import heisenberg_metric

    default = inspect.signature(heisenberg_metric).parameters["relation_tol"].default
    assert default is core.RELATION_RTOL
    assert cli.SUBCOMMANDS["heisenberg"].flags["relation_tol"]["default"] is core.RELATION_RTOL


def test_form_requires_hermitian():
    with pytest.raises(InvalidInput):
        HermitianForm(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_form_requires_positive_definite():
    with pytest.raises(NotPositiveDefinite):
        HermitianForm(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        HermitianForm(np.diag([1.0, 0.0]))


def test_form_value_and_norm(rng):
    G = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    h = HermitianForm(G)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert_allclose(h.apply(x, y), x.conj() @ G @ y)
    # antilinear in the first slot
    assert_allclose(h.apply(2j * x, y), -2j * h.apply(x, y))
    assert h.norm_of(x) >= 0.0
    assert HermitianForm.identity(3).is_identity()


def test_eig_sorted_by_phase(rng):
    T = np.diag(np.exp(1j * np.array([3.0, 0.5, 5.5, 2.0])))
    dec = eig(T)
    phases = np.mod(np.angle(dec.eigenvalues), 2.0 * np.pi)
    assert np.all(np.diff(phases) >= 0.0)
    assert dec.diagonalizable
    assert len(dec.clusters) == 4


def test_eig_reconstruction(rng):
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    dec = eig(T)
    P = dec.eigenvectors
    recon = P @ np.diag(dec.eigenvalues) @ np.linalg.inv(P)
    assert_allclose(recon, T, atol=1e-10 * np.linalg.norm(T))


def test_eig_clusters_degenerate_eigenvalue():
    T = np.diag([1.0, 1.0, -1.0]).astype(complex)
    dec = eig(T)
    sizes = sorted(len(c) for c in dec.clusters)
    assert sizes == [1, 2]
    assert dec.diagonalizable
    assert not dec.defective_clusters


def test_eig_flags_jordan_block():
    T = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    dec = eig(T)
    assert len(dec.clusters) == 1
    assert not dec.diagonalizable
    assert dec.defective_clusters == (0,)


def test_eig_warns_on_ambiguous_clustering():
    tol = 1e-6
    cfg = ToleranceConfig(eig_cluster_tol=tol)
    gap = 1.5 * max(cfg.eig_cluster_tol, CLUSTER_FLOOR * 2.0)
    T = np.diag([1.0, 1.0 + gap]).astype(complex)
    with pytest.warns(ClusterAmbiguity):
        eig(T, cfg)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-9, "1e-9", None, True, False,
                                   pytest.param(10**400, id="huge_int")])
@pytest.mark.parametrize("field", ["eig_cluster_tol", "unitarity_tol"])
def test_tolerance_config_refuses_a_tolerance_that_is_not_finite_and_non_negative(field, value):
    # NaN compares false with every residual: a Jordan block or an operator
    # off the circle would pass each check the tolerance sets; True ran as a
    # band of 1, and an int past float range was taken and raised a bare
    # OverflowError in the first decision
    with pytest.raises(InvalidInput, match=f"^{field} must be a finite non-negative number"):
        ToleranceConfig(**{field: value})


@pytest.mark.parametrize("value", [0, -1, 2.5, 4.0, np.nan, True, False, "8", None])
def test_tolerance_config_refuses_a_horizon_that_is_not_a_positive_integer(value):
    # 2.5 used to run with horizon 2, True with horizon 1, and NaN raised a
    # bare ValueError in the first Cesaro pass
    with pytest.raises(InvalidInput, match="^cesaro_horizon must be a positive integer"):
        ToleranceConfig(cesaro_horizon=value)
    assert ToleranceConfig(cesaro_horizon=np.int64(8)).cesaro_horizon == 8


def _double_loop_labels(values, tol):
    """The reference clustering: every pair i < j in order, merged when
    |v_i - v_j| <= tol, by union-find that keeps the smaller root."""
    n = values.size
    labels = np.arange(n)

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    dist = np.abs(values[:, None] - values[None, :])
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    labels[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)])


def _cluster_spectra(rng):
    """(values, tol) cases: chains whose links are each within the radius but
    whose ends are not, in shuffled order; split Jordan eigenvalues at the
    radius eig uses; and pairs exactly at the radius or one ulp past it."""
    tol = 1e-6
    for _ in range(5):
        chain = np.exp(1j * (0.9 * tol * np.arange(12)))
        spread = np.exp(1j * np.linspace(1.0, 5.0, 8))
        yield rng.permutation(np.r_[chain, spread, chain[::3] * 1j]), tol
    for n in (4, 8):
        T = defective_unimodular(rng, n, 10.0)
        op_norm = float(np.linalg.norm(T, 2))
        yield np.linalg.eig(T)[0], max(1e-8, CLUSTER_FLOOR * (1.0 + op_norm))
    base = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    at = base + tol
    gap = np.abs(at - base)
    past = base + np.nextafter(gap, np.inf)
    yield rng.permutation(np.r_[base, at, past]), float(gap.max())
    yield np.r_[base, at, past], float(gap.min())


def test_cluster_labels_match_the_double_loop(rng):
    merged = 0
    for values, tol in _cluster_spectra(rng):
        dist = np.abs(values[:, None] - values[None, :])
        want = _double_loop_labels(values, tol)
        assert np.array_equal(core._cluster_labels(dist, tol), want)
        merged += len(set(want.tolist())) < values.size
    # every case merges some pair, so none passes on singletons alone
    assert merged == 9


def _loop_phases(vectors):
    """The reference column phases: one max, argmax and scale per column."""
    out = vectors.copy()
    mags = np.abs(out)
    for j in range(out.shape[1]):
        top = mags[:, j].max()
        if top == 0.0:
            continue
        anchor = int(np.argmax(mags[:, j] >= (1.0 - 1e-8) * top))
        pivot = out[anchor, j]
        if pivot != 0:
            out[:, j] *= np.conj(pivot) / abs(pivot)
    return out


def _loop_clusters(labels):
    """The reference cluster tuple: one np.nonzero per root label."""
    clusters = []
    for root in sorted(set(labels.tolist())):
        clusters.append(tuple(int(i) for i in np.nonzero(labels == root)[0]))
    clusters.sort(key=lambda idx: idx[0])
    return tuple(clusters)


def _loop_means(values, clusters):
    """The reference cluster means: one .mean() per cluster."""
    return np.array([values[list(idx)].mean() for idx in clusters])


def _scalar_conjugate(rng, n):
    """S^-1 (w I) S: one n-fold cluster whose computed eigenvalues spread."""
    s = core.as_operator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return np.linalg.solve(s, np.exp(0.7j) * s)


def _eig_loop_operators(rng):
    """Simple spectra at n = 16, 64 and 128, a defective one, one 64-fold
    cluster, a repeated diagonal with signed-zero parts, and a DFT matrix
    and a cyclic shift, whose eigenvectors tie in modulus (the shift's
    anchors are where np.abs and the scalar abs() part)."""
    for n in (16, 64, 128):
        yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield np.roll(np.eye(n, dtype=complex), 1, axis=0)
    yield defective_unimodular(rng, 8, 10.0)
    yield _scalar_conjugate(rng, 64)
    yield np.diag([complex(-0.0, 1.0), 1.0, 1.0, complex(-1.0, -0.0), -1.0])
    n = 12
    yield np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)


def test_column_phases_match_the_loop(rng):
    for T in _eig_loop_operators(rng):
        v = np.linalg.eig(T)[1]
        assert core._fix_column_phases(v).tobytes() == _loop_phases(v).tobytes()
    # tied moduli in every column, and zero columns, signed zeros included
    n = 16
    v = np.exp(2j * np.pi * np.outer(np.arange(n), rng.integers(1, n, n)) / n)
    v[:, 3] = 0.0
    v[:, 5] = complex(-0.0, -0.0)
    v[0, 7] = 0.0
    assert core._fix_column_phases(v).tobytes() == _loop_phases(v).tobytes()


def test_clusters_and_means_match_the_loops(rng):
    sizes = set()
    for T in _eig_loop_operators(rng):
        dec = eig(T)
        w = dec.eigenvalues
        labels = core._cluster_labels(np.abs(w[:, None] - w[None, :]), dec.cluster_tol)
        assert dec.clusters == _loop_clusters(labels)
        assert dec.cluster_means().tobytes() == _loop_means(w, dec.clusters).tobytes()
        sizes.update(len(idx) for idx in dec.clusters)
    assert {1, 2, 64} <= sizes
    # a singleton's mean keeps .mean()'s bits, signed zeros included
    zeros = [0.0, -0.0, 1.0, -2.5]
    w = np.array([complex(a, b) for a in zeros for b in zeros])
    dec = core.EigenDecomposition(w, np.eye(w.size), tuple((i,) for i in range(w.size)),
                                  np.arange(w.size), True, (), 1e-8, 1e-8, 1.0)
    assert dec.cluster_means().tobytes() == _loop_means(w, dec.clusters).tobytes()


def test_same_cluster_mask():
    dec = eig(np.diag([1.0, 1.0, 1j]).astype(complex))
    mask = dec.same_cluster_mask()
    assert mask.dtype == bool
    assert int(mask.sum()) == 5  # one 2x2 block plus one singleton


def _loop_labels(clusters, dim):
    """The reference labels: one store per eigenvalue index."""
    out = np.empty(dim, dtype=int)
    for c, idx in enumerate(clusters):
        for i in idx:
            out[i] = c
    return out


def test_labels_and_means_match_the_loops_and_are_formed_once(rng):
    for T in _eig_loop_operators(rng):
        dec = eig(T)
        assert dec.labels.tobytes() == _loop_labels(dec.clusters, dec.dim).tobytes()
        assert dec.labels is dec.labels and dec.cluster_means() is dec.cluster_means()
        assert not dec.labels.flags.writeable and not dec.cluster_means().flags.writeable


def _loop_match(dec1, dec2):
    """The reference cross-spectrum match: every cluster pair in row-major
    order, compared by the scalar abs() of the difference of the means.
    Returns the matched pairs, their common eigenvalues and the near-match
    count."""
    tol = max(dec1.cluster_tol, dec2.cluster_tol)
    means1, means2 = dec1.cluster_means(), dec2.cluster_means()
    pairs, near = [], 0
    for i, m1 in enumerate(means1):
        for j, m2 in enumerate(means2):
            d = abs(m1 - m2)
            if d <= tol:
                pairs.append((i, j))
            elif d <= core.NEAR_MATCH_FACTOR * tol:
                near += 1
    common = tuple(complex((means1[i] + means2[j]) / 2.0) for i, j in pairs)
    return pairs, common, near


def _positional(values, tol):
    """A decomposition of diag(values), simple spectrum, radius tol."""
    w = np.asarray(values, dtype=complex)
    return np.diag(w), core.EigenDecomposition(
        w, np.eye(w.size, dtype=complex), tuple((i,) for i in range(w.size)),
        np.arange(w.size), True, (), tol, tol, 1.0)


def _match_cases(rng):
    """Pairs of operators, or of (diagonal operator, decomposition): shared
    spectra; disjoint spectra half a spacing apart; one 64-fold cluster
    against a simple spectrum; and pairs exactly at one and at
    NEAR_MATCH_FACTOR matching radii, one ulp past each, and at random
    directions of modulus near each."""
    n = 8
    phases = unimodular_phases(rng, n)
    T1, _, _ = conjugated_unitary(rng, n, 20.0, phases)
    T2, _, _ = conjugated_unitary(rng, n, 20.0, phases)
    yield T1, T2
    grid = 2.0 * np.pi * np.arange(n) / n
    T1, _, _ = conjugated_unitary(rng, n, 10.0, grid)
    T2, _, _ = conjugated_unitary(rng, n, 10.0, grid + np.pi / n)
    yield T1, T2
    simple = np.exp(1j * np.r_[0.7, np.linspace(1.5, 6.0, 63)])
    yield _scalar_conjugate(rng, 64), conjugated_unitary(rng, 64, 5.0, np.angle(simple))[0]
    tol = 2.0 ** -20
    base = 0.5 + 4.0 * np.arange(6)
    for factor in (1.0, core.NEAR_MATCH_FACTOR):
        at = base + factor * tol
        past = np.nextafter(at, np.inf)
        turn = np.exp(2j * np.pi * rng.random(6))
        spun = base + factor * tol * turn
        w1 = np.r_[base, base + 1.0, base + 2.0]
        w2 = np.r_[at, past + 1.0, spun + 2.0]
        yield _positional(w1, tol), _positional(w2, tol)
    # one pair each, at a radius set to the scalar abs() of its difference
    for factor in (1.0, core.NEAR_MATCH_FACTOR):
        for _ in range(20):
            m1, m2 = np.exp(2j * np.pi * rng.random()) * (1.0 + 1e-6 * rng.random(2))
            tol = float(abs(m1 - m2)) / factor
            yield _positional([m1], tol), _positional([m2], tol)


def _near_count(caught):
    counts = [int(str(w.message).split()[0]) for w in caught if "almost match" in str(w.message)]
    assert len(counts) <= 1
    return counts[0] if counts else 0


def test_match_equals_the_double_loop(rng):
    seen = []
    for first, second in _match_cases(rng):
        (T1, dec1), (T2, dec2) = (
            x if isinstance(x, tuple) else (x, eig(x)) for x in (first, second))
        pairs, common, near = _loop_match(dec1, dec2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            matched = dec1.match(dec2)
        assert matched.shape == (len(dec1.clusters), len(dec2.clusters))
        assert list(zip(*np.nonzero(matched))) == pairs
        assert _near_count(caught) == near
        h0 = core.resolve_fiducial(None, dec1.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = intertwine._averaged_connection(T1, dec1, T2, dec2, h0)
        assert result.common_eigenvalues == common
        seen.append((len(pairs), near))
    # (matched, near) per case; in the radius cases six pairs sit at the
    # radius, six one ulp past it and six in random directions about it
    assert seen[:3] == [(8, 0), (0, 0), (1, 0)]
    assert seen[3][0] >= 6 and sum(seen[3]) == 18
    assert seen[4][0] == 0 and 6 <= seen[4][1] <= 12
    assert seen[5:25] == [(1, 0)] * 20


def test_psd_sqrt_squares_back(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    G = M @ M.conj().T + 4.0 * np.eye(4)
    Q = psd_sqrt(G)
    assert_allclose(Q @ Q, G, atol=1e-12 * np.linalg.norm(G))
    assert_allclose(Q, Q.conj().T, atol=1e-13 * np.linalg.norm(Q))
    with pytest.raises(NotPositiveDefinite):
        psd_sqrt(np.diag([1.0, -2.0]))


@pytest.mark.parametrize("ratio", [1e-10, 1e-12, 2e-14])
def test_psd_sqrt_takes_the_forms_positive_definite_test(ratio):
    # Eigenvalue ratios in (1e-14, 1e-10] once passed psd_sqrt's own cut
    # although HermitianForm rejects them; now both reject them.
    g = np.diag([1.0, ratio])
    for take in (HermitianForm, psd_sqrt):
        with pytest.raises(NotPositiveDefinite):
            take(g)
    with pytest.raises(InvalidInput, match="not Hermitian"):
        psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert_allclose(psd_sqrt(np.diag([4.0, 1e-9])), np.diag([2.0, np.sqrt(1e-9)]))


def test_adjoint_wrt_pairing(rng):
    G = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
    h = HermitianForm(G)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Astar = adjoint_wrt(A, h)
    x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert_allclose(h.apply(A @ x, y), h.apply(x, Astar @ y))


def test_adjoint_wrt_identity_form_is_conjugate_transpose(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(adjoint_wrt(A, HermitianForm.identity(3)), A.conj().T)


def test_invert_checks_singularity():
    with pytest.raises(InvalidInput, match="singular"):
        invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(invert(A), A)


# The ten relative residuals the library wrote out by hand before
# core.relative_change, each as its site wrote it, in the site's own names
# for the (value, reference) operands it now hands the rule.  The first two
# and the closed-form ones had no floor under the reference norm.
_norm = np.linalg.norm
LEGACY_RULES = {
    "invariance_residual": lambda TGT, g: float(_norm(TGT - g) / _norm(g)),
    "self_adjointness_residual": lambda lhs, _: float(
        _norm(lhs - lhs.conj().T) / max(_norm(lhs), 1e-300)),
    "gram_match": lambda G0QQ, g: float(_norm(G0QQ - g)) / _norm(g),
    "cesaro_drift": lambda mean_part, mean_full: float(
        _norm(mean_full - mean_part) / max(_norm(mean_full), 1e-300)),
    "cesaro_residual": lambda A_half, A: float(_norm(A - A_half) / max(_norm(A), 1e-300)),
    "exp_reconstruction": lambda rebuilt, T: float(_norm(rebuilt - T) / max(_norm(T), 1e-300)),
    "metric_vs_closed_form": lambda g, predicted: float(_norm(g - predicted) / _norm(predicted)),
    # the three tests compared a norm with 1e-12 times the floored scale
    "same_form": lambda gb, ga: _norm(ga - gb) / max(_norm(ga), 1e-300),
    "antisymmetry": lambda lam, _: _norm(lam + lam.T) / max(_norm(lam), 1e-300),
    "symmetry": lambda ham, _: _norm(ham - ham.T) / max(_norm(ham), 1e-300),
}
_FLOORED = {"self_adjointness_residual", "cesaro_drift", "cesaro_residual",
            "exp_reconstruction", "same_form", "antisymmetry", "symmetry"}


def _bitwise(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _spy(monkeypatch, module):
    """The (value, reference, result) of every relative_change call that
    module makes."""
    calls, rule = [], core.relative_change

    def record(value, reference):
        calls.append((value, reference, rule(value, reference)))
        return calls[-1][2]

    monkeypatch.setattr(module, "relative_change", record)
    return calls


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_relative_change_is_each_legacy_rule_bit_for_bit(rng):
    """On random operands, with the site's operand order and layout, the
    one rule gives each legacy residual's bits; with a zero reference it
    gives the floored rules' bits, where the unfloored ones gave nan."""
    for _ in range(20):
        n = int(rng.integers(1, 9))
        M, R = _complex(rng, n, n), _complex(rng, n, n)
        S = M.real
        operands = {
            "self_adjointness_residual": (M, M.conj().T),
            "antisymmetry": (S, -S.T),
            "symmetry": (S, S.T),
        }
        for key, legacy in LEGACY_RULES.items():
            value, reference = operands.get(key, (M, R))
            assert _bitwise(relative_change(value, reference), legacy(value, reference)), key
            if key in _FLOORED and key not in operands:
                zero = np.zeros_like(R)
                assert _bitwise(relative_change(value, zero), legacy(value, zero)), key
    zero = np.zeros((3, 3), dtype=complex)
    assert relative_change(zero, zero) == 0.0
    assert _bitwise(relative_change(zero, zero), LEGACY_RULES["self_adjointness_residual"](zero, zero))
    assert relative_change(np.eye(2), np.zeros((2, 2))) == np.sqrt(2.0) / 1e-300
    with np.errstate(invalid="ignore"):
        assert np.isnan(LEGACY_RULES["invariance_residual"](zero, zero))


def _report(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("site", sorted(LEGACY_RULES))
def test_each_site_reports_its_legacy_residual(site, rng, monkeypatch, tmp_path, capsys):
    """Each site hands the rule the operands its hand-written formula read,
    in the same roles (one operand is pinned to an array the site exposes),
    and reports the rule's value: the legacy bits."""
    T, _, _ = conjugated_unitary(rng, 5, 10.0, unimodular_phases(rng, 5, min_gap=0.3))
    G = positive_definite_fixture(rng, 5, 10.0)
    lam, ham = np.array([[0.0, 2.0], [-2.0, 0.0]]), np.array([[1.0, 0.5], [0.5, 3.0]])
    (tmp_path / "t.json").write_text(json.dumps(matrix_payload(T)))
    (tmp_path / "spec.json").write_text(json.dumps(
        {"kind": "shift", "size": 6, "step": 2, "density": [0.5, 1, 1.5, 2, 0.8, 1.2]}))

    # each run returns (what the site reports, which operand is pinned, its array)
    def gram_match():
        result = metrics.invariant_metric(T, HermitianForm(G))
        return result.residuals["gram_match"], 1, result.invariant_form.gram

    def cesaro_drift():
        form, drift = metrics.cesaro_oracle(T, None, 1 << 12)
        return drift, 1, form.gram

    def cesaro_residual():
        dep = alternatives.metric_dependence(T, None, HermitianForm(G), horizon=1 << 12)
        return dep.cesaro_residual, 1, dep.averaging_defect

    def exp_reconstruction():
        report = _report(capsys, ["log", "--in", str(tmp_path / "t.json")])
        return report["residuals"]["exp_reconstruction"], 1, T

    def metric_vs_closed_form():
        report = _report(capsys, ["example", "--spec", str(tmp_path / "spec.json")])
        gram = parse_matrix(report["matrices"]["invariant_gram"])
        return report["residuals"]["metric_vs_closed_form"], 0, gram

    def same_form():
        a, b = HermitianForm(G), HermitianForm(G * (1.0 + 1e-13))
        return hamiltonian._same_form(a, b), 1, a.gram

    def factorization(pinned):
        hamiltonian.ClassicalFactorization(lam, ham)
        return None, 0, pinned

    runs = {
        "invariance_residual": (core, lambda: (core.invariance_residual(T, G), 1, G)),
        "self_adjointness_residual": (
            core, lambda: (core.self_adjointness_residual(T, G), 0, G @ T)),
        "gram_match": (metrics, gram_match),
        "cesaro_drift": (metrics, cesaro_drift),
        "cesaro_residual": (alternatives, cesaro_residual),
        "exp_reconstruction": (cli, exp_reconstruction),
        "metric_vs_closed_form": (cli, metric_vs_closed_form),
        "same_form": (hamiltonian, same_form),
        "antisymmetry": (hamiltonian, lambda: factorization(lam)),
        "symmetry": (hamiltonian, lambda: factorization(ham)),
    }
    module, run = runs[site]
    calls = _spy(monkeypatch, module)
    reported, role, pinned = run()
    assert len(calls) == (2 if site in ("antisymmetry", "symmetry") else 1)
    value, reference, got = calls[site == "symmetry"]
    assert np.array_equal((value, reference)[role], pinned)
    legacy = LEGACY_RULES[site](value, reference)
    assert _bitwise(got, legacy)
    if site == "same_form":
        assert reported is True and legacy <= 1e-12
    elif reported is not None:
        assert _bitwise(reported, legacy)
