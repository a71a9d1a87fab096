"""Acceptance battery for the release gate.

Each test covers one numbered criterion, prints a single
``[criterion-NN] PASS/FAIL`` line (run pytest with -s to see them all),
and then asserts the measurement behind the line.  Seeds are fixed per
criterion so reruns measure the same ensemble.
"""

import os
import warnings

import numpy as np
import pytest

from unitarize import (
    HermitianForm,
    QuadraticObservable,
    SlowConvergence,
    bracket_observable,
    build,
    cesaro_oracle,
    check_normal_dichotomy,
    check_uniformly_bounded,
    commuting_pair_metric,
    ehrenfest_flow,
    factorization_check,
    heisenberg_metric,
    intertwiner,
    intertwiner_scaled,
    invariant_metric,
    make_clock_shift,
    metric_dependence,
    multiplicity_free_shortcut,
    n_product,
    parity_metric_diagonal,
    parity_model,
    phi_metric,
    planar_oscillator_pair,
    poisson_bracket,
    schrodinger_states,
    spectrum_match_report,
    translation_metric_diagonal,
    translation_model,
)
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    defective_unimodular,
    invertible_with_condition,
    jittered_unimodular_phases,
    normal_fixture,
    off_circle_fixture,
    positive_definite_fixture,
    unimodular_phases,
)

BASE_SEED = int(os.environ.get("UNITARIZE_SEED", "20260821"))

INVOLUTION = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
INVOLUTION_GRAM = np.array([[1.0, 1.0], [1.0, 3.0]], dtype=complex)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
FLAT2 = HermitianForm.identity(2)

_POSITIVE_BATCH = None


def _line(num, ok, detail):
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _criterion_rng(salt):
    return np.random.default_rng([BASE_SEED, salt])


def _rel(delta, reference):
    return float(np.linalg.norm(delta) / np.linalg.norm(reference))


def _positive_batch():
    """500 conjugated unimodular operators, dims 2 to 8, cond(S) <= 100."""
    global _POSITIVE_BATCH
    if _POSITIVE_BATCH is None:
        rng = _criterion_rng(101)
        batch = []
        for k in range(500):
            dim = 2 + k % 7
            cond = float(rng.uniform(1.0, 100.0))
            T, _, _ = conjugated_unitary(rng, dim, cond, unimodular_phases(rng, dim))
            batch.append(T)
        _POSITIVE_BATCH = batch
    return _POSITIVE_BATCH


def test_criterion_01_boundedness_split():
    rng = _criterion_rng(102)
    wrong = 0
    for T in _positive_batch():
        if check_uniformly_bounded(T).verdict != "uniformly_bounded":
            wrong += 1
    for k in range(500):
        dim = 2 + k % 7
        cond = float(rng.uniform(1.0, 100.0))
        if k % 2 == 0:
            T = off_circle_fixture(rng, dim, cond, bump=0.05)
        else:
            T = defective_unimodular(rng, dim, cond)
        if check_uniformly_bounded(T).verdict != "not_bounded":
            wrong += 1
    ok = wrong == 0
    _line(1, ok, f"1000 operators classified, {wrong} misclassified")
    assert ok


def test_criterion_02_certificate_residuals():
    worst_inv = 0.0
    worst_uni = 0.0
    for T in _positive_batch():
        result = invariant_metric(T)
        g = result.invariant_form.gram
        u = result.unitarized
        worst_inv = max(worst_inv, _rel(T.conj().T @ g @ T - g, g))
        worst_uni = max(
            worst_uni, float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
        )
    ok = worst_inv <= 1e-9 and worst_uni <= 1e-9
    _line(2, ok, f"worst invariance {worst_inv:.2e}, worst unitarity {worst_uni:.2e}")
    assert ok


def test_criterion_03_average_matches_closed_form():
    rng = _criterion_rng(103)
    worst = 0.0
    with warnings.catch_warnings():
        # at horizon 4096 the oracle tags generic spectra as slow; expected
        warnings.simplefilter("ignore", SlowConvergence)
        for k in range(200):
            dim = 2 + k % 7
            cond = float(rng.uniform(1.5, 30.0))
            phases = jittered_unimodular_phases(rng, dim, margin=0.25)
            T, _, _ = conjugated_unitary(rng, dim, cond, phases)
            closed = invariant_metric(T).invariant_form.gram
            averaged = cesaro_oracle(T, horizon=4096)[0].gram
            worst = max(worst, _rel(averaged - closed, closed))

    # operators of finite order are averaged exactly at even horizons
    ces2 = cesaro_oracle(INVOLUTION, horizon=4096)[0].gram
    exact2 = _rel(ces2 - INVOLUTION_GRAM, INVOLUTION_GRAM)
    s = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    invol3 = s @ np.diag([1.0, -1.0, 1.0]) @ np.linalg.inv(s)
    closed3 = invariant_metric(invol3).invariant_form.gram
    ces3 = cesaro_oracle(invol3, horizon=4096)[0].gram
    exact3 = _rel(ces3 - closed3, closed3)

    ok = worst <= 1e-3 and exact2 <= 1e-12 and exact3 <= 1e-12
    _line(3, ok, f"worst drift {worst:.2e}, finite order {max(exact2, exact3):.2e}")
    assert ok


def test_criterion_04_grid_models_match_closed_forms():
    rng = _criterion_rng(104)
    worst_gram = 0.0
    worst_spec = 0.0
    for _ in range(50):
        size = 2 * int(rng.integers(2, 33))
        magnitude = np.exp(rng.uniform(-1.0, 1.0, size))
        phase = rng.uniform(0.0, 2.0 * np.pi, size)
        spec = parity_model(magnitude, phase)
        T, _ = build(spec)
        q = invariant_metric(T).positive_similarity
        expected = np.diag(parity_metric_diagonal(spec))
        worst_gram = max(worst_gram, float(np.abs(q @ q - expected).max()))
        report = spectrum_match_report(spec)
        worst_spec = max(worst_spec, report["worst_eigenvalue_distance"])

    worst_radius = 0.0
    worst_trans = 0.0
    for _ in range(50):
        size = 2 * int(rng.integers(2, 33))
        step = 1
        value = float(np.exp(rng.uniform(-1.0, 1.0)))
        magnitude = np.where(np.arange(size) % 2 == 0, value, 1.0 / value)
        phase = rng.uniform(0.0, 2.0 * np.pi, size)
        spec = translation_model(magnitude, phase, step=step)
        T, _ = build(spec)
        q = invariant_metric(T).positive_similarity
        expected = np.diag(translation_metric_diagonal(spec))
        worst_trans = max(worst_trans, float(np.abs(q @ q - expected).max()))
        report = spectrum_match_report(spec)
        slack = report["covering_radius"] - 2.0 * np.pi / size
        worst_radius = max(worst_radius, slack)

    ok = (
        worst_gram <= 1e-10
        and worst_spec <= 1e-10
        and worst_trans <= 1e-10
        and worst_radius <= 1e-9
    )
    _line(
        4,
        ok,
        f"metric gap {max(worst_gram, worst_trans):.2e}, spectrum {worst_spec:.2e}, "
        f"radius slack {worst_radius:.2e}",
    )
    assert ok


def test_criterion_05_metric_dependence_identities():
    rng = _criterion_rng(105)
    worst_sum = 0.0
    worst_flip = 0.0
    worst_commute = 0.0
    for k in range(100):
        dim = 2 + k % 5
        T, _, _ = conjugated_unitary(
            rng, dim, 5.0, jittered_unimodular_phases(rng, dim, margin=0.3)
        )
        h0 = positive_definite_fixture(rng, dim, 3.0)
        h0_prime = positive_definite_fixture(rng, dim, 3.0)
        report = metric_dependence(T, h0, h0_prime)
        worst_sum = max(worst_sum, report.residuals["sum_rule"])
        worst_flip = max(worst_flip, report.residuals["commutator_flip"])
        worst_commute = max(worst_commute, report.residuals["invariant_commutes"])
    ok = worst_sum <= 1e-6 and worst_flip <= 1e-6 and worst_commute <= 1e-9
    _line(
        5,
        ok,
        f"sum rule {worst_sum:.2e}, flip {worst_flip:.2e}, "
        f"commutation {worst_commute:.2e}",
    )
    assert ok


def test_criterion_06_weighted_averages_commute():
    rng = _criterion_rng(106)
    worst = 0.0
    for k in range(100):
        dim = 2 + k % 7
        cond = float(rng.uniform(1.0, 20.0))
        phases = unimodular_phases(rng, dim, min_gap=0.05)
        T, _, _ = conjugated_unitary(rng, dim, cond, phases)
        uni = invariant_metric(T)
        a1, a2 = rng.uniform(0.0, 1.0, 2)
        b1, b2 = rng.uniform(0.0, 2.0 * np.pi, 2)
        a0 = 0.5 + a1 + a2 + rng.uniform(0.0, 1.0)

        def phi(theta):
            return a0 + a1 * np.cos(theta + b1) + a2 * np.sin(2.0 * theta + b2)

        _, factor = phi_metric(uni, phi)
        res = np.linalg.norm(T @ factor - factor @ T)
        worst = max(worst, float(res / (np.linalg.norm(T) * np.linalg.norm(factor))))

    T, _, _ = conjugated_unitary(rng, 4, 10.0, unimodular_phases(rng, 4))
    uni = invariant_metric(T)
    flat_form, _ = phi_metric(uni, lambda theta: np.ones_like(theta))
    flat = _rel(flat_form.gram - uni.invariant_form.gram, uni.invariant_form.gram)

    ok = worst <= 1e-9 and flat <= 1e-12
    _line(6, ok, f"worst commutator {worst:.2e}, unit weight gap {flat:.2e}")
    assert ok


def test_criterion_07_commuting_pairs_and_shortcut():
    rng = _criterion_rng(107)
    worst_joint = 0.0
    worst_shortcut = 0.0
    for k in range(50):
        dim = 2 + k % 7
        cond = float(rng.uniform(1.0, 50.0))
        t1, t2 = commuting_conjugated_pair(rng, dim, cond)
        result = commuting_pair_metric(t1, t2)
        g = result.form.gram
        for t in (t1, t2):
            worst_joint = max(worst_joint, _rel(t.conj().T @ g @ t - g, g))
        shortcut = multiplicity_free_shortcut(t1, t2)
        assert shortcut.valid
        worst_shortcut = max(worst_shortcut, shortcut.second_invariance_residual)

    # degenerate eigenvalue of t1 lets t2 act non-normally inside the
    # cluster, so the one-pass shortcut must refuse while two passes work
    t1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    t2 = np.zeros((3, 3), dtype=complex)
    t2[:2, :2] = INVOLUTION
    t2[2, 2] = 1.0
    degenerate = multiplicity_free_shortcut(t1, t2)
    counter_ok = not degenerate.valid and degenerate.second_invariance_residual > 0.1
    g = commuting_pair_metric(t1, t2).form.gram
    for t in (t1, t2):
        worst_joint = max(worst_joint, _rel(t.conj().T @ g @ t - g, g))

    ok = worst_joint <= 1e-9 and worst_shortcut <= 1e-10 and counter_ok
    _line(
        7,
        ok,
        f"joint invariance {worst_joint:.2e}, shortcut stage two "
        f"{worst_shortcut:.2e}, degenerate refusal {counter_ok}",
    )
    assert ok


def test_criterion_08_connections_between_operators():
    rng = _criterion_rng(108)
    worst_rel = 0.0
    for k in range(50):
        dim = 3 + k % 4
        overlap = 1 + k % 2
        phases = unimodular_phases(rng, dim + (dim - overlap), min_gap=0.05)
        first = np.concatenate([phases[:overlap], phases[overlap:dim]])
        second = np.concatenate([phases[:overlap], phases[dim:]])
        s1 = invertible_with_condition(rng, dim, float(rng.uniform(1.0, 20.0)))
        s2 = invertible_with_condition(rng, dim, float(rng.uniform(1.0, 20.0)))
        t1 = np.linalg.solve(s1, np.exp(1j * first)[:, None] * s1)
        t2 = np.linalg.solve(s2, np.exp(1j * second)[:, None] * s2)
        result = intertwiner(t1, t2)
        assert result.rank == overlap
        worst_rel = max(worst_rel, max(result.relation_residuals.values()))

    worst_disjoint = 0.0
    for k in range(25):
        dim = 3 + k % 3
        phases = unimodular_phases(rng, 2 * dim, min_gap=0.05)
        s1 = invertible_with_condition(rng, dim, 10.0)
        s2 = invertible_with_condition(rng, dim, 10.0)
        t1 = np.linalg.solve(s1, np.exp(1j * phases[:dim])[:, None] * s1)
        t2 = np.linalg.solve(s2, np.exp(1j * phases[dim:])[:, None] * s2)
        result = intertwiner(t1, t2)
        assert not result.nonzero and result.rank == 0
        worst_disjoint = max(
            worst_disjoint, float(np.linalg.norm(result.in_fiducial_metric))
        )

    worst_fourier = 0.0
    for dim in (4, 8, 16):
        shift, clock, _ = make_clock_shift(dim)
        connector = intertwiner_scaled(clock, shift, 1.0)
        j = np.arange(dim)
        fourier = np.exp(-2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
        worst_fourier = max(worst_fourier, float(np.abs(connector - fourier).max()))

    ok = worst_rel <= 1e-8 and worst_disjoint <= 1e-10 and worst_fourier <= 1e-12
    _line(
        8,
        ok,
        f"relations {worst_rel:.2e}, disjoint norm {worst_disjoint:.2e}, "
        f"Fourier gap {worst_fourier:.2e}",
    )
    assert ok


def test_criterion_09_weyl_triples():
    rng = _criterion_rng(109)
    worst = 0.0
    for dim in range(2, 9):
        for _ in range(2):
            shift, clock, center = make_clock_shift(dim)
            s = invertible_with_condition(rng, dim, float(rng.uniform(1.0, 50.0)))
            t1 = np.linalg.solve(s, shift @ s)
            t2 = np.linalg.solve(s, clock @ s)
            t3 = np.linalg.solve(s, center @ s)
            result = heisenberg_metric(t1, t2, t3)
            g = result.form.gram
            for t in (t1, t2, t3):
                worst = max(worst, _rel(t.conj().T @ g @ t - g, g))
    ok = worst <= 1e-8
    _line(9, ok, f"worst unitarity across conjugated triples {worst:.2e}")
    assert ok


def test_criterion_10_hamiltonian_picture():
    rng = _criterion_rng(110)
    worst_bracket = 0.0
    worst_jacobi = 0.0
    flat3 = HermitianForm.identity(3)
    for _ in range(20):
        raw = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
               for _ in range(3)]
        a, b, c = (0.5 * (m + m.conj().T) for m in raw)
        a, b, c = (m / np.linalg.norm(m) for m in (a, b, c))
        fa = QuadraticObservable(a, flat3)
        fb = QuadraticObservable(b, flat3)
        fc = QuadraticObservable(c, flat3)
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi = psi / np.linalg.norm(psi)
        worst_bracket = max(
            worst_bracket,
            abs(poisson_bracket(fa, fb, psi) - bracket_observable(fa, fb).value(psi)),
        )
        cyc = (
            poisson_bracket(bracket_observable(fa, fb), fc, psi)
            + poisson_bracket(bracket_observable(fb, fc), fa, psi)
            + poisson_bracket(bracket_observable(fc, fa), fb, psi)
        )
        worst_jacobi = max(worst_jacobi, abs(cyc))

    f_energy = QuadraticObservable(SZ, FLAT2)
    f_obs = QuadraticObservable(SX, FLAT2)
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    times = np.linspace(0.0, 1.0, 7)
    flow = ehrenfest_flow(f_energy, f_obs, psi0, times)
    flow_gap = float(np.abs(flow - 0.5 * np.cos(2.0 * times)).max())
    dt = 1e-4
    t0 = 0.4
    states = schrodinger_states(f_energy, psi0, np.array([t0 - dt, t0, t0 + dt]))
    centered = (f_obs.value(states[:, 2]) - f_obs.value(states[:, 0])) / (2.0 * dt)
    fd_gap = abs(centered - poisson_bracket(f_energy, f_obs, states[:, 1]))

    uni = invariant_metric(INVOLUTION)
    inv_gram = np.linalg.inv(uni.invariant_form.gram)
    x, y, z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(3))
    left = n_product(n_product(x, y, inv_gram), z, inv_gram)
    right = n_product(x, n_product(y, z, inv_gram), inv_gram)
    assoc = _rel(left - right, left)

    dynamics, standard, split = planar_oscillator_pair()
    res_standard = factorization_check(dynamics, standard)
    res_split = factorization_check(dynamics, split)
    signatures_ok = standard.signature == (4, 0) and split.signature == (2, 2)

    ok = (
        worst_bracket <= 1e-9
        and worst_jacobi <= 1e-9
        and fd_gap <= 1e-6
        and flow_gap <= 1e-9
        and assoc <= 1e-12
        and res_standard == 0.0
        and res_split == 0.0
        and signatures_ok
    )
    _line(
        10,
        ok,
        f"bracket {worst_bracket:.2e}, Jacobi {worst_jacobi:.2e}, "
        f"Ehrenfest {fd_gap:.2e}, associativity {assoc:.2e}, "
        f"factorizations {res_standard:.1e}/{res_split:.1e}",
    )
    assert ok


def test_criterion_11_normal_operators():
    rng = _criterion_rng(111)
    wrong = 0
    for k in range(200):
        dim = 2 + k % 15
        unimodular = k % 2 == 0
        T = normal_fixture(rng, dim, unimodular)
        verdict = check_normal_dichotomy(T).verdict
        expected = "already_unitary" if unimodular else "not_similar_to_unitary"
        if verdict != expected:
            wrong += 1
    ok = wrong == 0
    _line(11, ok, f"200 normal operators, {wrong} misjudged")
    assert ok
