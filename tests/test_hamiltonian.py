import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    ClassicalFactorization,
    NotSelfAdjoint,
    FormMismatch,
    HermitianForm,
    InvalidInput,
    QuadraticObservable,
    SymplecticForm,
    ToleranceConfig,
    bracket_observable,
    deformed_bracket,
    ehrenfest_flow,
    factorization_check,
    invariant_metric,
    n_product,
    planar_oscillator_pair,
    poisson_bracket,
    schrodinger_states,
)

CFG = ToleranceConfig()
FLAT = HermitianForm.identity(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_state(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_observable_requires_self_adjoint_operator():
    with pytest.raises(NotSelfAdjoint):
        QuadraticObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), FLAT)


def test_symplectic_form_is_imaginary_part(rng):
    G = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
    h = HermitianForm(G)
    omega = SymplecticForm(h)
    x, y = random_state(rng, 2), random_state(rng, 2)
    assert_allclose(omega.value(x, y), (x.conj() @ G @ y).imag)
    # symplectic forms are antisymmetric
    assert_allclose(omega.value(x, y), -omega.value(y, x))


def test_bracket_closes_on_quadratic_observables(rng):
    fx = QuadraticObservable(SX, FLAT)
    fy = QuadraticObservable(SY, FLAT)
    bracket = bracket_observable(fx, fy)
    assert_allclose(bracket.operator, -2.0 * SZ, atol=1e-14)
    psi = random_state(rng, 2)
    assert_allclose(poisson_bracket(fx, fy, psi), bracket.value(psi), atol=1e-12)


def test_jacobi_identity(rng):
    fx = QuadraticObservable(SX, FLAT)
    fy = QuadraticObservable(SY, FLAT)
    fz = QuadraticObservable(SZ, FLAT)
    for _ in range(5):
        psi = random_state(rng, 2)
        cyc = (
            poisson_bracket(bracket_observable(fx, fy), fz, psi)
            + poisson_bracket(bracket_observable(fy, fz), fx, psi)
            + poisson_bracket(bracket_observable(fz, fx), fy, psi)
        )
        assert abs(cyc) <= 1e-9


def test_bracket_rejects_mismatched_forms():
    other = HermitianForm(np.diag([2.0, 1.0]))
    with pytest.raises(FormMismatch):
        bracket_observable(
            QuadraticObservable(SX, FLAT),
            QuadraticObservable(np.diag([2.0, 1.0]) @ SZ @ np.diag([0.5, 1.0]), other),
        )


def test_schrodinger_evolution_and_ehrenfest():
    fH = QuadraticObservable(SZ, FLAT)
    fA = QuadraticObservable(SX, FLAT)
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    times = np.linspace(0.0, 1.0, 7)
    flow = ehrenfest_flow(fH, fA, psi0, times)
    assert_allclose(flow, 0.5 * np.cos(2.0 * times), atol=1e-12)
    # time derivative of the expectation equals the bracket with the energy
    dt = 1e-4
    t0 = 0.4
    states = schrodinger_states(fH, psi0, np.array([t0 - dt, t0, t0 + dt]))
    centered = (fA.value(states[:, 2]) - fA.value(states[:, 0])) / (2.0 * dt)
    assert abs(centered - poisson_bracket(fH, fA, states[:, 1])) <= 1e-6


def test_deformed_bracket_uses_invariant_form(rng):
    T = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    uni = invariant_metric(T, None, CFG)
    G = uni.invariant_form.gram
    H = np.linalg.inv(G) @ SX  # G-self-adjoint since G H = SX is Hermitian
    psi = random_state(rng, 2)
    direct = poisson_bracket(
        QuadraticObservable(H, uni.invariant_form),
        QuadraticObservable(H, uni.invariant_form),
        psi,
    )
    assert_allclose(deformed_bracket(H, H, psi, uni), direct, atol=1e-12)
    assert abs(direct) <= 1e-12


def test_n_product_is_associative(rng):
    T = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
    uni = invariant_metric(T, None, CFG)
    R = np.linalg.inv(uni.invariant_form.gram)
    a, b, c = (random_state(rng, 4).reshape(2, 2) for _ in range(3))
    left = n_product(n_product(a, b, R), c, R)
    right = n_product(a, n_product(b, c, R), R)
    assert_allclose(left, right, atol=1e-12 * np.linalg.norm(left))


def test_factorization_validation():
    with pytest.raises(InvalidInput):
        ClassicalFactorization(np.eye(2), np.eye(2))  # not antisymmetric
    with pytest.raises(InvalidInput):
        ClassicalFactorization(np.zeros((2, 2)), np.eye(2))  # singular
    lam = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(InvalidInput):
        ClassicalFactorization(lam, np.array([[0.0, 1.0], [0.0, 0.0]]))


ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
UNREADABLE_FACTORS = {
    "nan_tensor": (np.array([[0.0, np.nan], [-1.0, 0.0]]), np.eye(2),
                   "Poisson tensor must have finite entries"),
    "inf_energy": (ROTATION, np.diag([1.0, np.inf]), "energy matrix must have finite entries"),
    "nan_energy": (ROTATION, np.diag([np.nan, 1.0]), "energy matrix must have finite entries"),
    "complex_energy": (ROTATION, (1.0 + 1e-3j) * np.eye(2), "energy matrix must be real"),
    "complex_tensor": ((1.0 + 1e-3j) * ROTATION, np.eye(2), "Poisson tensor must be real"),
    "empty": (np.zeros((0, 0)), np.zeros((0, 0)), "Poisson tensor is empty"),
    "ragged_tensor": ([[0.0, 1.0], [-1.0]], np.eye(2), "Poisson tensor must be a rectangular"),
}


# a cast to float would drop the imaginary part with only a ComplexWarning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam, ham, match", UNREADABLE_FACTORS.values(),
                         ids=UNREADABLE_FACTORS.keys())
def test_factorization_refuses_factors_it_cannot_read(lam, ham, match):
    with pytest.raises(InvalidInput, match=match):
        ClassicalFactorization(lam, ham)


UNREADABLE_DYNAMICS = {
    "complex": (ROTATION + 1j * np.eye(2), "dynamics matrix must be real"),
    "nan": (np.array([[0.0, np.nan], [-1.0, 0.0]]), "dynamics matrix must have finite entries"),
    "ragged": ([[0.0, 1.0], [-1.0]], "dynamics matrix must be a rectangular"),
}


# the dynamics is read like the factors: a complex one was cast to float
# with only a ComplexWarning and compared as its real part
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dynamics, match", UNREADABLE_DYNAMICS.values(),
                         ids=UNREADABLE_DYNAMICS.keys())
def test_factorization_check_refuses_dynamics_it_cannot_read(dynamics, match):
    with pytest.raises(InvalidInput, match=match):
        factorization_check(dynamics, ClassicalFactorization(ROTATION, np.eye(2)))


def test_oscillator_admits_both_signatures():
    dynamics, standard, split = planar_oscillator_pair()
    assert factorization_check(dynamics, standard) == 0.0
    assert factorization_check(dynamics, split) == 0.0
    assert standard.signature == (4, 0)
    assert split.signature == (2, 2)
    # the two energies disagree even though the dynamics coincide
    assert np.linalg.norm(standard.quadratic_energy - split.quadratic_energy) > 1.0
