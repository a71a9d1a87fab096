"""Hamiltonian reading of unitary quantum dynamics.

The imaginary part of a Hermitian metric is a symplectic form on the
underlying real space, quadratic expectation values are classical
observables, and the Schrodinger flow becomes a Hamiltonian flow whose
Poisson bracket of quadratic observables is again quadratic, generated by
i times the commutator.  When the metric itself came from averaging a
non-unitary evolution, the same bracket appears deformed relative to the
fiducial one.  A twisted operator product closes the picture: observables
multiply through a fixed positive middle factor, and any Hamiltonian
commuting with that factor acts as a derivation of the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianForm,
    _finite_array,
    as_operator,
    as_operators,
    as_vector,
    eig,
    relative_change,
    require_nonsingular,
    self_adjointness_residual,
)
from .errors import FormMismatch, InvalidInput, NotSelfAdjoint
from .metrics import Unitarization

# Relative residual above which an operator is rejected as an observable.
SELF_ADJOINT_RTOL = 1e-8


def _require_self_adjoint(A: np.ndarray, form: HermitianForm, label: str) -> None:
    res = self_adjointness_residual(A, form.gram)
    if res > SELF_ADJOINT_RTOL:
        raise NotSelfAdjoint(
            f"{label} is not self-adjoint for the given form "
            f"(relative residual {res:.3e})"
        )


def _same_form(a: HermitianForm, b: HermitianForm) -> bool:
    return a is b or (a.dim == b.dim and relative_change(b.gram, a.gram) <= 1e-12)


@dataclass(frozen=True, eq=False)
class SymplecticForm:
    """Imaginary part of a Hermitian metric, a real symplectic form."""

    source: HermitianForm

    def value(self, x, y) -> float:
        return float(self.source.apply(x, y).imag)


@dataclass(frozen=True, eq=False)
class QuadraticObservable:
    """Classical observable f(psi) = (1/2) h(A psi, psi) of a self-adjoint A."""

    operator: np.ndarray
    form: HermitianForm

    def __post_init__(self):
        A = as_operator(self.operator)
        if A.shape[0] != self.form.dim:
            raise InvalidInput("operator and form dimensions differ")
        _require_self_adjoint(A, self.form, "the observable operator")
        A.setflags(write=False)
        object.__setattr__(self, "operator", A)

    def value(self, psi) -> float:
        v = as_vector(psi, self.form.dim)
        return float((0.5 * self.form.apply(self.operator @ v, v)).real)


def poisson_bracket(
    f: QuadraticObservable, g: QuadraticObservable, psi
) -> float:
    """Poisson bracket of two quadratic observables at a state.

    For quadratic observables the bracket is again quadratic with generator
    i[A, B], so {f_A, f_B} = f_{i[A,B]}.  Both observables must be built
    over the same form; otherwise FormMismatch is raised.
    """
    return bracket_observable(f, g).value(psi)


def bracket_observable(
    f: QuadraticObservable, g: QuadraticObservable
) -> QuadraticObservable:
    """The quadratic observable generated by i[A, B]."""
    if not _same_form(f.form, g.form):
        raise FormMismatch("the two observables live over different forms")
    A, B = f.operator, g.operator
    return QuadraticObservable(1j * (A @ B - B @ A), f.form)


def deformed_bracket(
    a_op, b_op, psi, unitarization: Unitarization
) -> float:
    """Poisson bracket taken in the averaged invariant metric.

    The operators must be self-adjoint for the invariant form of the given
    unitarization; the bracket is then the ordinary quadratic-observable
    bracket of that deformed symplectic structure.
    """
    form = unitarization.invariant_form
    fa = QuadraticObservable(a_op, form)
    fb = QuadraticObservable(b_op, form)
    return poisson_bracket(fa, fb, psi)


def schrodinger_states(hamilton: QuadraticObservable, psi0, t_grid) -> np.ndarray:
    """States e^{-itH} psi0 on a time grid, one column per time."""
    psi = as_vector(psi0, hamilton.form.dim)
    dec = eig(hamilton.operator)
    coeff = dec.inverse @ psi
    ts = np.atleast_1d(_finite_array(t_grid, "the time grid must be an array of numbers",
                                     "the time grid must be finite", float))
    phases = np.exp(-1j * np.outer(dec.eigenvalues, ts))
    return dec.eigenvectors @ (phases * coeff[:, None])


def ehrenfest_flow(
    hamilton: QuadraticObservable,
    observable: QuadraticObservable,
    psi0,
    t_grid,
) -> np.ndarray:
    """Expectation values of an observable along the Schrodinger flow.

    Returns f_obs(psi(t)) over the grid.  The trajectory satisfies
    d/dt f_obs = {f_H, f_obs}, the classical evolution equation for the
    symplectic form of the shared metric.
    """
    if not _same_form(hamilton.form, observable.form):
        raise FormMismatch("hamiltonian and observable live over different forms")
    states = schrodinger_states(hamilton, psi0, t_grid)
    return np.array([observable.value(states[:, k]) for k in range(states.shape[1])])


def n_product(a, b, middle) -> np.ndarray:
    """Twisted operator product a R b with a fixed middle factor."""
    A, B, R = as_operators(a, b, middle)
    return A @ R @ B


def _real_factor(name: str, value) -> np.ndarray:
    """A factor as a real array; a cast to float would drop its imaginary part."""
    arr = _finite_array(value, f"the {name} must be a rectangular array of numbers",
                        f"the {name} must have finite entries",
                        shape=lambda a: None if a.size else f"the {name} is empty")
    if np.any(arr.imag != 0.0):
        raise InvalidInput(f"the {name} must be real")
    return arr.real.copy()


@dataclass(frozen=True, eq=False)
class ClassicalFactorization:
    """Splitting of linear dynamics into a Poisson tensor and an energy.

    The dynamics matrix factors as poisson_tensor @ quadratic_energy with
    the first factor real antisymmetric invertible and the second real
    symmetric.  The signature property counts positive and negative
    eigenvalues of the energy matrix, separating definite from indefinite
    realizations of the same dynamics.
    """

    poisson_tensor: np.ndarray
    quadratic_energy: np.ndarray

    def __post_init__(self):
        lam, ham = (_real_factor(name, value) for name, value in (
            ("Poisson tensor", self.poisson_tensor), ("energy matrix", self.quadratic_energy)))
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1] or lam.shape != ham.shape:
            raise InvalidInput("factors must be square real matrices of equal size")
        if relative_change(lam, -lam.T) > 1e-12:
            raise InvalidInput("the Poisson tensor must be antisymmetric")
        require_nonsingular(lam, InvalidInput, "the Poisson tensor must be invertible")
        if relative_change(ham, ham.T) > 1e-12:
            raise InvalidInput("the energy matrix must be symmetric")
        lam.setflags(write=False)
        ham.setflags(write=False)
        object.__setattr__(self, "poisson_tensor", lam)
        object.__setattr__(self, "quadratic_energy", ham)

    @property
    def signature(self) -> tuple[int, int]:
        vals = np.linalg.eigvalsh((self.quadratic_energy + self.quadratic_energy.T) / 2.0)
        cut = 1e-12 * max(np.abs(vals).max(), 1.0)
        plus = int(np.sum(vals > cut))
        minus = int(np.sum(vals < -cut))
        return plus, minus


def factorization_check(dynamics, factorization: ClassicalFactorization) -> float:
    """Frobenius distance between the dynamics matrix and its factorization."""
    A = _real_factor("dynamics matrix", dynamics)
    prod = factorization.poisson_tensor @ factorization.quadratic_energy
    if A.shape != prod.shape:
        raise InvalidInput("dynamics and factorization dimensions differ")
    return float(np.linalg.norm(A - prod))


def planar_oscillator_pair() -> tuple[
    np.ndarray, ClassicalFactorization, ClassicalFactorization
]:
    """Two inequivalent factorizations of the planar isotropic oscillator.

    In coordinates (q1, q2, p1, p2) the dynamics matrix of two unit
    oscillators factors through the standard symplectic tensor with the
    identity energy, signature (4, 0), and also through a parity-twisted
    tensor with an indefinite energy of signature (2, 2).  Both reproduce
    the dynamics exactly; only the second breaks positivity, which is what
    makes the pair a useful test of metric choices.
    """
    a_dyn = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    ham0 = np.eye(4)  # with it the standard tensor is the dynamics matrix itself
    lam1 = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    ham1 = np.diag([1.0, -1.0, 1.0, -1.0])
    return (
        a_dyn,
        ClassicalFactorization(a_dyn, ham0),
        ClassicalFactorization(lam1, ham1),
    )
