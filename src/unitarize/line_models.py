"""Concrete operators on finite grids with closed-form invariant metrics.

Three families, each discretizing a classical construction on a line or
circle: a cyclic shift seen through a weighted measure, a parity flip
multiplied by a function, and a translation composed with a multiplier.
Every family comes with the exact limit metric or spectrum it should
produce, so the generic machinery can be checked against formulas instead
of against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HermitianForm,
    ToleranceConfig,
    eig,
)
from .errors import InvalidInput

KIND_SHIFT = "weighted_cyclic_shift"
KIND_PARITY = "parity_times_function"
KIND_TRANSLATION = "weighted_translation"

# the short names the command line accepts for the three kinds
KIND_ALIASES = {"shift": KIND_SHIFT, "parity": KIND_PARITY, "translation": KIND_TRANSLATION}


@dataclass(frozen=True, eq=False)
class GridOperatorSpec:
    """Parameters of one grid model.

    kind       one of the three model names
    size       number of grid sites
    step       translation step for the shift and translation models
    density    positive site weights defining the fiducial metric
               (shift model only; the other two use the flat metric)
    magnitude  positive modulus profile of the multiplier (parity and
               translation models)
    phase      real phase profile of the multiplier (parity and
               translation models)

    For the parity model the grid is a symmetric set {x_1 .. x_m,
    -x_1 .. -x_m} with no origin, stored as m positive sites followed by
    their mirrors, so size must be even and site i mirrors site i + m.
    """

    kind: str
    size: int
    step: int = 1
    density: np.ndarray | None = None
    magnitude: np.ndarray | None = None
    phase: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KIND_ALIASES.values():
            raise InvalidInput(f"unknown grid model kind {self.kind!r}")
        if not isinstance(self.size, (int, np.integer)) or self.size < 2:
            raise InvalidInput("grid size must be an integer of at least 2")
        object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "step", int(self.step))

        def positive_profile(name, arr):
            if arr is None:
                raise InvalidInput(f"{self.kind} needs the {name} profile")
            out = np.array(arr, dtype=float).reshape(-1)
            if out.size != self.size:
                raise InvalidInput(
                    f"{name} profile has length {out.size}, expected {self.size}"
                )
            if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
                raise InvalidInput(f"{name} profile must be finite and positive")
            out.setflags(write=False)
            return out

        if self.kind == KIND_SHIFT:
            object.__setattr__(
                self, "density", positive_profile("density", self.density)
            )
            if self.step % self.size == 0:
                raise InvalidInput("the shift step must move the grid")
        else:
            if self.size % 2 != 0:
                raise InvalidInput(f"{self.kind} needs an even number of sites")
            object.__setattr__(
                self, "magnitude", positive_profile("magnitude", self.magnitude)
            )
            ph = np.array(
                self.phase if self.phase is not None else np.zeros(self.size),
                dtype=float,
            ).reshape(-1)
            if ph.size != self.size or not np.all(np.isfinite(ph)):
                raise InvalidInput("phase profile must be finite with one value per site")
            ph.setflags(write=False)
            object.__setattr__(self, "phase", ph)
            if self.kind == KIND_TRANSLATION:
                if np.gcd(self.step % self.size, self.size) != 1:
                    raise InvalidInput(
                        "the translation step must generate the whole cycle"
                    )
                g = self.magnitude
                rolled = np.roll(g, -self.step)
                dev = np.max(np.abs(g * rolled - 1.0))
                if dev > 1e-12:
                    raise InvalidInput(
                        f"the multiplier must satisfy g(x + step) g(x) = 1 at "
                        f"every site; worst deviation {dev:.3e}"
                    )

    def cycle_orbits(self) -> list[list[int]]:
        """Orbits of the grid under repeated translation by the step."""
        seen = [False] * self.size
        orbits = []
        for start in range(self.size):
            if seen[start]:
                continue
            orbit = []
            x = start
            while not seen[x]:
                seen[x] = True
                orbit.append(x)
                x = (x + self.step) % self.size
            orbits.append(orbit)
        return orbits


def cyclic_shift_model(density, step: int = 1) -> GridOperatorSpec:
    density = np.asarray(density, dtype=float)
    return GridOperatorSpec(
        kind=KIND_SHIFT, size=density.size, step=step, density=density
    )


def parity_model(magnitude, phase=None) -> GridOperatorSpec:
    magnitude = np.asarray(magnitude, dtype=float)
    return GridOperatorSpec(
        kind=KIND_PARITY, size=magnitude.size, magnitude=magnitude, phase=phase
    )


def translation_model(magnitude, phase=None, step: int = 1) -> GridOperatorSpec:
    magnitude = np.asarray(magnitude, dtype=float)
    return GridOperatorSpec(
        kind=KIND_TRANSLATION,
        size=magnitude.size,
        step=step,
        magnitude=magnitude,
        phase=phase,
    )


def build(spec: GridOperatorSpec) -> tuple[np.ndarray, HermitianForm]:
    """Materialize a grid model as (operator, fiducial form).

    weighted_cyclic_shift   (T psi)(x) = psi(x + step), fiducial metric
                            weighted by the density
    parity_times_function   (T psi)(x) = f(x) psi(-x) with
                            f(x) = mu(x)/mu(-x) e^{i phase(x)}, flat metric
    weighted_translation    (T psi)(x) = f(x + step) psi(x + step) with
                            f = magnitude e^{i phase}, flat metric
    """
    d = spec.size
    T = np.zeros((d, d), dtype=np.complex128)
    if spec.kind == KIND_SHIFT:
        for x in range(d):
            T[x, (x + spec.step) % d] = 1.0
        h0 = HermitianForm(np.diag(spec.density).astype(np.complex128))
        return T, h0
    if spec.kind == KIND_PARITY:
        m = d // 2
        mirror = lambda x: (x + m) % d
        f = (spec.magnitude / spec.magnitude[[mirror(x) for x in range(d)]]) * np.exp(
            1j * spec.phase
        )
        for x in range(d):
            T[x, mirror(x)] = f[x]
        return T, HermitianForm.identity(d)
    f = spec.magnitude * np.exp(1j * spec.phase)
    for x in range(d):
        T[x, (x + spec.step) % d] = f[(x + spec.step) % d]
    return T, HermitianForm.identity(d)


def shift_orbit_means(spec: GridOperatorSpec) -> np.ndarray:
    """Exact invariant metric diagonal of the weighted cyclic shift.

    Averaging the weighted metric along the shift replaces each site weight
    by the mean of its translation orbit.
    """
    if spec.kind != KIND_SHIFT:
        raise InvalidInput("orbit means are defined for the cyclic shift model")
    out = np.empty(spec.size)
    for orbit in spec.cycle_orbits():
        out[orbit] = spec.density[orbit].mean()
    return out


def parity_metric_diagonal(spec: GridOperatorSpec) -> np.ndarray:
    """Exact invariant metric diagonal of the parity model.

    The square of the model is scalar on each mirror pair, so the averaged
    metric is (h0 + pulled-back h0)/2, whose diagonal at site x is
    (1 + mu(-x)^2 / mu(x)^2) / 2.
    """
    if spec.kind != KIND_PARITY:
        raise InvalidInput("this closed form belongs to the parity model")
    d = spec.size
    m = d // 2
    mu = spec.magnitude
    mirrored = mu[[(x + m) % d for x in range(d)]]
    return 0.5 * (1.0 + (mirrored / mu) ** 2)


def translation_metric_diagonal(spec: GridOperatorSpec) -> np.ndarray:
    """Exact invariant metric diagonal of the weighted translation.

    The multiplier constraint makes the squared modulus profile two-periodic
    along the orbit, so the average collapses to (1 + g(x)^2)/2.
    """
    if spec.kind != KIND_TRANSLATION:
        raise InvalidInput("this closed form belongs to the translation model")
    return 0.5 * (1.0 + spec.magnitude**2)


# closed-form diagonal of the invariant metric of each kind
CLOSED_FORMS = {
    KIND_SHIFT: shift_orbit_means,
    KIND_PARITY: parity_metric_diagonal,
    KIND_TRANSLATION: translation_metric_diagonal,
}


def expected_spectrum(spec: GridOperatorSpec) -> np.ndarray:
    """Closed-form spectrum of a grid model.

    The shift contributes the L-th roots of unity for each orbit of length
    L.  The parity model contributes a pair +-sqrt(f(x) f(-x)) for each
    mirror pair of sites.  The translation model has T^d = (prod f) I, so
    its spectrum is the full set of d-th roots of that product.
    """
    d = spec.size
    if spec.kind == KIND_SHIFT:
        vals = []
        for orbit in spec.cycle_orbits():
            L = len(orbit)
            vals.extend(np.exp(2j * np.pi * np.arange(L) / L))
        return np.sort_complex(np.asarray(vals))
    if spec.kind == KIND_PARITY:
        m = d // 2
        f = (spec.magnitude / spec.magnitude[[(x + m) % d for x in range(d)]]) * np.exp(
            1j * spec.phase
        )
        vals = []
        for x in range(m):
            root = np.sqrt(f[x] * f[x + m])
            vals.extend([root, -root])
        return np.sort_complex(np.asarray(vals))
    f = spec.magnitude * np.exp(1j * spec.phase)
    product = complex(np.prod(f))
    base = product ** (1.0 / d)
    return np.sort_complex(base * np.exp(2j * np.pi * np.arange(d) / d))


def spectrum_match_report(
    spec: GridOperatorSpec, cfg: ToleranceConfig | None = None
) -> dict[str, float]:
    """Compare the computed spectrum of a grid model with its closed form.

    Matches eigenvalues greedily and reports the worst distance, plus the
    covering radius of the spectrum on the circle (largest arc gap over 2)
    for the translation model, whose eigenvalues equidistribute.
    """
    T, _ = build(spec)
    computed = np.array(eig(T, cfg).eigenvalues)
    predicted = np.array(expected_spectrum(spec))
    remaining = list(range(predicted.size))
    worst = 0.0
    for lam in computed:
        best = min(remaining, key=lambda j: abs(lam - predicted[j]))
        worst = max(worst, float(abs(lam - predicted[best])))
        remaining.remove(best)
    out = {"worst_eigenvalue_distance": worst}
    moduli = np.abs(computed)
    if np.all(np.abs(moduli - 1.0) < 1e-6):
        phases = np.sort(np.mod(np.angle(computed), 2.0 * np.pi))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
        out["covering_radius"] = float(gaps.max() / 2.0)
    return out
