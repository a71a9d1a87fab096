"""Concrete operators on finite grids with closed-form invariant metrics.

Three families, each discretizing a classical construction on a line or
circle: a cyclic shift seen through a weighted measure, a parity flip
multiplied by a function, and a translation composed with a multiplier.
Every family comes with the exact limit metric or spectrum it should
produce, so the generic machinery can be checked against formulas instead
of against itself.  The JSON spec payloads the command line reads are
parsed here, and its seeded random specs drawn here, so the kinds and their
profiles are known to this module alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HermitianForm, ToleranceConfig, eig
from .errors import InvalidInput

KIND_SHIFT = "weighted_cyclic_shift"
KIND_PARITY = "parity_times_function"
KIND_TRANSLATION = "weighted_translation"

# the short names a spec may give for the three kinds
KIND_ALIASES = {"shift": KIND_SHIFT, "parity": KIND_PARITY, "translation": KIND_TRANSLATION}


def _full_kind(name) -> str:
    """The kind a full or short name stands for."""
    kind = KIND_ALIASES.get(name, name) if isinstance(name, str) else None
    if kind not in KIND_ALIASES.values():
        known = sorted({*KIND_ALIASES, *KIND_ALIASES.values()})
        raise InvalidInput(
            f"unknown grid model kind {name!r}; expected one of " + ", ".join(known)
        )
    return kind


@dataclass(frozen=True, eq=False)
class GridOperatorSpec:
    """Parameters of one grid model.

    kind       one of the three model names, or its short name
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
        object.__setattr__(self, "kind", _full_kind(self.kind))
        if not isinstance(self.size, (int, np.integer)) or self.size < 2:
            raise InvalidInput("grid size must be an integer of at least 2")
        if isinstance(self.step, bool) or not isinstance(self.step, (int, np.integer)):
            raise InvalidInput("step must be an integer")
        object.__setattr__(self, "size", int(self.size))
        object.__setattr__(self, "step", int(self.step))

        def positive_profile(name, arr):
            if arr is None:
                raise InvalidInput(f"{self.kind} needs the {name} profile")
            out = np.array(arr, dtype=float).reshape(-1)
            if out.size != self.size:
                raise InvalidInput(f"{name} profile has length {out.size}, expected {self.size}")
            if not np.all(np.isfinite(out)) or np.any(out <= 0.0):
                raise InvalidInput(f"{name} profile must be finite and positive")
            out.setflags(write=False)
            return out

        if self.kind == KIND_SHIFT:
            object.__setattr__(self, "density", positive_profile("density", self.density))
            if self.step % self.size == 0:
                raise InvalidInput("the shift step must move the grid")
            return
        if self.size % 2 != 0:
            raise InvalidInput(f"{self.kind} needs an even number of sites")
        object.__setattr__(self, "magnitude", positive_profile("magnitude", self.magnitude))
        ph = np.array(np.zeros(self.size) if self.phase is None else self.phase, dtype=float)
        ph = ph.reshape(-1)
        if ph.size != self.size or not np.all(np.isfinite(ph)):
            raise InvalidInput("phase profile must be finite with one value per site")
        ph.setflags(write=False)
        object.__setattr__(self, "phase", ph)
        if self.kind == KIND_TRANSLATION:
            if math.gcd(self.step, self.size) != 1:
                raise InvalidInput("the translation step must generate the whole cycle")
            dev = np.max(np.abs(self.magnitude * np.roll(self.magnitude, -self.step) - 1.0))
            if dev > 1e-12:
                raise InvalidInput(
                    f"the multiplier must satisfy g(x + step) g(x) = 1 at "
                    f"every site; worst deviation {dev:.3e}"
                )

    def cycle_orbits(self) -> np.ndarray:
        """Orbits of the grid under repeated translation by the step, one per
        row: gcd(step, size) orbits of equal length, the orbit of site s
        listing s, s + step, s + 2 step, ... for s = 0, 1, ..."""
        count = math.gcd(self.step, self.size)
        walk = (self.step % self.size) * np.arange(self.size // count)
        return (np.arange(count)[:, None] + walk) % self.size


def cyclic_shift_model(density, step: int = 1) -> GridOperatorSpec:
    density = np.asarray(density, dtype=float)
    return GridOperatorSpec(KIND_SHIFT, density.size, step, density=density)


def parity_model(magnitude, phase=None) -> GridOperatorSpec:
    magnitude = np.asarray(magnitude, dtype=float)
    return GridOperatorSpec(KIND_PARITY, magnitude.size, magnitude=magnitude, phase=phase)


def translation_model(magnitude, phase=None, step: int = 1) -> GridOperatorSpec:
    magnitude = np.asarray(magnitude, dtype=float)
    return GridOperatorSpec(KIND_TRANSLATION, magnitude.size, step, magnitude=magnitude,
                            phase=phase)


def _mirror(values: np.ndarray) -> np.ndarray:
    """The values at the mirror sites of the parity grid: site i + m for
    i < m and site i - m after, with m = size / 2."""
    return np.roll(values, values.size // 2)


def _multiplier(spec: GridOperatorSpec) -> np.ndarray:
    """The multiplier f of the parity model, mu(x)/mu(-x) e^{i phase(x)}, or
    of the translation model, magnitude e^{i phase}."""
    mu = spec.magnitude
    if spec.kind == KIND_PARITY:
        mu = mu / _mirror(mu)
    return mu * np.exp(1j * spec.phase)


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
    sites = np.arange(d)
    T = np.zeros((d, d), dtype=np.complex128)
    if spec.kind == KIND_SHIFT:
        T[sites, np.roll(sites, -spec.step)] = 1.0
        return T, HermitianForm(np.diag(spec.density).astype(np.complex128))
    f = _multiplier(spec)
    if spec.kind == KIND_PARITY:
        T[sites, _mirror(sites)] = f
    else:
        source = np.roll(sites, -spec.step)
        T[sites, source] = f[source]
    return T, HermitianForm.identity(d)


def shift_orbit_means(spec: GridOperatorSpec) -> np.ndarray:
    """Exact invariant metric diagonal of the weighted cyclic shift.

    Averaging the weighted metric along the shift replaces each site weight
    by the mean of its translation orbit.
    """
    if spec.kind != KIND_SHIFT:
        raise InvalidInput("orbit means are defined for the cyclic shift model")
    orbits = spec.cycle_orbits()
    out = np.empty(spec.size)
    out[orbits] = spec.density[orbits].mean(axis=1)[:, None]
    return out


def parity_metric_diagonal(spec: GridOperatorSpec) -> np.ndarray:
    """Exact invariant metric diagonal of the parity model.

    The square of the model is scalar on each mirror pair, so the averaged
    metric is (h0 + pulled-back h0)/2, whose diagonal at site x is
    (1 + mu(-x)^2 / mu(x)^2) / 2.
    """
    if spec.kind != KIND_PARITY:
        raise InvalidInput("this closed form belongs to the parity model")
    mu = spec.magnitude
    return 0.5 * (1.0 + (_mirror(mu) / mu) ** 2)


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
        count, length = spec.cycle_orbits().shape
        roots = np.exp(2j * np.pi * np.arange(length) / length)
        return np.sort_complex(np.tile(roots, count))
    f = _multiplier(spec)
    if spec.kind == KIND_PARITY:
        m = d // 2
        # scalar products and roots: the array forms differ in the last bit
        roots = np.array([np.sqrt(f[x] * f[x + m]) for x in range(m)])
        return np.sort_complex(np.stack([roots, -roots], axis=1).ravel())
    base = complex(np.prod(f)) ** (1.0 / d)
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
    return _spectrum_match(spec, eig(T, cfg).eigenvalues)


def _spectrum_match(spec: GridOperatorSpec, computed: np.ndarray) -> dict[str, float]:
    """spectrum_match_report for the computed spectrum of the model given."""
    predicted = np.array(expected_spectrum(spec))
    remaining = list(range(predicted.size))
    worst = 0.0
    for lam in computed:
        best = min(remaining, key=lambda j: abs(lam - predicted[j]))
        worst = max(worst, float(abs(lam - predicted[best])))
        remaining.remove(best)
    out = {"worst_eigenvalue_distance": worst}
    if np.all(np.abs(np.abs(computed) - 1.0) < 1e-6):
        phases = np.sort(np.mod(np.angle(computed), 2.0 * np.pi))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
        out["covering_radius"] = float(gaps.max() / 2.0)
    return out


def _spec_from_payload(payload) -> GridOperatorSpec:
    """The spec a JSON payload describes: "kind" (full or short) and "size",
    an integer "step" (1 if left out), and each profile given as a flat list
    of numbers."""
    if not isinstance(payload, dict):
        raise InvalidInput("the model spec must be a JSON object")
    if payload.get("kind") is None or payload.get("size") is None:
        raise InvalidInput('the model spec needs the keys "kind" and "size"')
    profiles = {}
    for name in ("density", "magnitude", "phase"):
        if name not in payload:
            continue
        val = payload[name]
        # a bool is no number here, as in a matrix payload
        if not isinstance(val, list) or {type(v) for v in val} - {int, float}:
            raise InvalidInput(f'"{name}" must be a flat list of numbers')
        try:
            profiles[name] = np.array(val, dtype=float)
        except OverflowError:
            raise InvalidInput(f'"{name}" holds a number too large for a float') from None
    return GridOperatorSpec(payload["kind"], payload["size"], payload.get("step", 1), **profiles)


def _random_payload(kind: str, seed: int) -> dict:
    """The payload of a random spec of the given kind, full or short, drawn
    from the seed.  It names the full kind, so its digest is the same for
    either name."""
    kind = _full_kind(kind)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(3, 9)) * 2
    if kind == KIND_SHIFT:
        profiles = {"density": rng.uniform(0.5, 2.0, size)}
    elif kind == KIND_PARITY:
        profiles = {"magnitude": rng.uniform(0.5, 2.0, size),
                    "phase": rng.uniform(0.0, 2.0 * np.pi, size)}
    else:
        # one free parameter: the multiplier must alternate v, 1/v along
        # the whole step orbit for g(x + step) g(x) = 1 to close cyclically
        value = float(rng.uniform(0.5, 2.0))
        profiles = {"magnitude": np.resize([value, 1.0 / value], size),
                    "phase": rng.uniform(0.0, 2.0 * np.pi, size)}
    profiles = {name: arr.tolist() for name, arr in profiles.items()}
    return {"kind": kind, "size": size, "step": 1, **profiles}
