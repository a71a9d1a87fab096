import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import (
    GridOperatorSpec,
    InvalidInput,
    ToleranceConfig,
    build,
    cyclic_shift_model,
    expected_spectrum,
    invariant_metric,
    parity_metric_diagonal,
    parity_model,
    shift_orbit_means,
    spectrum_match_report,
    translation_metric_diagonal,
    translation_model,
)

CFG = ToleranceConfig()


def consistent_translation_weights(size, step, value):
    """Alternate value and 1/value along the step orbit."""
    g = np.empty(size)
    x = 0
    for k in range(size):
        g[x] = value if k % 2 == 0 else 1.0 / value
        x = (x + step) % size
    return g


def test_shift_metric_averages_orbits(rng):
    spec = cyclic_shift_model(rng.uniform(0.5, 2.0, 6), step=2)
    T, h0 = build(spec)
    G = invariant_metric(T, h0, CFG).invariant_form.gram
    assert_allclose(np.diag(G), shift_orbit_means(spec), atol=1e-12)
    assert_allclose(G, np.diag(np.diag(G)), atol=1e-12)


def test_shift_spectrum_is_roots_of_unity_per_orbit():
    spec = cyclic_shift_model(np.ones(6), step=2)
    lam = expected_spectrum(spec)
    # two orbits of length three: each contributes the cube roots of unity
    cube = np.exp(2j * np.pi * np.arange(3) / 3)
    assert_allclose(
        np.sort_complex(lam), np.sort_complex(np.concatenate([cube, cube])), atol=1e-12
    )
    report = spectrum_match_report(spec, CFG)
    assert report["worst_eigenvalue_distance"] <= 1e-12


def test_parity_metric_closed_form(rng):
    size = 8
    mu = rng.uniform(0.5, 2.0, size)
    phi = rng.uniform(0.0, 2.0 * np.pi, size)
    spec = parity_model(mu, phi)
    T, h0 = build(spec)
    G = invariant_metric(T, h0, CFG).invariant_form.gram
    assert_allclose(np.diag(G).real, parity_metric_diagonal(spec), atol=1e-10)
    assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-10


def test_parity_spectrum_pairs(rng):
    size = 6
    mu = rng.uniform(0.5, 2.0, size)
    phi = rng.uniform(0.0, 2.0 * np.pi, size)
    spec = parity_model(mu, phi)
    T, _ = build(spec)
    lam = np.sort_complex(np.linalg.eigvals(T))
    assert_allclose(lam, np.sort_complex(expected_spectrum(spec)), atol=1e-10)
    # each mirror pair contributes a plus-minus pair of unimodular values
    predicted = expected_spectrum(spec)
    assert_allclose(np.abs(predicted), 1.0, atol=1e-12)
    half = size // 2
    for x in range(half):
        expected_phase = (phi[x] + phi[x + half]) / 2.0
        target = np.exp(1j * expected_phase)
        assert min(abs(predicted - target).min(), abs(predicted + target).min()) <= 1e-10


def test_translation_metric_and_covering(rng):
    size, step = 8, 3
    g = consistent_translation_weights(size, step, 1.7)
    spec = translation_model(g, rng.uniform(0.0, 2.0 * np.pi, size), step=step)
    T, h0 = build(spec)
    G = invariant_metric(T, h0, CFG).invariant_form.gram
    assert_allclose(np.diag(G).real, translation_metric_diagonal(spec), atol=1e-10)
    report = spectrum_match_report(spec, CFG)
    assert report["worst_eigenvalue_distance"] <= 1e-10
    assert report["covering_radius"] <= 2.0 * np.pi / size + 1e-9


def test_model_validation():
    with pytest.raises(InvalidInput):
        cyclic_shift_model(np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidInput):
        parity_model(np.ones(5))  # odd size has no mirror pairing
    with pytest.raises(InvalidInput):
        translation_model(np.ones(8), step=2)  # step does not generate the cycle
    with pytest.raises(InvalidInput, match="g\\(x \\+ step\\)"):
        translation_model(np.full(8, 1.3), step=3)
    with pytest.raises(InvalidInput):
        cyclic_shift_model(np.ones(4), step=4)  # shift that does not move


def test_short_kind_names_resolve_in_the_spec():
    for short, full in (("shift", "weighted_cyclic_shift"), ("parity", "parity_times_function"),
                        ("translation", "weighted_translation")):
        spec = GridOperatorSpec(kind=short, size=4, density=np.ones(4), magnitude=np.ones(4))
        assert spec.kind == full
    with pytest.raises(InvalidInput, match="'bogus'; expected one of parity, "):
        GridOperatorSpec(kind="bogus", size=4)
    with pytest.raises(InvalidInput, match="unknown grid model kind"):
        GridOperatorSpec(kind=["shift"], size=4)


@pytest.mark.parametrize("step", [1.7, True, None, "1"])
def test_step_must_be_an_integer(step):
    with pytest.raises(InvalidInput, match="step must be an integer"):
        cyclic_shift_model(np.ones(4), step=step)


# -- the loop forms the per-kind formulas replaced, kept as a reference --------


def reference_cycle_orbits(spec):
    seen = [False] * spec.size
    orbits = []
    for start in range(spec.size):
        if seen[start]:
            continue
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = (x + spec.step) % spec.size
        orbits.append(orbit)
    return orbits


def reference_multiplier(spec):
    d, m = spec.size, spec.size // 2
    if spec.kind == "parity_times_function":
        mirrored = spec.magnitude[[(x + m) % d for x in range(d)]]
        return (spec.magnitude / mirrored) * np.exp(1j * spec.phase)
    return spec.magnitude * np.exp(1j * spec.phase)


def reference_build(spec):
    d = spec.size
    T = np.zeros((d, d), dtype=np.complex128)
    if spec.kind == "weighted_cyclic_shift":
        for x in range(d):
            T[x, (x + spec.step) % d] = 1.0
        return T, np.diag(spec.density).astype(np.complex128)
    f = reference_multiplier(spec)
    for x in range(d):
        if spec.kind == "parity_times_function":
            T[x, (x + d // 2) % d] = f[x]
        else:
            T[x, (x + spec.step) % d] = f[(x + spec.step) % d]
    return T, np.eye(d, dtype=np.complex128)


def reference_expected_spectrum(spec):
    d = spec.size
    if spec.kind == "weighted_cyclic_shift":
        vals = []
        for orbit in reference_cycle_orbits(spec):
            L = len(orbit)
            vals.extend(np.exp(2j * np.pi * np.arange(L) / L))
        return np.sort_complex(np.asarray(vals))
    f = reference_multiplier(spec)
    if spec.kind == "parity_times_function":
        vals = []
        for x in range(d // 2):
            root = np.sqrt(f[x] * f[x + d // 2])
            vals.extend([root, -root])
        return np.sort_complex(np.asarray(vals))
    base = complex(np.prod(f)) ** (1.0 / d)
    return np.sort_complex(base * np.exp(2j * np.pi * np.arange(d) / d))


def reference_shift_orbit_means(spec):
    out = np.empty(spec.size)
    for orbit in reference_cycle_orbits(spec):
        out[orbit] = spec.density[orbit].mean()
    return out


def reference_parity_metric_diagonal(spec):
    d, m = spec.size, spec.size // 2
    mirrored = spec.magnitude[[(x + m) % d for x in range(d)]]
    return 0.5 * (1.0 + (mirrored / spec.magnitude) ** 2)


def reference_specs(rng):
    """Every kind at every even size from 2 to 16, with every step in
    (-size, size) the kind allows: steps sharing a factor with the size and
    negative steps included."""
    for size in range(2, 17, 2):
        for step in range(1 - size, size):
            if step % size:
                yield cyclic_shift_model(rng.uniform(0.5, 2.0, size), step=step)
            if np.gcd(step, size) == 1:
                g = consistent_translation_weights(size, step, rng.uniform(0.5, 2.0))
                yield translation_model(g, rng.uniform(0.0, 2.0 * np.pi, size), step=step)
        yield parity_model(rng.uniform(0.5, 2.0, size), rng.uniform(0.0, 2.0 * np.pi, size))


@pytest.mark.parametrize("seed", range(8))
def test_per_kind_formulas_match_the_loop_forms_bitwise(seed):
    rng = np.random.default_rng(seed)
    for spec in reference_specs(rng):
        label = (spec.kind, spec.size, spec.step)
        orbits = spec.cycle_orbits()
        assert orbits.tobytes() == np.array(reference_cycle_orbits(spec)).tobytes(), label
        T, h0 = build(spec)
        T_ref, gram_ref = reference_build(spec)
        assert T.tobytes() == T_ref.tobytes(), label
        assert np.asarray(h0.gram).tobytes() == gram_ref.tobytes(), label
        got = expected_spectrum(spec)
        assert got.tobytes() == reference_expected_spectrum(spec).tobytes(), label
        if spec.kind == "weighted_cyclic_shift":
            got = shift_orbit_means(spec)
            assert got.tobytes() == reference_shift_orbit_means(spec).tobytes(), label
        elif spec.kind == "parity_times_function":
            got = parity_metric_diagonal(spec)
            assert got.tobytes() == reference_parity_metric_diagonal(spec).tobytes(), label
