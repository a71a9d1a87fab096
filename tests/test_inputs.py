"""Input from outside is refused with a UnitarizeError, never a raw numpy error.

Each public entry point is handed its usual argument with one entry spoilt:
a ragged row, a string that is no number, an int past float range or past
the digits repr converts, NaN and infinity.  Every call must raise a
UnitarizeError subclass; a ValueError, TypeError or OverflowError escaping
from numpy fails the row.  Every integer taken from outside passes one rule:
an int or numpy integer, not a bool, from its site's minimum to 2**53.
Operators handed together pass one size rule, before any np.linalg call.
"""

import numpy as np
import pytest

from unitarize import (
    ClassicalFactorization,
    FormMismatch,
    InvalidInput,
    GridOperatorSpec,
    HermitianForm,
    MissingClusterWeight,
    NotPositiveDefinite,
    QuadraticObservable,
    ScalingSpec,
    SymplecticForm,
    ToleranceConfig,
    UnitarizeError,
    adjoint_wrt,
    are_intertwined,
    as_operator,
    bracket_observable,
    cayley,
    cesaro_oracle,
    cesaro_unitarization,
    check_generator,
    check_normal_dichotomy,
    check_uniformly_bounded,
    commutant_positive_basis,
    commuting_pair_metric,
    core,
    cyclic_shift_model,
    deformed_bracket,
    ehrenfest_flow,
    eig,
    factorization_check,
    flow_invariant_metric,
    generator_metric,
    heisenberg_metric,
    intertwiner,
    intertwiner_scaled,
    invariant_metric,
    inverse_cayley,
    make_clock_shift,
    metric_dependence,
    mixed_cesaro,
    mixed_pullback_mean,
    n_product,
    parity_metric_diagonal,
    parity_model,
    phi_metric,
    poisson_bracket,
    psd_sqrt,
    sampled_power_norms,
    scaled_metric,
    schrodinger_states,
    shift_orbit_means,
    translation_metric_diagonal,
    translation_model,
)
from unitarize.line_models import _spec_from_payload
from unitarize.serialization import canonical_json, parse_form, parse_matrix

T = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])
FORM = HermitianForm.identity(2)
OBSERVABLE = QuadraticObservable(T, FORM)
SHIFT, CLOCK, CENTER = make_clock_shift(2)
PSI = [1.0, 0.0]
TIMES = [0.0, 0.5]


def _result():
    return invariant_metric(T)


# name: (call, the argument it takes when well formed)
ENTRY_POINTS = {
    "as_operator": (as_operator, T),
    "as_vector": (core.as_vector, PSI),
    "HermitianForm": (HermitianForm, I2),
    "HermitianForm.apply": (lambda x: FORM.apply(x, PSI), PSI),
    "HermitianForm.norm_of": (FORM.norm_of, PSI),
    "resolve_fiducial": (lambda g: core.resolve_fiducial(g, 2), I2),
    "eig": (eig, T),
    "psd_sqrt": (psd_sqrt, I2),
    "adjoint_wrt": (lambda x: adjoint_wrt(x, FORM), T),
    "check_uniformly_bounded": (check_uniformly_bounded, T),
    "check_generator": (check_generator, T),
    "check_normal_dichotomy": (check_normal_dichotomy, T),
    "sampled_power_norms": (sampled_power_norms, T),
    "invariant_metric": (invariant_metric, T),
    "invariant_metric_h0": (lambda g: invariant_metric(T, g), I2),
    "cesaro_oracle": (lambda x: cesaro_oracle(x, None, 8), T),
    "cesaro_unitarization": (lambda x: cesaro_unitarization(x, None, 8), T),
    "cayley": (cayley, T),
    "inverse_cayley": (inverse_cayley, 1j * I2),
    "flow_invariant_metric": (flow_invariant_metric, 1j * T),
    "generator_metric": (generator_metric, T),
    "mixed_pullback_mean": (lambda x: mixed_pullback_mean(x, I2, I2, 4), T),
    "mixed_pullback_mean_kernel": (lambda k: mixed_pullback_mean(T, k, T, 4), I2),
    "intertwiner": (lambda x: intertwiner(x, T), T),
    "intertwiner_scaled_weight": (lambda w: intertwiner_scaled(T, T, w), 1.0),
    "intertwiner_scaled_weight_map": (lambda w: intertwiner_scaled(T, T, {(0, 0): w}), 1.0),
    "mixed_cesaro": (lambda x: mixed_cesaro(x, T, None, 8), T),
    "are_intertwined": (lambda x: are_intertwined(T, T, x), I2),
    "commuting_pair_metric": (lambda x: commuting_pair_metric(T, x), T),
    "heisenberg_metric": (lambda x: heisenberg_metric(x, CLOCK, CENTER), SHIFT),
    "scaled_metric": (lambda x: scaled_metric(x, ScalingSpec({0: 1.0, 1: 1.0})), T),
    "ScalingSpec_scalar": (lambda w: ScalingSpec({0: w}).block_for(0, 1), 1.0),
    "ScalingSpec_block": (lambda w: ScalingSpec({0: w}).block_for(0, 2), I2),
    "phi_metric_map": (lambda v: phi_metric(_result(), {0: v, 1: 1.0}), 1.0),
    "phi_metric_callable": (lambda v: phi_metric(_result(), lambda theta: v), 1.0),
    "commutant_positive_basis": (commutant_positive_basis, T),
    "metric_dependence": (lambda x: metric_dependence(x, None, None, horizon=8), T),
    "metric_dependence_h0": (lambda g: metric_dependence(T, g, None, horizon=8), I2),
    "ClassicalFactorization": (lambda x: ClassicalFactorization(x, np.eye(2)), ROTATION),
    "factorization_check": (
        lambda x: factorization_check(x, ClassicalFactorization(ROTATION, np.eye(2))), ROTATION),
    "n_product": (lambda x: n_product(I2, I2, x), T),
    "QuadraticObservable": (lambda x: QuadraticObservable(x, FORM), T),
    "SymplecticForm.value": (lambda x: SymplecticForm(FORM).value(x, PSI), PSI),
    "poisson_bracket": (lambda psi: poisson_bracket(OBSERVABLE, OBSERVABLE, psi), PSI),
    "bracket_observable.value": (
        lambda psi: bracket_observable(OBSERVABLE, OBSERVABLE).value(psi), PSI),
    "deformed_bracket": (lambda x: deformed_bracket(x, T, PSI, _result()), T),
    "schrodinger_states_state": (lambda psi: schrodinger_states(OBSERVABLE, psi, TIMES), PSI),
    "schrodinger_states_times": (lambda t: schrodinger_states(OBSERVABLE, PSI, t), TIMES),
    "ehrenfest_flow": (lambda t: ehrenfest_flow(OBSERVABLE, OBSERVABLE, PSI, t), TIMES),
    "cyclic_shift_model": (cyclic_shift_model, [1.0, 2.0, 1.0, 2.0]),
    "parity_model": (parity_model, [1.0, 2.0, 1.0, 2.0]),
    "parity_model_phase": (lambda p: parity_model([1.0] * 4, p), [0.0] * 4),
    "translation_model": (translation_model, [2.0, 0.5, 2.0, 0.5]),
    "GridOperatorSpec": (lambda d: GridOperatorSpec("shift", 4, density=d), [1.0] * 4),
    "ToleranceConfig": (lambda v: ToleranceConfig(unitarity_tol=v), 1e-9),
    "heisenberg_metric_relation_tol": (
        lambda v: heisenberg_metric(SHIFT, CLOCK, CENTER, relation_tol=v), 1e-6),
}

# the entry put in place of the first one; a scalar argument is replaced whole,
# and "ragged" then stands for a ragged matrix
SPOILERS = {
    "ragged": [1.0, 2.0],
    "string": "abc",
    "huge_int": 10**400,
    "unprintable_int": 10**5000,  # past the digits repr converts
    "nan": float("nan"),
    "inf": float("inf"),
}


def _spoilt(good, entry):
    if np.ndim(good) == 0:
        return [[1, 2], [3]] if isinstance(entry, list) else entry
    out = np.asarray(good).tolist()
    row = out
    while isinstance(row[0], list):
        row = row[0]
    row[0] = entry
    return out


@pytest.mark.parametrize("spoiler", SPOILERS.values(), ids=SPOILERS.keys())
@pytest.mark.parametrize("call, good", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_an_entry_point_refuses_a_spoilt_input_by_its_own_error(call, good, spoiler):
    call(good)  # the well-formed argument is taken
    with pytest.raises(UnitarizeError):
        call(_spoilt(good, spoiler))


# the calls that raised numpy's own ValueError or OverflowError
REPORTED = {
    "invariant_metric_ragged": lambda: invariant_metric([[1, 2], [3]]),
    "as_operator_ragged": lambda: core.as_operator([[1, 2], [3]]),
    "as_vector_ragged": lambda: core.as_vector([[1, 2], [3]]),
    "intertwiner_scaled_huge_weight": lambda: intertwiner_scaled(T, T, 10**400),
    "scaling_spec_string_weight": lambda: ScalingSpec({0: "abc"}).block_for(0, 1),
}


@pytest.mark.parametrize("call", REPORTED.values(), ids=REPORTED.keys())
def test_a_reported_call_raises_a_unitarize_error(call):
    with pytest.raises(UnitarizeError):
        call()


def test_a_nan_time_is_refused_rather_than_giving_nan_states():
    with pytest.raises(UnitarizeError, match="time grid must be finite"):
        schrodinger_states(OBSERVABLE, PSI, [0.0, float("nan")])


@pytest.mark.parametrize("value", [None, float("nan"), [float("nan")]], ids=repr)
def test_a_wrong_shape_is_told_before_a_non_finite_entry(value):
    # np.array(None, complex) is NaN; the shape is still what is refused
    with pytest.raises(UnitarizeError, match="^expected a square matrix, got shape"):
        as_operator(value)


HORIZON = "^the horizon must be a positive integer$"

# name: (call taking the integer, a value it takes, the smallest it takes,
# the message that refuses the rest)
COUNTS = {
    "ToleranceConfig.cesaro_horizon": (
        lambda v: ToleranceConfig(cesaro_horizon=v), 8, 1, "^cesaro_horizon must be a positive"),
    "cesaro_oracle": (lambda v: cesaro_oracle(T, None, v), 8, 1, HORIZON),
    "cesaro_unitarization": (lambda v: cesaro_unitarization(T, None, v), 8, 1, HORIZON),
    "mixed_cesaro": (lambda v: mixed_cesaro(T, T, None, v), 8, 1, HORIZON),
    "mixed_pullback_mean": (lambda v: mixed_pullback_mean(T, I2, T, v), 8, 1, HORIZON),
    "metric_dependence": (lambda v: metric_dependence(T, None, None, horizon=v), 8, 2,
                          "^the averaging horizon must be an integer of at least 2$"),
    "sampled_power_norms": (lambda v: sampled_power_norms(T, v), 4, 0,
                            "^k_range must be a non-negative integer"),
    "make_clock_shift": (make_clock_shift, 3, 2,
                         "^the Weyl triple needs integer dimension at least 2$"),
    "GridOperatorSpec.size": (lambda v: GridOperatorSpec("shift", v, density=[1.0] * 4), 4, 2,
                              "^grid size must be an integer of at least 2$"),
    "GridOperatorSpec.step": (lambda v: GridOperatorSpec("shift", 4, v, density=[1.0] * 4),
                              -1, -2**53, "^step must be an integer$"),
    "intertwiner_scaled_key": (lambda v: intertwiner_scaled(T, T, {(1, v): 1.0}), 1, 0,
                               "^a weight key must be a pair of integer positions"),
    "parse_matrix_dim": (lambda v: parse_matrix({"dim": v, "data": [[1.0, 0.0]] * 4}), 2, 1,
                         '^"dim" must be a positive integer$'),
}

# value, or None for one below the site's minimum
NOT_COUNTS = {
    "true": True,
    "numpy_true": np.True_,
    "float": 2.0,
    "below_minimum": None,
    "past_bound": 2**53 + 1,
    "huge_int": 10**400,
    "unprintable_int": 10**5000,
    "numpy_uint64": np.uint64(2**63),
}


@pytest.mark.parametrize("value", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
@pytest.mark.parametrize("call, good, minimum, message", COUNTS.values(), ids=COUNTS.keys())
def test_an_integer_site_refuses_what_is_no_count_by_its_message(call, good, minimum, message,
                                                                value):
    call(good)
    with pytest.raises(InvalidInput, match=message):
        call(minimum - 1 if value is None else value)


@pytest.mark.parametrize("call", [
    lambda v: ToleranceConfig(cesaro_horizon=v),
    lambda v: cesaro_oracle(T, None, v),
    lambda v: mixed_cesaro(T, T, None, v),
    lambda v: mixed_pullback_mean(T, I2, T, v),
    lambda v: metric_dependence(T, None, None, horizon=v),
    lambda v: GridOperatorSpec("shift", 3, v, density=[1.0] * 3),
    lambda v: GridOperatorSpec("shift", 3, -v, density=[1.0] * 3),
], ids=["ToleranceConfig", "cesaro_oracle", "mixed_cesaro", "mixed_pullback_mean",
        "metric_dependence", "step", "negative_step"])
def test_the_bound_itself_is_taken(call):
    # 53 doublings on a 2 x 2 operator
    call(2**53)


def test_a_refusal_shows_an_integer_repr_cannot_convert_by_its_size():
    with pytest.raises(InvalidInput, match="^unitarity_tol must be .*, got an integer of 16610 bits$"):
        ToleranceConfig(unitarity_tol=10**5000)


def test_a_weyl_dimension_too_large_to_build_is_refused_by_name():
    # numpy refuses 2**40 before it allocates anything
    with pytest.raises(InvalidInput, match="^the Weyl triple of dimension 1099511627776 is too large"):
        make_clock_shift(2**40)


def _count_linalg(monkeypatch) -> list[str]:
    """The names of the np.linalg functions called from now on."""
    calls = []
    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real, **kw:
                                calls.append(_n) or _f(*a, **kw))
    return calls


# name: (call taking the operators handed together, the 2 x 2 ones it takes)
HANDED_TOGETHER = {
    "intertwiner": (intertwiner, [T, T]),
    "intertwiner_scaled": (lambda a, b: intertwiner_scaled(a, b, 1.0), [T, T]),
    "commuting_pair_metric": (commuting_pair_metric, [T, -T]),
    "heisenberg_metric": (heisenberg_metric, [SHIFT, CLOCK, CENTER]),
    "n_product": (n_product, [I2, I2, T]),
    "are_intertwined": (are_intertwined, [T, T, I2]),
    "mixed_cesaro": (lambda a, b: mixed_cesaro(a, b, None, 8), [T, T]),
}
# one row per operator position
SIZE_ROWS = [(f"{name}_{k}", call, good, k)
             for name, (call, good) in HANDED_TOGETHER.items() for k in range(len(good))]


@pytest.mark.parametrize("call, good, position", [r[1:] for r in SIZE_ROWS],
                         ids=[r[0] for r in SIZE_ROWS])
def test_operators_of_different_sizes_are_refused_naming_each_shape_before_linalg(
        monkeypatch, call, good, position):
    call(*good)
    handed = [np.eye(3) if k == position else m for k, m in enumerate(good)]
    shapes = ", ".join("3 x 3" if k == position else "2 x 2" for k in range(len(good)))
    calls = _count_linalg(monkeypatch)
    with pytest.raises(InvalidInput) as info:
        call(*handed)
    assert str(info.value) == f"the operators have different dimensions: {shapes}"
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda h0: commuting_pair_metric(T, -T, h0),
    lambda h0: heisenberg_metric(SHIFT, CLOCK, CENTER, h0),
], ids=["commuting_pair_metric", "heisenberg_metric"])
def test_a_family_refuses_a_wrong_size_fiducial_form_before_it_decides(monkeypatch, call):
    calls = _count_linalg(monkeypatch)
    with pytest.raises(InvalidInput, match="^fiducial form and operator dimensions differ$"):
        call(np.eye(3))
    assert calls.count("eig") == 0


SHIFT_SPEC = GridOperatorSpec("shift", 4, density=[1.0] * 4)
PARITY_SPEC = GridOperatorSpec("parity", 4, magnitude=[1.0] * 4, phase=[0.0] * 4)
OTHER_FORM = HermitianForm(np.diag([2.0, 1.0]))  # T is self-adjoint in it too

# name: (call, the error it raises, its message)
REFUSALS = {
    "HermitianForm_zero": (lambda: HermitianForm(np.zeros((2, 2))), NotPositiveDefinite,
                           "Gram matrix is zero"),
    "as_vector_length": (lambda: core.as_vector([1.0, 0.0, 0.0], 2), InvalidInput,
                         "state vector has length 3, expected 2"),
    "adjoint_wrt_form_size": (lambda: adjoint_wrt(T, HermitianForm.identity(3)), InvalidInput,
                              "operator and form dimensions differ"),
    "phi_metric_missing_cluster": (lambda: phi_metric(_result(), {0: 1.0}), MissingClusterWeight,
                                   "no phi value for eigenvalue cluster 1"),
    "phi_metric_string": (lambda: phi_metric(_result(), "x"), InvalidInput,
                          "phi must be a callable or a cluster-to-value mapping"),
    "QuadraticObservable_form_size": (
        lambda: QuadraticObservable(T, HermitianForm.identity(3)), InvalidInput,
        "operator and form dimensions differ"),
    "ehrenfest_flow_two_forms": (
        lambda: ehrenfest_flow(OBSERVABLE, QuadraticObservable(T, OTHER_FORM), PSI, TIMES),
        FormMismatch, "hamiltonian and observable live over different forms"),
    "ClassicalFactorization_sizes": (lambda: ClassicalFactorization(ROTATION, np.eye(3)),
                                     InvalidInput,
                                     "factors must be square real matrices of equal size"),
    "factorization_check_size": (
        lambda: factorization_check(np.eye(3), ClassicalFactorization(ROTATION, np.eye(2))),
        InvalidInput, "dynamics and factorization dimensions differ"),
    "parse_matrix_not_object": (lambda: parse_matrix([]), InvalidInput,
                                "matrix payload must be a JSON object"),
    "parse_matrix_no_data": (lambda: parse_matrix({"dim": 2}), InvalidInput,
                             'matrix payload needs the keys "dim" and "data"'),
    "parse_form_kind": (lambda: parse_form({"kind": "symplectic", "dim": 1, "data": [[1.0, 0.0]]}),
                        InvalidInput, "form payload has kind 'symplectic'"),
    "canonical_json_key": (lambda: canonical_json({1: 2}), InvalidInput,
                           "report keys must be strings"),
    "canonical_json_object": (lambda: canonical_json(object()), InvalidInput,
                              "cannot serialize object into a report"),
    "spec_no_profile": (lambda: GridOperatorSpec("shift", 4), InvalidInput,
                        "weighted_cyclic_shift needs the density profile"),
    "spec_profile_length": (lambda: GridOperatorSpec("shift", 4, density=[1.0] * 3),
                            InvalidInput, "density profile has length 3, expected 4"),
    "shift_orbit_means_kind": (lambda: shift_orbit_means(PARITY_SPEC), InvalidInput,
                               "orbit means are defined for the cyclic shift model"),
    "parity_metric_diagonal_kind": (lambda: parity_metric_diagonal(SHIFT_SPEC), InvalidInput,
                                    "this closed form belongs to the parity model"),
    "translation_metric_diagonal_kind": (
        lambda: translation_metric_diagonal(SHIFT_SPEC), InvalidInput,
        "this closed form belongs to the translation model"),
    "spec_payload_not_object": (lambda: _spec_from_payload([]), InvalidInput,
                                "the model spec must be a JSON object"),
    "spec_payload_no_size": (lambda: _spec_from_payload({"kind": "shift"}), InvalidInput,
                             'the model spec needs the keys "kind" and "size"'),
    "mixed_pullback_mean_kernel_size": (lambda: mixed_pullback_mean(T, np.eye(3), T, 4),
                                        InvalidInput, "operator and kernel dimensions differ"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_refusal_raises_its_own_class_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_parse_matrix_reads_numpy_floats_to_the_same_bits_as_floats():
    data = [[0.1, -1 / 3], [2.5, 0.0], [-0.0, 1e-300], [7.0, -2.0]]
    plain = parse_matrix({"dim": 2, "data": data})
    numpy_floats = [[np.float64(v) for v in entry] for entry in data]
    assert parse_matrix({"dim": 2, "data": numpy_floats}).tobytes() == plain.tobytes()
