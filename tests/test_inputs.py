"""Input from outside is refused with a UnitarizeError, never a raw numpy error.

Each public entry point is handed its usual argument with one entry spoilt:
a ragged row, a string that is no number, an int past float range or past
the digits repr converts, NaN and infinity.  Every call must raise a
UnitarizeError subclass; a ValueError, TypeError or OverflowError escaping
from numpy fails the row.  Every integer taken from outside passes one rule:
an int or numpy integer, not a bool, from its site's minimum to 2**53.
"""

import numpy as np
import pytest

from unitarize import (
    ClassicalFactorization,
    InvalidInput,
    GridOperatorSpec,
    HermitianForm,
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
    parity_model,
    phi_metric,
    poisson_bracket,
    psd_sqrt,
    sampled_power_norms,
    scaled_metric,
    schrodinger_states,
    translation_model,
)
from unitarize.serialization import parse_matrix

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
