"""The package's public surface: every exported name loads its home module on
first use and is that module's own attribute."""

import functools
import importlib
import inspect
import pkgutil
import typing

import pytest

import unitarize
from unitarize import metrics

# the exported names, by the module that defines them; the submodules
# themselves are exported too
EXPORTS = {
    "alternatives": [
        "MetricChangeReport", "ScalingSpec", "commutant_positive_basis",
        "metric_dependence", "phi_metric", "scaled_metric",
    ],
    "boundedness": [
        "BoundednessReport", "GeneratorReport", "NormalityReport", "check_generator",
        "check_normal_dichotomy", "check_uniformly_bounded", "sampled_power_norms",
    ],
    "core": [
        "DEFAULT_TOLERANCES", "EigenDecomposition", "HermitianForm", "ToleranceConfig",
        "adjoint_wrt", "as_operator", "eig", "psd_sqrt",
    ],
    "errors": [
        "ClusterAmbiguity", "DivergenceDetected", "FormMismatch", "InvalidInput",
        "MissingClusterWeight", "NonPositivePhi", "NonPositiveWeight", "NotAutomorphism",
        "NotBoundedFlow", "NotCommuting", "NotPositiveDefinite", "NotSelfAdjoint",
        "NotUniformlyBounded", "RelationViolated", "SingularShift", "SlowConvergence",
        "UnitarizeError", "WeightOnUnmatchedPair",
    ],
    "families": [
        "FamilyResult", "ShortcutReport", "commuting_pair_metric", "heisenberg_metric",
        "make_clock_shift", "multiplicity_free_shortcut",
    ],
    "hamiltonian": [
        "ClassicalFactorization", "QuadraticObservable", "SymplecticForm",
        "bracket_observable", "deformed_bracket", "ehrenfest_flow", "factorization_check",
        "n_product", "planar_oscillator_pair", "poisson_bracket", "schrodinger_states",
    ],
    "intertwine": [
        "IntertwineResult", "are_intertwined", "intertwiner", "intertwiner_scaled",
        "mixed_cesaro",
    ],
    "line_models": [
        "GridOperatorSpec", "build", "cyclic_shift_model", "expected_spectrum",
        "parity_metric_diagonal", "parity_model", "shift_orbit_means",
        "spectrum_match_report", "translation_metric_diagonal", "translation_model",
    ],
    "metrics": [
        "Unitarization", "cayley", "cesaro_oracle", "cesaro_unitarization",
        "flow_invariant_metric", "generator_metric", "invariant_metric", "inverse_cayley",
        "mixed_pullback_mean", "unitary_log",
    ],
}
NAMES = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def _home_value(name):
    if name in EXPORTS:
        return importlib.import_module(f"unitarize.{name}")
    (module,) = (m for m, names in EXPORTS.items() if name in names)
    return getattr(importlib.import_module(f"unitarize.{module}"), name)


def test_all_lists_the_recorded_names():
    assert len(NAMES) == 90
    assert unitarize.__all__ == NAMES


def test_each_name_is_its_home_module_attribute_and_listed_by_dir():
    listed = dir(unitarize)
    for name in NAMES:
        assert getattr(unitarize, name) is _home_value(name), name
        assert name in listed, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        unitarize.no_such_name  # noqa: B018
    assert not hasattr(unitarize, "no_such_name")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from unitarize import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == NAMES
    for name in NAMES:
        assert namespace[name] is _home_value(name), name


def test_a_function_replaced_in_its_home_module_is_the_one_exported(monkeypatch):
    original = metrics.invariant_metric

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "invariant_metric", replacement)
    assert unitarize.invariant_metric is replacement
    monkeypatch.undo()
    assert unitarize.invariant_metric is original


def _annotated(module):
    """Every function and class the module defines, and the functions,
    properties and cached properties of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        elif inspect.isclass(obj):
            yield obj.__qualname__, obj
            for attr in vars(obj).values():
                fn = attr
                if isinstance(attr, property):
                    fn = attr.fget
                elif isinstance(attr, functools.cached_property):
                    fn = attr.func
                elif isinstance(attr, (staticmethod, classmethod)):
                    fn = attr.__func__
                if inspect.isfunction(fn):
                    yield fn.__qualname__, fn


MODULES = sorted(m.name for m in pkgutil.iter_modules(unitarize.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    # annotations are strings under postponed evaluation, so a name that a
    # module uses in one but never imports fails only when it is resolved
    module = importlib.import_module(f"unitarize.{name}")
    checked = 0
    for qualname, obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"unitarize.{name}.{qualname}: {exc}")
        checked += 1
    assert checked
