"""Inverse problems for finite quantum systems.

Given an invertible operator, decide whether some Hermitian metric makes it
unitary, construct every metric that does, and follow the consequences:
self-adjoint logarithms, commuting families and Weyl triples, connecting
maps between different operators, and the Hamiltonian face of the same
dynamics.

Names load on first use: ``import unitarize`` runs no library module, and
each exported name, or submodule, imports its home module the first time it
is read.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every exported name, by the module that defines it
_EXPORTS = {
    "alternatives": (
        "MetricChangeReport", "ScalingSpec", "commutant_positive_basis",
        "metric_dependence", "phi_metric", "scaled_metric",
    ),
    "boundedness": (
        "BoundednessReport", "GeneratorReport", "NormalityReport", "check_generator",
        "check_normal_dichotomy", "check_uniformly_bounded", "sampled_power_norms",
    ),
    "core": (
        "DEFAULT_TOLERANCES", "EigenDecomposition", "HermitianForm", "ToleranceConfig",
        "adjoint_wrt", "as_operator", "eig", "psd_sqrt",
    ),
    "errors": (
        "ClusterAmbiguity", "DivergenceDetected", "FormMismatch", "InvalidInput",
        "MissingClusterWeight", "NonPositivePhi", "NonPositiveWeight", "NotAutomorphism",
        "NotBoundedFlow", "NotCommuting", "NotPositiveDefinite", "NotSelfAdjoint",
        "NotUniformlyBounded", "RelationViolated", "SingularShift", "SlowConvergence",
        "UnitarizeError", "WeightOnUnmatchedPair",
    ),
    "families": (
        "FamilyResult", "ShortcutReport", "commuting_pair_metric", "heisenberg_metric",
        "make_clock_shift", "multiplicity_free_shortcut",
    ),
    "hamiltonian": (
        "ClassicalFactorization", "QuadraticObservable", "SymplecticForm",
        "bracket_observable", "deformed_bracket", "ehrenfest_flow", "factorization_check",
        "n_product", "planar_oscillator_pair", "poisson_bracket", "schrodinger_states",
    ),
    "intertwine": (
        "IntertwineResult", "are_intertwined", "intertwiner", "intertwiner_scaled",
        "mixed_cesaro",
    ),
    "line_models": (
        "GridOperatorSpec", "build", "cyclic_shift_model", "expected_spectrum",
        "parity_metric_diagonal", "parity_model", "shift_orbit_means",
        "spectrum_match_report", "translation_metric_diagonal", "translation_model",
    ),
    "metrics": (
        "Unitarization", "cayley", "cesaro_oracle", "cesaro_unitarization",
        "flow_invariant_metric", "generator_metric", "invariant_metric", "inverse_cayley",
        "mixed_pullback_mean", "unitary_log",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # Read from the home module on every access and never stored here, so a
    # function replaced in its home module (a test patch, a tracer) is the
    # one this package hands out.  An imported submodule is bound here by the
    # import system itself and no longer reaches this hook.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
