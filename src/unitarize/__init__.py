"""Inverse problems for finite quantum systems.

Given an invertible operator, decide whether some Hermitian metric makes it
unitary, construct every metric that does, and follow the consequences:
self-adjoint logarithms, commuting families and Weyl triples, connecting
maps between different operators, and the Hamiltonian face of the same
dynamics.
"""

from .alternatives import (
    MetricChangeReport,
    ScalingSpec,
    commutant_positive_basis,
    metric_dependence,
    phi_metric,
    scaled_metric,
)
from .boundedness import (
    BoundednessReport,
    GeneratorReport,
    NormalityReport,
    check_generator,
    check_normal_dichotomy,
    check_uniformly_bounded,
    sampled_power_norms,
)
from .core import (
    DEFAULT_TOLERANCES,
    EigenDecomposition,
    HermitianForm,
    ToleranceConfig,
    adjoint_wrt,
    as_operator,
    eig,
    psd_sqrt,
)
from .errors import (
    ClusterAmbiguity,
    DivergenceDetected,
    FormMismatch,
    InvalidInput,
    MissingClusterWeight,
    NonPositivePhi,
    NonPositiveWeight,
    NotAutomorphism,
    NotBoundedFlow,
    NotCommuting,
    NotPositiveDefinite,
    NotSelfAdjoint,
    NotUniformlyBounded,
    RelationViolated,
    SingularShift,
    SlowConvergence,
    UnitarizeError,
    WeightOnUnmatchedPair,
)
from .families import (
    FamilyResult,
    ShortcutReport,
    commuting_pair_metric,
    heisenberg_metric,
    make_clock_shift,
    multiplicity_free_shortcut,
)
from .hamiltonian import (
    ClassicalFactorization,
    QuadraticObservable,
    SymplecticForm,
    bracket_observable,
    deformed_bracket,
    ehrenfest_flow,
    factorization_check,
    n_product,
    planar_oscillator_pair,
    poisson_bracket,
    schrodinger_states,
)
from .intertwine import (
    IntertwineResult,
    are_intertwined,
    intertwiner,
    intertwiner_scaled,
    mixed_cesaro,
)
from .line_models import (
    GridOperatorSpec,
    build,
    cyclic_shift_model,
    expected_spectrum,
    parity_metric_diagonal,
    parity_model,
    shift_orbit_means,
    spectrum_match_report,
    translation_metric_diagonal,
    translation_model,
)
from .metrics import (
    Unitarization,
    cayley,
    cesaro_oracle,
    cesaro_unitarization,
    flow_invariant_metric,
    generator_metric,
    invariant_metric,
    inverse_cayley,
    mixed_pullback_mean,
    unitary_log,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
