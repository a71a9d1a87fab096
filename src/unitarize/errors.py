"""Exception and warning types shared across the package."""


class UnitarizeError(Exception):
    """Base class for every structured error raised by this package."""


class InvalidInput(UnitarizeError):
    """Malformed input: wrong shape, non-finite entries, bad parameters."""


class NotPositiveDefinite(UnitarizeError):
    """A matrix expected to be Hermitian positive definite is not."""


class NotAutomorphism(UnitarizeError):
    """The operator is numerically singular, so its integer powers do not form a group."""


class NotUniformlyBounded(UnitarizeError):
    """The two-sided power orbit of the operator is unbounded; no invariant metric exists."""


class DivergenceDetected(UnitarizeError):
    """Partial power averages grew past the divergence guard instead of settling."""


class SingularShift(UnitarizeError):
    """A resolvent-style shift inside a Cayley map is singular."""


class NotBoundedFlow(UnitarizeError):
    """The generator does not produce a bounded one-parameter group."""


class NotCommuting(UnitarizeError):
    """Operators expected to commute fail to do so beyond tolerance."""


class RelationViolated(UnitarizeError):
    """Prescribed algebraic relations between operators fail beyond tolerance."""


class MissingClusterWeight(UnitarizeError):
    """A scaling specification does not cover every eigenvalue cluster."""


class NonPositiveWeight(UnitarizeError):
    """Cluster weights must be positive scalars or positive definite blocks."""


class NonPositivePhi(UnitarizeError):
    """Spectral rescaling values must be strictly positive."""


class WeightOnUnmatchedPair(UnitarizeError):
    """A weight refers to an eigenvalue pair the two spectra do not share."""


class NotSelfAdjoint(UnitarizeError):
    """An operator is not self-adjoint with respect to the given form."""


class FormMismatch(UnitarizeError):
    """Two quadratic observables were built over different Hermitian forms."""


class ClusterAmbiguity(UserWarning):
    """Two eigenvalues sit just outside the clustering radius of each other."""


class SlowConvergence(UserWarning):
    """A power average is still drifting at the configured horizon."""
