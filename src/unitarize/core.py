"""Validated complex operators, Hermitian metrics, and clustered spectra.

Operators are plain complex ndarrays.  A metric is a thin wrapper around its
Gram matrix; the associated scalar product is antilinear in the first slot,
h(x, y) = x* G y.  Eigendecompositions come back sorted, phase-fixed, and
grouped into clusters so that every routine downstream sees the same
deterministic spectral data.  The one worker thread also lives here: the
double-and-add pass (metrics) and the decision (boundedness) hand it one
independent half of their work when the host suits (_overlaps) and their own
size test passes.
"""

from __future__ import annotations

import functools
import os
import threading
import warnings
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import ClusterAmbiguity, InvalidInput, NotPositiveDefinite

# Computed eigenvalues of a defective matrix split at roughly the square root
# of the backward error, so a fixed clustering radius near 1e-8 cannot group
# them back together.  So eig floors both radii it sets, the clustering radius
# and the band, at this multiple of sqrt(eps) times (1 + ||T||).  Calibrated
# on conjugated Jordan blocks up to dimension 8 and conditioning 100, whose
# eigenvalue splits stay below 3e-8 * (1 + ||T||).
CLUSTER_FLOOR = 64.0 * float(np.sqrt(np.finfo(np.float64).eps))

# Clusters of two spectra whose means sit between one and this many matching
# radii apart are reported, since a small perturbation could flip the match.
NEAR_MATCH_FACTOR = 10.0

# Relative singular value cutoff for the geometric-multiplicity rank test.
# Sits between exactly degenerate diagonalizable spectra (defect singular
# values below 1e-13 of scale) and conjugated Jordan blocks (above 8e-6).
RANK_RTOL = 1e-8

# Relative cutoff below which an operator counts as numerically singular.
SINGULAR_RTOL = 1e-13

# Relative threshold of the scalar-product test: a Gram matrix is a metric
# when it is Hermitian and its smallest eigenvalue exceeds this fraction of
# its largest.
PSD_RTOL = 1e-10

# Relative drift between the full-horizon and half-horizon Cesaro means above
# which metrics.cesaro_oracle warns SlowConvergence.
DRIFT_RTOL = 1e-6

# Relative Frobenius distance (per dimension) within which a form counts as
# the standard one.
IDENTITY_RTOL = 1e-14

# Smallest dimension at which a double-and-add pass (metrics) forms each
# step's powers on the worker thread while the calling thread updates the sum.
# numpy's matmul holds the GIL for small operands, so below the cut the two
# threads take turns and the hand-off is pure cost.  Calibrated on a 2-core
# x86 host with one OpenBLAS thread, as serial over overlapped time of one
# pass at horizon 2^20 (above 1: the overlap is faster).  With one shared
# operator (cesaro_oracle): n=8 0.26x, n=32 0.56x, n=48 0.75x, n=56 0.88x,
# n=64 0.96x, n=72 1.06x, n=128 1.25x, n=256 1.33x.  With two (mixed_cesaro):
# n=64 1.2x, n=72 1.3x, n=128 1.9x, n=256 2.0x.  One shared operator leaves
# the worker one product per step against the sum's two, which caps its gain
# at 1.5x.  The decision has its own size test, set by when its power SVDs
# release the GIL (boundedness.GIL_HELD_MAX_OUTPUT).
OVERLAP_MIN_DIM = 72

# The thread counts the BLAS libraries numpy ships with obey.  The overlap
# only pays when each product runs on one thread: a multithreaded BLAS
# already spreads one product over every core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _finite_array(value, what: str, nonfinite: str, dtype=np.complex128,
                  error: type[Exception] = InvalidInput, shape=None) -> np.ndarray:
    """value as a fresh array of dtype: the one conversion of input from
    outside.  error(what) when numpy cannot convert it (a ragged list, a
    string that is no number, an int past float range); InvalidInput(refusal)
    when shape maps the array to a refusal of its shape, so that a wrong shape
    is told before a NaN; error(nonfinite) when an entry is NaN or infinite."""
    try:
        arr = np.array(value, dtype)
    except (TypeError, ValueError, OverflowError):
        raise error(what) from None
    if shape and shape(arr):
        raise InvalidInput(shape(arr))
    if not np.isfinite(arr.reshape(-1).view(np.float64)).all():
        raise error(nonfinite)
    return arr


# No integer taken from outside exceeds this.  The means divide by the count
# as a float, exact up to 2**53; the double-and-add's rounding grows like
# eps * N (alternatives.DEPENDENCE_HORIZON), as large as the mean from 2**52 on.
_INTEGER_BOUND = 2**53


def _is_integer(value, minimum: int = 1) -> bool:
    """Whether value is an int or numpy integer (not a bool) from minimum to _INTEGER_BOUND."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and minimum <= value <= _INTEGER_BOUND)


def _shown(value) -> str:
    """repr(value) for a refusal, or a short text where repr raises."""
    try:
        return repr(value)
    except ValueError:  # an int, or an entry, of more digits than Python converts
        return (f"an integer of {value.bit_length()} bits" if isinstance(value, int)
                else f"a {type(value).__name__} too large to show")


def _require_tolerance(name: str, value) -> None:
    """Refuse a tolerance that is not a finite, non-negative number (a bool is
    no number, nor is an int past float range).  A NaN compares false with
    every residual, so each check it sets would pass."""
    message = f"{name} must be a finite non-negative number, got {_shown(value)}"
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or _finite_array(value, message, message, float) < 0):
        raise InvalidInput(message)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy shared by the decision routines.

    eig_cluster_tol  radius used to merge nearby eigenvalues into clusters
                     (floored at CLUSTER_FLOOR times the operator scale)
    unitarity_tol    relative threshold for unit-modulus and unitarity checks
    cesaro_horizon   default number of terms in finite power averages

    These are the three the command line sets; the scalar-product threshold
    is PSD_RTOL, which HermitianForm alone applies, and the Cesaro drift
    threshold DRIFT_RTOL.
    """

    eig_cluster_tol: float = 1e-8
    unitarity_tol: float = 1e-9
    cesaro_horizon: int = 4096

    def __post_init__(self):
        _require_tolerance("eig_cluster_tol", self.eig_cluster_tol)
        _require_tolerance("unitarity_tol", self.unitarity_tol)
        if not _is_integer(self.cesaro_horizon):
            raise InvalidInput(
                f"cesaro_horizon must be a positive integer, got {_shown(self.cesaro_horizon)}")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_operator(a) -> np.ndarray:
    """Validate and return a square complex matrix as a fresh ndarray."""
    return _finite_array(a, "expected a square matrix of numbers", "matrix entries must be finite",
                         shape=lambda m: None if m.ndim == 2 and 0 < m.shape[0] == m.shape[1]
                         else f"expected a square matrix, got shape {m.shape}")


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a complex state vector."""
    vec = _finite_array(x, "expected a vector of numbers", "state vector entries must be finite",
                        shape=lambda v: None if v.size else "state vector is empty").reshape(-1)
    if dim is not None and vec.size != dim:
        raise InvalidInput(f"state vector has length {vec.size}, expected {dim}")
    return vec


def as_operators(*mats) -> tuple[np.ndarray, ...]:
    """Validate square matrices handed together: each through as_operator,
    and InvalidInput naming every shape when their dimensions differ."""
    ops = tuple(as_operator(m) for m in mats)
    if len({A.shape for A in ops}) > 1:
        shapes = ", ".join(f"{A.shape[0]} x {A.shape[1]}" for A in ops)
        raise InvalidInput(f"the operators have different dimensions: {shapes}")
    return ops


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix; used to strip anti-Hermitian rounding noise."""
    return (a + a.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Positive definite Hermitian metric h(x, y) = x* gram y.

    The one scalar-product test, which psd_sqrt and ScalingSpec's matrix
    weight blocks share: gram is Hermitian within PSD_RTOL and its eigenvalues
    (kept for root) exceed PSD_RTOL times the largest."""

    gram: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = as_operator(self.gram)
        if np.linalg.norm(g) == 0.0:
            raise NotPositiveDefinite("Gram matrix is zero")
        if relative_change(g, g.conj().T) > PSD_RTOL:
            raise InvalidInput("Gram matrix is not Hermitian")
        g = hermitize(g)
        w = np.linalg.eigvalsh(g)
        if w[0] <= PSD_RTOL * max(w[-1], 0.0):
            raise NotPositiveDefinite(
                f"Gram matrix is not positive definite: eigenvalue range "
                f"[{w[0]:.3e}, {w[-1]:.3e}]"
            )
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "_eigenvalues", w)

    @classmethod
    def identity(cls, dim: int) -> "HermitianForm":
        return cls(np.eye(dim, dtype=np.complex128))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def apply(self, x, y) -> complex:
        """Scalar product h(x, y), antilinear in x."""
        xv = as_vector(x, self.dim)
        yv = as_vector(y, self.dim)
        return complex(xv.conj() @ self.gram @ yv)

    def norm_of(self, x) -> float:
        val = self.apply(x, x).real
        return float(np.sqrt(max(val, 0.0)))

    def is_identity(self) -> bool:
        n = self.dim
        return bool(np.linalg.norm(self.gram - np.eye(n)) <= IDENTITY_RTOL * n)

    @functools.cached_property
    def root(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, Q^{-1}) for the positive root Q of gram, formed once and shared
        read-only; the inverse's singularity test reads Q's singular values
        off the validated eigenvalues, not an SVD."""
        Q = psd_sqrt(self)
        Qinv = invert(Q, "square root of the Gram matrix", np.sqrt(self._eigenvalues[::-1]))
        Q.setflags(write=False)
        Qinv.setflags(write=False)
        return Q, Qinv


def _cluster_labels(dist: np.ndarray, tol: float) -> np.ndarray:
    """Transitive closure of the relation dist[i, j] <= tol, as the smallest
    index of each index's class.  The close pairs come from one vectorised
    comparison and are merged in (i, j) order; the merging loop runs over
    those pairs only, not over all n^2 / 2 of them."""
    n = len(dist)
    labels = list(range(n))

    def find(i):
        while labels[i] != i:
            labels[i] = labels[labels[i]]
            i = labels[i]
        return i

    rows, cols = np.nonzero(np.triu(dist <= tol, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            labels[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)])


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its leading significant entry is real positive.

    The anchor is the first entry within a relative 1e-8 of the column's
    largest modulus, so columns whose entries tie in modulus (Fourier-type
    vectors) still get a deterministic phase.
    """
    out = vectors.copy()
    mags = np.abs(out)
    top = mags.max(axis=0)
    anchor = np.argmax(mags >= (1.0 - 1e-8) * top, axis=0)
    pivot = out[anchor, np.arange(out.shape[1])]
    # A zero column is left as it is: its anchor entry is zero.  The modulus
    # is hypot's, as the scalar abs() takes it; np.abs on an array can differ
    # in the last bit.
    keep = pivot != 0
    pivot = pivot[keep]
    out[:, keep] *= np.conj(pivot) / np.hypot(pivot.real, pivot.imag)
    return out


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Sorted, clustered spectral data of one operator.

    eigenvalues        sorted by (phase in [0, 2pi), then modulus)
    eigenvectors       unit columns aligned with the eigenvalues, phase-fixed
    clusters           index groups of eigenvalues within the cluster radius
    labels             cluster position of each eigenvalue index, read-only
    diagonalizable     True when every cluster has full geometric multiplicity
    defective_clusters positions (into clusters) that fail the rank test
    cluster_tol        clustering radius, max(eig_cluster_tol, floor)
    band               distance from the unit circle (or the real axis) within
                       which an eigenvalue counts as on it, max(unitarity_tol,
                       floor): the floor reports a defective spectrum on the
                       circle as defective rather than as off the circle
    operator_norm      spectral norm of the operator; the floor of both radii
                       is CLUSTER_FLOOR (1 + operator_norm)

    Which eigenvalues count as equal is decided here alone: eig clusters one
    spectrum, match pairs two spectra's clusters, and both near-miss warnings
    (eig's ClusterAmbiguity, match's near-match warning) belong to that policy.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    labels: np.ndarray
    diagonalizable: bool
    defective_clusters: tuple[int, ...]
    cluster_tol: float
    band: float
    operator_norm: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @functools.cached_property
    def degenerate_clusters(self) -> tuple[int, ...]:
        """Positions of the clusters holding more than one eigenvalue, in
        order; empty exactly when the spectrum is multiplicity-free."""
        return tuple(np.flatnonzero(np.bincount(self.labels) > 1).tolist())

    @functools.cached_property
    def _means(self) -> np.ndarray:
        # A singleton's mean is its eigenvalue plus zero: .mean() sums from
        # zero, which turns a -0.0 part into 0.0.  A larger cluster keeps
        # .mean(), whose pairwise summation no vectorised sum repeats.
        w = self.eigenvalues
        means = w[np.fromiter(map(itemgetter(0), self.clusters), dtype=np.intp)] + 0.0
        for c in self.degenerate_clusters:
            means[c] = w[list(self.clusters[c])].mean()
        means.setflags(write=False)
        return means

    def cluster_means(self) -> np.ndarray:
        """Mean of each cluster's eigenvalues, read-only and formed once."""
        return self._means

    def cluster_phases(self) -> np.ndarray:
        """Phase of each cluster mean in [0, 2pi).  A mean within the cluster
        radius of the wrap point gets 0, so an eigenvalue at 1 cannot leak a
        spurious 2pi."""
        theta = np.mod(np.angle(self._means), 2.0 * np.pi)
        theta[2.0 * np.pi - theta <= self.cluster_tol] = 0.0
        return theta

    def same_cluster_mask(self) -> np.ndarray:
        """Boolean (dim, dim) mask, True where two indices share a cluster."""
        return self.labels[:, None] == self.labels[None, :]

    def match(self, other: "EigenDecomposition") -> np.ndarray:
        """Boolean (clusters, other's clusters) matrix, True where two means
        lie within the larger cluster_tol (hypot's modulus, as abs() takes
        it); unmatched pairs within NEAR_MATCH_FACTOR radii draw one warning."""
        tol = max(self.cluster_tol, other.cluster_tol)
        d = self._means[:, None] - other._means[None, :]
        dist = np.hypot(d.real, d.imag)
        matched = dist <= tol
        near = int(np.count_nonzero(dist <= NEAR_MATCH_FACTOR * tol)) - int(matched.sum())
        if near:
            warnings.warn(f"{near} eigenvalue pair(s) of the two spectra almost match (within "
                          f"{NEAR_MATCH_FACTOR:g} matching radii); the averaged pairing "
                          f"treats them as distinct", stacklevel=3)
        return matched

    @functools.cached_property
    def eigenvector_singular_values(self) -> np.ndarray:
        """Singular values of P, descending, from one SVD taken on first use:
        the decision's bound estimate cond(P) and the singularity test of
        inverse both read them."""
        sv = np.linalg.svd(self.eigenvectors, compute_uv=False)
        sv.setflags(write=False)
        return sv

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """P^{-1}, inverted on first use and then shared (read-only) by every
        spectral function and projected Gram built on this decomposition."""
        Pi = invert(self.eigenvectors, "eigenvector matrix", self.eigenvector_singular_values)
        Pi.setflags(write=False)
        return Pi

    def spectral_function(self, values) -> np.ndarray:
        """P diag(v) P^{-1}, where v repeats one value per cluster over the
        cluster's eigenvalues."""
        v = np.asarray(values)[self.labels]
        return self.eigenvectors @ (v[:, None] * self.inverse)


def masked_block(dec1: EigenDecomposition, dec2: EigenDecomposition, kernel, mask):
    """mask o P1* K P2: the kernel K written between two eigenbases and cut to
    the masked (own- or matched-cluster) entries."""
    return np.where(mask, dec1.eigenvectors.conj().T @ kernel @ dec2.eigenvectors, 0.0)


def _radii(cfg: ToleranceConfig, operator_norm: float) -> tuple[float, float]:
    """(cluster radius, band) of an operator of the given spectral norm: the
    configured values, each floored at CLUSTER_FLOOR (1 + operator_norm)."""
    floor = CLUSTER_FLOOR * (1.0 + operator_norm)
    return max(cfg.eig_cluster_tol, floor), max(cfg.unitarity_tol, floor)


def eig(
    operator, cfg: ToleranceConfig | None = None, operator_norm: float | None = None
) -> EigenDecomposition:
    """Eigendecomposition with deterministic ordering and clustering.

    Eigenvalues are sorted by phase (wrapped to [0, 2pi)) and then modulus.
    Values closer than the effective cluster radius are merged transitively
    into clusters; each cluster of size m is tested for geometric
    multiplicity m through the singular values of (T - mean*I).  Pairs of
    eigenvalues from different clusters that sit within twice the radius
    trigger a ClusterAmbiguity warning.  A caller that holds the largest
    singular value of the operator passes it as operator_norm, which then
    stands in for an SVD of the operator.
    """
    T = as_operator(operator)
    w, v = np.linalg.eig(T)
    phase = np.mod(np.angle(w), 2.0 * np.pi)
    order = np.lexsort((np.abs(w), phase))
    w = w[order]
    v = _fix_column_phases(v[:, order])

    op_norm = spectral_norm(T) if operator_norm is None else operator_norm
    scale = 1.0 + op_norm
    tol, band = _radii(cfg or DEFAULT_TOLERANCES, op_norm)
    dist = np.abs(w[:, None] - w[None, :])
    # Each class is named by its smallest index, so np.unique numbers the
    # clusters by first index, and a stable sort by that number lists each
    # cluster's indices in ascending order.
    _, labels, sizes = np.unique(_cluster_labels(dist, tol), return_inverse=True,
                                 return_counts=True)
    labels.setflags(write=False)
    order = np.argsort(labels, kind="stable").tolist()
    cuts = [0, *np.cumsum(sizes).tolist()]
    clusters = tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))

    near = int(np.sum((labels[:, None] != labels[None, :]) & (dist <= 2.0 * tol)) // 2)
    if near:
        warnings.warn(f"{near} eigenvalue pair(s) lie between one and two cluster radii apart "
                      f"(radius {tol:.3e}); clustering may be unstable under perturbation",
                      ClusterAmbiguity, stacklevel=2)

    defective = []
    for c, idx in enumerate(clusters):
        if len(idx) > 1:
            sv = np.linalg.svd(T - w[list(idx)].mean() * np.eye(len(w)), compute_uv=False)
            if np.count_nonzero(sv <= RANK_RTOL * scale) < len(idx):
                defective.append(c)

    return EigenDecomposition(
        eigenvalues=w,
        eigenvectors=v,
        clusters=clusters,
        labels=labels,
        diagonalizable=not defective,
        defective_clusters=tuple(defective),
        cluster_tol=tol,
        band=band,
        operator_norm=op_norm,
    )


def scalar_eig(operator, cfg: ToleranceConfig | None = None) -> EigenDecomposition | None:
    """The one-cluster decomposition of mu I, mu = tr T / n, with identity
    eigenvectors, when T is numerically that unimodular scalar; None otherwise.

    It is given only when E = T - mu I and the band of mu I (eig's, from
    _radii) satisfy ||E||_F <= RANK_RTOL (1 + |mu|) / 2 and
    ||mu| - 1| + ||E||_F <= band / 2.  Every eigenvalue of T lies within
    ||E||_2 of mu, and the mean of eig's computed ones is mu up to rounding,
    so with these factor-2 margins eig would cluster T's spectrum into one
    cluster that passes the rank test and lies inside the band: wherever this
    gives a decomposition, check_uniformly_bounded calls T uniformly_bounded
    with one diagonalizable cluster.  It takes no LAPACK call.
    """
    T = as_operator(operator)
    n = T.shape[0]
    mu = complex(np.trace(T)) / n
    defect = float(np.linalg.norm(T - mu * np.eye(n)))
    modulus = abs(mu)
    tol, band = _radii(cfg or DEFAULT_TOLERANCES, modulus)
    if defect > RANK_RTOL * (1.0 + modulus) / 2.0 or abs(modulus - 1.0) + defect > band / 2.0:
        return None
    labels = np.zeros(n, dtype=np.intp)
    labels.setflags(write=False)
    return EigenDecomposition(
        eigenvalues=np.full(n, mu),
        eigenvectors=np.eye(n, dtype=np.complex128),
        clusters=(tuple(range(n)),),
        labels=labels,
        diagonalizable=True,
        defective_clusters=(),
        cluster_tol=tol,
        band=band,
        operator_norm=modulus,
    )


def psd_sqrt(gram) -> np.ndarray:
    """Unique positive definite square root of a metric's Gram matrix.

    Accepts a HermitianForm, or a raw matrix that is validated into one
    first; HermitianForm.root keeps the root of a form with its inverse.
    """
    form = gram if isinstance(gram, HermitianForm) else HermitianForm(gram)
    w, u = np.linalg.eigh(form.gram)
    return hermitize((u * np.sqrt(w)) @ u.conj().T)


def adjoint_wrt(operator, form: HermitianForm) -> np.ndarray:
    """Adjoint of an operator with respect to a Hermitian form.

    Defined by h(A x, y) = h(x, adjoint_wrt(A, form) y), which gives
    G^{-1} A* G for Gram matrix G.
    """
    A = as_operator(operator)
    if A.shape[0] != form.dim:
        raise InvalidInput("operator and form dimensions differ")
    return np.linalg.solve(form.gram, A.conj().T @ form.gram)


def require_nonsingular(
    a: np.ndarray, error: type[Exception], message: str, singular_values=None
) -> np.ndarray:
    """Raise error(message) when a is numerically singular.

    Returns the singular values of a (descending) that the test read, so a
    caller that needs them does not take a second SVD.  A caller that
    already holds them passes them as singular_values, and the test reads
    those instead.
    """
    sv = np.linalg.svd(a, compute_uv=False) if singular_values is None else singular_values
    if sv[-1] <= SINGULAR_RTOL * (1.0 + sv[0]):
        raise error(message)
    return sv


def invert(operator, label: str = "operator", singular_values=None) -> np.ndarray:
    """Inverse with an explicit singularity check, which reads singular_values
    when the caller holds them (see require_nonsingular)."""
    A = as_operator(operator)
    require_nonsingular(A, InvalidInput, f"{label} is numerically singular", singular_values)
    return np.linalg.inv(A)


def resolve_fiducial(h0, dim: int) -> HermitianForm:
    """The fiducial form for an operator of the given dimension.

    None means the standard form; a Gram matrix is validated into a form.
    A form of another dimension raises InvalidInput.
    """
    if h0 is None:
        return _standard_form(dim)
    if not isinstance(h0, HermitianForm):
        h0 = HermitianForm(h0)
    if h0.dim != dim:
        raise InvalidInput("fiducial form and operator dimensions differ")
    return h0


@functools.lru_cache(maxsize=16)
def _standard_form(dim: int) -> HermitianForm:
    # A form is immutable, so one validated identity per size can serve every
    # call; the finite averages, which never validated a default identity,
    # would otherwise pay an eigvalsh each.
    return HermitianForm.identity(dim)


def relative_defect(defect: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """||defect|| / (max(1, ||a||) max(1, ||b||)) for a relation between a and b."""
    scale = max(1.0, float(np.linalg.norm(a))) * max(1.0, float(np.linalg.norm(b)))
    return float(np.linalg.norm(defect)) / scale


def relative_change(value: np.ndarray, reference: np.ndarray) -> float:
    """||value - reference|| / ||reference||, Frobenius norms, with the reference
    norm floored so that a zero reference gives a finite number: the one rule
    for a residual measured against a reference matrix."""
    return float(np.linalg.norm(value - reference) / max(np.linalg.norm(reference), 1e-300))


def invariance_residual(operator: np.ndarray, gram: np.ndarray) -> float:
    """Relative change ||T* G T - G|| / ||G|| of the metric G under T."""
    return relative_change(operator.conj().T @ gram @ operator, gram)


def self_adjointness_residual(operator: np.ndarray, gram: np.ndarray) -> float:
    """Relative change ||G A - (G A)*|| / ||G A|| of A for G."""
    lhs = gram @ operator
    return relative_change(lhs, lhs.conj().T)


def _overlaps(large_enough: bool) -> bool:
    """Whether work goes to the worker thread: the caller's own size test
    passed (large_enough), the process may run on at least two CPUs, and
    BLAS is pinned to one thread (some BLAS_THREAD_VARS set, every one set
    reading 1)."""
    if not large_enough:
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    pins = [os.environ[v].strip() for v in BLAS_THREAD_VARS if v in os.environ]
    return bool(pins) and all(v == "1" for v in pins)


class _Deferred:
    """The serial twin of a _Task: fn runs on the calling thread when its
    result is read, so the caller does its own half of the work first.  A
    double-and-add pass that formed its powers first instead was 1.13x
    slower at n=256 with unpinned BLAS on a 2-core host."""

    __slots__ = ("_call",)

    def __init__(self, fn, *args):
        self._call = (fn, args)

    def result(self):
        fn, args = self._call
        self._call = None
        return fn(*args)


class _Task:
    """fn(*args) as handed to the worker thread: wait() waits for the worker
    to run it, and result() then returns its value or raises its
    exception."""

    __slots__ = ("_call", "_done", "_value", "_error")

    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._done = threading.Event()
        self._value = self._error = None

    def run(self) -> None:
        fn, args = self._call
        self._call = None
        try:
            self._value = fn(*args)
        except BaseException as exc:
            self._error = exc
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self) -> None:
        self._done.wait()

    def result(self):
        self.wait()
        if self._error is not None:
            raise self._error
        return self._value


def _work(tasks) -> None:
    # The worker thread's loop.  It binds no task between runs, so an idle
    # worker holds no operand or result alive.
    while True:
        tasks.get().run()


def _submit(tasks, fn, *args) -> _Task:
    task = _Task(fn, *args)
    tasks.put(task)
    return task


# The one worker thread's task queue, made with the thread by the first
# overlapped call.  A forked child inherits the queue but not the thread, so
# the child forgets both.
_worker = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _overlap_submit(large_enough: bool):
    """submit(fn, *args) -> an object with result(): a _Task run by the
    worker thread when _overlaps(large_enough), otherwise a _Deferred that
    runs fn on the calling thread.  Each caller brings its own size test as
    large_enough.  A task given to the worker must not submit work itself:
    there is one worker, and it would wait on its own queue."""
    global _worker
    if not _overlaps(large_enough):
        return _Deferred
    with _worker_lock:
        if _worker is None:
            # Imported here so that importing the package loads no queue
            # machinery; nor does it start a thread.  The thread is a daemon
            # so that it does not hold the interpreter open at exit: every
            # submitter waits on its task, so by then the worker is idle.
            import queue

            _worker = queue.SimpleQueue()
            threading.Thread(target=_work, args=(_worker,), name="unitarize-worker",
                             daemon=True).start()
        return functools.partial(_submit, _worker)
