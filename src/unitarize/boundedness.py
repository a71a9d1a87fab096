"""Decide whether the two-sided power orbit of an operator stays bounded.

In finite dimension, sup over all integers k of ||T^k|| is finite exactly
when T is diagonalizable and every eigenvalue sits on the unit circle.  The
verdicts here are spectral; the sampled power norms included in each report
are a diagnostic, not the decision path.  The singular values of T^k give
||T^k|| as the largest and ||T^-k|| as the reciprocal of the smallest, so
one SVD per power serves both signs; the powers are decomposed a stack at a
time, sized so that numpy runs each stack's SVD without the GIL
(GIL_HELD_MAX_OUTPUT).  The reciprocal is trusted only while T^k is well
conditioned (RECIPROCAL_RTOL); for the other powers T^-k is formed.  A
parallel criterion handles generators: e^{itH} is bounded in t exactly when
H is diagonalizable with real spectrum.

The two halves of a decision are independent.  The calling thread runs the
singularity test (the k = 1 SVD, whose largest singular value is also the
operator norm eig reads), then eig and the verdict; the power norms from
k = 2 on run on the worker thread meanwhile when one stack of their SVDs
releases the GIL (n >= 17) and the host suits (core._overlaps: two usable
CPUs, BLAS pinned to one thread), and on the calling thread after the
verdict otherwise.  The stacks are shared: once the calling thread is done
with its half, and before it reads the norms, it decomposes the stacks the
worker has not reached, so neither thread waits while the other still has
stacks to take.  Whichever thread takes a stack, its powers are the same
product chain and its SVD the same call, so the report is bitwise the
same.  The constructions decide through bounded(), whose with-block runs
on the calling thread before the norms are read, so the answer is built
while the worker runs the stacks, and the caller joins it when the block
ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DEFAULT_TOLERANCES,
    EigenDecomposition,
    ToleranceConfig,
    as_operator,
    eig,
    relative_change,
    require_nonsingular,
    spectral_norm,
)
from .errors import InvalidInput, NotAutomorphism, NotBoundedFlow, NotUniformlyBounded

# Power norms are sampled for k in [-POWER_SAMPLE_RANGE, POWER_SAMPLE_RANGE].
POWER_SAMPLE_RANGE = 32

# ||T^-k|| is read as 1/sigma_min(T^k) only while sigma_min(T^k) is at least
# this fraction of sigma_max(T^k).  The reciprocal turns the rounding error of
# the computed T^k into a relative error up to cond(T^k) times larger, so below
# the cut T^-k is formed and decomposed instead.  Calibrated against 100-digit
# norms at n = 5 (20 seeds each of bounded, Jordan, and one modulus off the
# circle by +-0.05 or +-0.5): the worst relative error over k in [-32, 32] was
# 8e-13, 1.2e-11 and 2.4e-9 at cond(S) = 10, 100 and 1e3, against 2.4e-13,
# 7.6e-12 and 1.0e-9 with every T^-k formed.  A cut of 1e-3 matched the formed
# powers but sends cond(S) = 100 operators, whose powers reach cond 1e4, down
# the slow path; a cut of 1e-6 reached 5.4e-10 at cond(S) = 100.
RECIPROCAL_RTOL = 1e-4

# numpy runs a linalg call without the GIL only when its output has more
# than this many elements, and a values-only SVD of an n x n matrix has n.  So
# the powers T^k are decomposed in stacks of b, the fewest with b n past the
# cut: one SVD per power at n = 128 held the GIL throughout, and the power
# chain on the worker thread ran in turn with the calling thread's work.
# Measured with numpy 2.4.6 and one OpenBLAS thread on a 2-core x86 host, as
# the time of two threads each taking the same values-only SVDs over one
# thread taking both shares: 1.94x faster at n = 501 and 0.95x at n = 500;
# at n = 128, stacks of 4 1.97x and stacks of 3 0.86x.  The singular values
# of a stack are bitwise those of one call per matrix.
#
# The cut also sets when a decision overlaps: exactly when one stack's SVD
# runs without the GIL, n * _power_stack_size(n, POWER_SAMPLE_RANGE) > 500,
# which holds from n = 17 on (at n = 16 a stack of 31 powers has 496 values).
# The two threads can then each run a stack at once, so the calling thread,
# done with eig and the answer, decomposes the stacks the worker has not
# reached.  Measured on the same host as serial over overlapped time (the
# worker taking every stack), medians of 7 alternating rounds:
#
#   n    check_uniformly_bounded   invariant_metric   intertwiner
#   8    0.86x
#   12   about 1.0x
#   16   1.08x (the stack holds the GIL)
#   20   1.38x                     1.25x              1.35x
#   24   1.40x                     1.53x              1.46x
#   32   1.35x                     1.36x              1.38x
#   64   1.37x                     1.55x              1.48x
#
# With the caller taking its share of the stacks, the worker taking every
# stack over the shared stacks, medians of 15 calls on the same host:
# check_uniformly_bounded 1.27x at n = 64 (16.6 -> 13.1 ms) and 1.26x at
# n = 128 (81.8 -> 64.7 ms), invariant_metric 1.18x (16.8 -> 14.2 ms) and
# 1.13x (83.0 -> 73.7 ms).
GIL_HELD_MAX_OUTPUT = 500

VERDICT_BOUNDED = "uniformly_bounded"
VERDICT_NOT_BOUNDED = "not_bounded"
VERDICT_SELF_ADJOINT_LIKE = "similar_to_self_adjoint"
VERDICT_NOT_SELF_ADJOINT_LIKE = "not_similar_to_self_adjoint"
VERDICT_ALREADY_UNITARY = "already_unitary"
VERDICT_NORMAL_NOT_UNITARY = "not_similar_to_unitary"
VERDICT_NOT_NORMAL = "not_normal"


@dataclass(eq=False)
class BoundednessReport:
    """Outcome of the power-orbit decision for one operator.

    off_circle lists eigenvalues whose modulus leaves the unit circle beyond
    tolerance; defective lists unimodular eigenvalues (one representative per
    cluster) whose cluster fails the geometric multiplicity test.  The bound
    estimate is the condition number of the eigenvector matrix when the
    verdict is positive, and None otherwise.  decomposition is the one
    eigendecomposition the verdict was read from; the constructions that
    need a bounded operator's spectral data take it from here (through
    bounded) rather than decomposing the operator again.
    sampled_power_norms maps k in [-32, 32] to ||T^k||; each negative power
    is 1 / sigma_min(T^k) while T^k passes the conditioning guard
    RECIPROCAL_RTOL and the norm of the formed T^-k otherwise, within
    1.2e-11 relative for T = S^-1 D S with cond(S) <= 100 (see
    sampled_power_norms).
    """

    verdict: str
    off_circle: tuple[complex, ...]
    defective: tuple[complex, ...]
    sampled_power_norms: dict[int, float]
    bound_estimate: float | None
    decomposition: EigenDecomposition

    @property
    def bounded(self) -> bool:
        return self.verdict == VERDICT_BOUNDED

    @property
    def reasons(self) -> tuple[str, ...]:
        out = [f"eigenvalue {lam:.12g} has modulus {abs(lam):.12g}, off the unit circle"
               for lam in self.off_circle]
        out += [f"unimodular eigenvalue {lam:.12g} is defective" for lam in self.defective]
        return tuple(out or ["diagonalizable with unimodular spectrum"])


def _power_stack_size(n: int, k_range: int) -> int:
    """How many powers of an n x n operator one SVD call decomposes: the
    fewest whose singular values number more than GIL_HELD_MAX_OUTPUT, at
    most the k_range - 1 powers after the first, and at least one."""
    return max(1, min(k_range - 1, GIL_HELD_MAX_OUTPUT // n + 1))


class _PowerStacks:
    """The powers T^2 .. T^k_range in stacks of _power_stack_size, shared by
    every thread that calls run().  Each claim takes the next stack and
    forms its powers from the running product while holding the lock, so
    every T^k is the same left-to-right product as T^(k-1) @ T whichever
    thread forms it; the stack's values-only SVD then runs with the lock
    released.  results() yields the singular values in order of k once
    every claimed stack is finished."""

    def __init__(self, T: np.ndarray, k_range: int):
        self._T = self._fwd = T
        self._k_range = k_range
        self._b = _power_stack_size(T.shape[0], k_range)
        self._values = [None] * len(range(2, k_range + 1, self._b))
        self._claimed = self._finished = 0
        self._error = None
        self._cond = threading.Condition()

    def run(self) -> None:
        """Claim and decompose stacks until none is left or one has failed;
        a failure of this thread's stack is raised here."""
        T, b = self._T, self._b
        # T^k goes to slot (k - 2) % len(slots) of this thread's ring rather
        # than a fresh array per power: on the worker thread, whose allocator
        # keeps what it frees, that holds peak RSS lower.  A second slot keeps
        # a stack of one from reading and writing the same buffer; the power
        # a claim reads sits in a slot of the other parity, or in another
        # thread's ring, which is only written under the lock.
        slots = np.empty((max(b, 2),) + T.shape, dtype=T.dtype)
        while True:
            i = None
            try:
                with self._cond:
                    if self._error is not None or self._claimed == len(self._values):
                        return
                    i = self._claimed
                    self._claimed += 1
                    start = 2 + i * b
                    first = (start - 2) % len(slots)
                    stack = slots[first:first + min(b, self._k_range + 1 - start)]
                    for power in stack:
                        self._fwd = np.matmul(self._fwd, T, out=power)
                values = np.linalg.svd(stack, compute_uv=False)
            except BaseException as exc:
                if i is not None:
                    self._finish(i, exc)
                raise
            self._finish(i, values)

    def _finish(self, i: int, outcome) -> None:
        with self._cond:
            if isinstance(outcome, BaseException):
                self._error = self._error or outcome
            else:
                self._values[i] = outcome
            self._finished += 1
            self._cond.notify_all()

    def results(self):
        """(k, singular values of T^k) for k = 2 .. k_range, once every
        claimed stack is finished; call after run(), so that none is left
        unclaimed.  A stack that failed on another thread raises here."""
        with self._cond:
            self._cond.wait_for(lambda: self._finished == self._claimed)
            if self._error is not None:
                raise RuntimeError("a power stack failed on another thread") from self._error
        for i, values in enumerate(self._values):
            yield from enumerate(values, 2 + i * self._b)


def sampled_power_norms(
    T, k_range: int = POWER_SAMPLE_RANGE, singular_values=None, _stacks=None
) -> dict[int, float]:
    """Spectral norms of T^k for k in [-k_range, k_range].

    One SVD of T^k serves both signs: ||T^k|| = sigma_max(T^k), and since
    the singular values of an inverse are the reciprocals of those of the
    matrix, ||T^-k|| = 1 / sigma_min(T^k).  The reciprocal is taken only
    while sigma_min(T^k) >= RECIPROCAL_RTOL * sigma_max(T^k); for any other
    k the norm comes from an SVD of T^-k, the running product of inv(T),
    which is built only when such a k comes up.  The k = 1 SVD is the
    singularity test's; the powers from k = 2 on are decomposed in stacks
    of _power_stack_size (4 at n = 128, one from n = 501 on), so a
    well-conditioned orbit costs 1 + ceil((k_range - 1) / b) SVD calls over
    k_range matrices, and no inverse.  A caller that has validated T
    (as_operator) and run that test passes the singular values it returned
    as singular_values; T is then read as given, neither copied nor
    decomposed again.  check_uniformly_bounded also passes _stacks, the
    stacks of T it shares with the calling thread, which takes the ones
    this call has not reached (see the module docstring); the powers that
    fail the guard are formed once every stack is decomposed.

    Positive-k norms, and negative-k norms that fail the guard, equal the
    spectral norms of the repeated products exactly.  Against a 100-digit
    reference, on T = S^-1 D S with D diagonal or a Jordan block, the worst
    relative error was 1.2e-11 for cond(S) <= 100 and 2.4e-9 at cond(S) =
    1e3 (see RECIPROCAL_RTOL).

    Raises InvalidInput for a non-square or non-finite T or a negative or
    non-integer k_range, and NotAutomorphism for a numerically singular T.
    """
    if not core._is_integer(k_range, minimum=0):
        raise InvalidInput(f"k_range must be a non-negative integer, got {core._shown(k_range)}")
    sv = singular_values
    if sv is None:
        T = as_operator(T)
        sv = require_nonsingular(T, NotAutomorphism, "operator is numerically singular")
    if k_range == 0:
        return {0: 1.0}
    stacks = _PowerStacks(T, k_range) if _stacks is None else _stacks
    stacks.run()
    norms = {0: 1.0}
    bwd = None  # T^-built, from the first k that fails the guard on
    built = 0
    for k, sv in itertools.chain([(1, sv)], stacks.results()):
        norms[k] = float(sv[0])
        if sv[-1] >= RECIPROCAL_RTOL * sv[0]:
            norms[-k] = float(1.0 / sv[-1])
            continue
        if bwd is None:
            Tinv = bwd = np.linalg.inv(T)
            built = 1
        for _ in range(built, k):
            bwd = bwd @ Tinv
        built = k
        norms[-k] = spectral_norm(bwd)
    return norms


def _screen(dec: EigenDecomposition, distance: np.ndarray):
    """Both decisions' screen: the eigenvalues whose distance to their set (the
    unit circle, or the real axis) exceeds dec.band, and the means of the
    clusters that fail the rank test, as two tuples of complex numbers."""
    means = dec.cluster_means()
    return (tuple(map(complex, dec.eigenvalues[distance > dec.band])),
            tuple(complex(means[c]) for c in dec.defective_clusters))


def check_uniformly_bounded(
    operator, cfg: ToleranceConfig | None = None, *, _pending: list | None = None
) -> BoundednessReport:
    """Decide sup_k ||T^k|| < infinity over all integer powers k.

    The power norms run on the worker thread while this thread runs eig
    from n = 17 on when core._overlaps holds, and this thread then
    decomposes the stacks of powers the worker has not reached; otherwise
    they run after the verdict (see the module docstring).  The report is
    bitwise the same either way.  bounded passes _pending, a list: the
    report then comes back with no power norms, and a call that reads them
    goes on the list for bounded to make when its block ends.

    Raises NotAutomorphism for numerically singular input.
    """
    T = as_operator(operator)
    sv = require_nonsingular(T, NotAutomorphism, "operator is numerically singular")
    # The norms go to the worker when one stack of their SVDs runs without
    # the GIL (n >= 17; see GIL_HELD_MAX_OUTPUT).  sampled_power_norms and eig
    # are read from the module at call time, so a wrapper put in their place
    # (a tracer, a test) sees both calls.
    n = T.shape[0]
    releases_gil = n * _power_stack_size(n, POWER_SAMPLE_RANGE) > GIL_HELD_MAX_OUTPUT
    submit = core._overlap_submit(releases_gil)
    stacks = _PowerStacks(T, POWER_SAMPLE_RANGE)
    powers = submit(sampled_power_norms, T, POWER_SAMPLE_RANGE, sv, stacks)
    try:
        dec = eig(T, cfg, float(sv[0]))
        off, defective = _screen(dec, np.abs(np.abs(dec.eigenvalues) - 1.0))
        # the report names the unimodular defective clusters alone
        defective = tuple(z for z in defective if abs(abs(z) - 1.0) <= dec.band)
        ok = not off and not defective
        bound = None
        if ok:
            # cond(P), from the SVD of P that dec.inverse's singularity test
            # reads too
            p_sv = dec.eigenvector_singular_values
            bound = float(p_sv[0] / p_sv[-1])
    except BaseException:
        # No decision leaves work queued on the worker.
        _read_norms(powers, stacks)
        raise
    if _pending is None:
        norms = _read_norms(powers, stacks)
    else:
        _pending.append(functools.partial(_read_norms, powers, stacks))
        norms = {}
    return BoundednessReport(
        verdict=VERDICT_BOUNDED if ok else VERDICT_NOT_BOUNDED,
        off_circle=off,
        defective=defective,
        sampled_power_norms=norms,
        bound_estimate=bound,
        decomposition=dec,
    )


def _read_norms(powers, stacks: _PowerStacks) -> dict[int, float]:
    """The norms of a decision's powers.  When the worker runs them, this
    thread first decomposes the stacks the worker has not reached; a stack
    that fails on either thread is raised here once the worker is done."""
    if isinstance(powers, core._Task):
        try:
            stacks.run()
        except BaseException:
            powers.wait()
            raise
    return powers.result()


@contextlib.contextmanager
def bounded(operator, cfg: ToleranceConfig | None = None, label: str = ""):
    """``with bounded(T, cfg, "t1: ") as dec:`` decides T and binds dec, the
    decomposition its verdict was read from.

    The block runs on the calling thread before the decision's power norms
    are read, so on the overlapped path it runs while the worker runs their
    stacks; when the block ends, also when it raises, this thread
    decomposes the stacks the worker has not reached and then reads the
    norms, so no block leaves work on the worker.  When the power orbit is
    unbounded the norms are read the same way first and then
    NotUniformlyBounded is raised with the reasons, prefixed by label, and
    the block does not run.
    """
    pending = []
    report = check_uniformly_bounded(operator, cfg, _pending=pending)
    if not report.bounded:
        pending[0]()
        raise NotUniformlyBounded(label + "; ".join(report.reasons))
    try:
        yield report.decomposition
    finally:
        pending[0]()


@dataclass(eq=False)
class GeneratorReport:
    """Outcome of the bounded-flow decision for a would-be Hamiltonian, with
    the one eigendecomposition the verdict was read from (which
    require_self_adjoint_like hands on)."""

    verdict: str
    off_real: tuple[complex, ...]
    defective: tuple[complex, ...]
    decomposition: EigenDecomposition

    @property
    def spectrum(self) -> np.ndarray:
        return self.decomposition.eigenvalues

    @property
    def similar_to_self_adjoint(self) -> bool:
        return self.verdict == VERDICT_SELF_ADJOINT_LIKE


def check_generator(operator, cfg: ToleranceConfig | None = None) -> GeneratorReport:
    """Decide whether H is similar to a self-adjoint operator.

    Equivalent to H being diagonalizable with real spectrum, and to the
    boundedness of e^{itH} over all real t.
    """
    dec = eig(operator, cfg)
    off_real, defective = _screen(dec, np.abs(dec.eigenvalues.imag))
    ok = not off_real and not defective
    return GeneratorReport(
        verdict=VERDICT_SELF_ADJOINT_LIKE if ok else VERDICT_NOT_SELF_ADJOINT_LIKE,
        off_real=off_real,
        defective=defective,
        decomposition=dec,
    )


def require_self_adjoint_like(
    operator, cfg: ToleranceConfig | None = None, label: str = ""
) -> EigenDecomposition:
    """Decomposition of a generator similar to a self-adjoint operator, taken
    from its decision; raises NotBoundedFlow with the off-real and defective
    eigenvalues, prefixed by label, for any other generator."""
    report = check_generator(operator, cfg)
    if not report.similar_to_self_adjoint:
        raise NotBoundedFlow(label + "; ".join(
            [f"eigenvalue {z:.12g} is off the real axis" for z in report.off_real]
            + [f"eigenvalue {z:.12g} is defective" for z in report.defective]))
    return report.decomposition


@dataclass(eq=False)
class NormalityReport:
    """Trichotomy for normal input: already unitary, or never similar to one.
    The residuals are relative changes (core.relative_change) of T T* against
    T* T and of T* T against the identity."""

    verdict: str
    commutator_residual: float
    unitarity_residual: float


def check_normal_dichotomy(
    operator, cfg: ToleranceConfig | None = None
) -> NormalityReport:
    """For normal operators, similarity to unitary collapses to being unitary.

    Returns already_unitary when T*T = I within tolerance, or
    not_similar_to_unitary for normal T with spectrum off the circle.
    Non-normal input gets the verdict not_normal, with no claim either way.
    Both residuals read products of T alone, so the test takes no SVD.
    """
    cfg = cfg or DEFAULT_TOLERANCES
    T = as_operator(operator)
    TsT = T.conj().T @ T
    c_res = relative_change(T @ T.conj().T, TsT)
    u_res = relative_change(TsT, np.eye(T.shape[0]))
    if c_res > cfg.unitarity_tol:
        verdict = VERDICT_NOT_NORMAL
    elif u_res <= cfg.unitarity_tol:
        verdict = VERDICT_ALREADY_UNITARY
    else:
        verdict = VERDICT_NORMAL_NOT_UNITARY
    return NormalityReport(
        verdict=verdict, commutator_residual=c_res, unitarity_residual=u_res
    )

