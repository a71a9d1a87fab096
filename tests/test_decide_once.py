"""Each operator is decided and decomposed once per call, its eigenbasis is
inverted once per decomposition, a closed-form unitarization hands its
decomposition on, each Cesaro answer takes one double-and-add pass over the
powers of its operators, each form is square-rooted at most once and no
root meets an SVD, and every entry point that takes a fiducial form or a
horizon validates it through one guard."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import unitarize as u
from unitarize.cli import main
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    hermitian_fixture,
    invertible_with_condition,
    positive_definite_fixture,
    real_spectrum_fixture,
    unimodular_phases,
)

N = 4


@pytest.fixture
def ops(rng):
    """Bounded, multiplicity-free operators of dimension N and their kin."""
    phases = unimodular_phases(rng, N, min_gap=0.2)
    t, _, _ = conjugated_unitary(rng, N, 10.0, phases)
    t2, _, _ = conjugated_unitary(rng, N, 10.0, phases)
    a, b = commuting_conjugated_pair(rng, N, 10.0)
    s = invertible_with_condition(rng, N, 10.0)
    weyl = [np.linalg.solve(s, m @ s) for m in u.make_clock_shift(N)]
    return SimpleNamespace(
        t=t, t2=t2, a=a, b=b, weyl=weyl,
        g=positive_definite_fixture(rng, N, 10.0),
        g2=positive_definite_fixture(rng, N, 4.0),
        flow=1j * hermitian_fixture(rng, N),
    )


# entry point, expected np.linalg.eig calls, call
EIG_COUNTS = [
    ("invariant_metric", 1, lambda o: u.invariant_metric(o.t, o.g)),
    ("scaled_metric", 1,
     lambda o: u.scaled_metric(o.t, u.ScalingSpec({c: 1.0 + c for c in range(N)}))),
    ("commutant_positive_basis", 1, lambda o: u.commutant_positive_basis(o.t, o.g)),
    ("metric_dependence", 1, lambda o: u.metric_dependence(o.t, o.g, o.g2)),
    ("intertwiner", 2, lambda o: u.intertwiner(o.t, o.t2, o.g)),
    ("intertwiner_scaled", 2, lambda o: u.intertwiner_scaled(o.t, o.t2, 1.0)),
    ("commuting_pair_metric", 2, lambda o: u.commuting_pair_metric(o.a, o.b)),
    # the Weyl triple's centre is a scalar, which takes no eig
    ("heisenberg_metric", 2, lambda o: u.heisenberg_metric(*o.weyl)),
    ("check_generator", 1, lambda o: u.check_generator(-1j * o.flow)),
    ("generator_metric", 1, lambda o: u.generator_metric(-1j * o.flow)),
    ("flow_invariant_metric", 1, lambda o: u.flow_invariant_metric(o.flow, o.g)),
    ("unitary_log", 1, lambda o: u.unitary_log(u.invariant_metric(o.t))),
    ("phi_metric", 1,
     lambda o: u.phi_metric(u.invariant_metric(o.t), lambda theta: 1.0 + theta)),
]


def _count_eig(monkeypatch) -> list[tuple]:
    """The shapes of the np.linalg.eig calls made from now on."""
    calls = []
    real_eig = np.linalg.eig

    def counting_eig(a):
        calls.append(a.shape)
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    return calls


@pytest.mark.parametrize("expected, call", [c[1:] for c in EIG_COUNTS],
                         ids=[c[0] for c in EIG_COUNTS])
def test_lapack_eig_calls_per_entry_point(ops, monkeypatch, expected, call):
    calls = _count_eig(monkeypatch)
    call(ops)
    assert len(calls) == expected


PAIR = ["pair", "--t1", "a.json", "--t2", "b.json"]

# subcommand arguments, expected np.linalg.eig calls: log's second is the
# independent reconstruction check on the generator; the shortcut reads the
# pair's decision of t1; example reads its spectrum off the decomposition its
# invariant metric carries
CLI_EIG_COUNTS = [
    ("log", ["log", "--in", "t.json"], 2),
    ("altmetric_phi", ["altmetric", "--in", "t.json", "--phi", "phi.json"], 1),
    ("pair", PAIR, 2),
    ("pair_shortcut", PAIR + ["--shortcut"], 2),
    ("example", ["example", "--random", "shift"], 1),
]


@pytest.fixture
def cli_inputs(ops, tmp_path, monkeypatch):
    """The working directory holds t.json, phi.json and the pair a.json, b.json."""
    monkeypatch.chdir(tmp_path)
    for name, m in (("t", ops.t), ("a", ops.a), ("b", ops.b)):
        (tmp_path / f"{name}.json").write_text(json.dumps(u.serialization.matrix_payload(m)))
    (tmp_path / "phi.json").write_text("2.0")


@pytest.mark.parametrize("argv, expected", [c[1:] for c in CLI_EIG_COUNTS],
                         ids=[c[0] for c in CLI_EIG_COUNTS])
def test_lapack_eig_calls_per_subcommand(cli_inputs, monkeypatch, argv, expected):
    calls = _count_eig(monkeypatch)
    assert main(argv) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("argv", [PAIR, PAIR + ["--shortcut"]], ids=["pair", "pair_shortcut"])
def test_pair_svd_and_eigh_calls(cli_inputs, monkeypatch, argv):
    """Per operator decided, three direct SVDs (the singularity test, one
    stack of power norms, cond(P)), and one eigh per stage form rooted: the
    shortcut adds none."""
    calls = []
    for name in ("svd", "eigh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _n=name, _f=real, **kw: calls.append(_n) or _f(*a, **kw))
    assert main(argv) == 0
    assert (calls.count("svd"), calls.count("eigh")) == (6, 2)


# entry point, expected inversions of an eigenvector matrix, call; at most
# one per decomposition the call takes (intertwiner_scaled reads t2's alone)
INVERSION_COUNTS = [
    ("invariant_metric", 1, lambda o: u.invariant_metric(o.t, o.g)),
    ("scaled_metric", 1,
     lambda o: u.scaled_metric(o.t, u.ScalingSpec({c: 1.0 + c for c in range(N)}))),
    ("commutant_positive_basis", 1, lambda o: u.commutant_positive_basis(o.t, o.g)),
    ("metric_dependence", 1, lambda o: u.metric_dependence(o.t, o.g, o.g2)),
    ("unitary_log", 1, lambda o: u.unitary_log(u.invariant_metric(o.t))),
    ("phi_metric", 1,
     lambda o: u.phi_metric(u.invariant_metric(o.t), lambda theta: 1.0 + theta)),
    ("flow_invariant_metric", 1, lambda o: u.flow_invariant_metric(o.flow, o.g)),
    ("schrodinger_states", 1, lambda o: u.schrodinger_states(o.energy, np.ones(N), [0.0, 1.0])),
    ("intertwiner", 2, lambda o: u.intertwiner(o.t, o.t2, o.g)),
    ("intertwiner_scaled", 1, lambda o: u.intertwiner_scaled(o.t, o.t2, 1.0)),
    ("commuting_pair_metric", 2, lambda o: u.commuting_pair_metric(o.a, o.b)),
    # the Weyl triple's centre is a scalar, which is not averaged over
    ("heisenberg_metric", 2, lambda o: u.heisenberg_metric(*o.weyl)),
]


@pytest.mark.parametrize("expected, call", [c[1:] for c in INVERSION_COUNTS],
                         ids=[c[0] for c in INVERSION_COUNTS])
def test_eigenvector_inversions_per_entry_point(ops, monkeypatch, expected, call):
    ops.energy = u.QuadraticObservable(hermitian_fixture(np.random.default_rng(3), N),
                                       u.HermitianForm.identity(N))
    calls = []
    real_invert = u.core.invert

    def counting_invert(a, label="operator", singular_values=None):
        if "eigenvector matrix" in label:
            calls.append(label)
        return real_invert(a, label, singular_values)

    for module in (u.core, u.metrics, u.alternatives, u.intertwine, u.hamiltonian):
        if hasattr(module, "invert"):
            monkeypatch.setattr(module, "invert", counting_invert)
    call(ops)
    assert len(calls) == expected


# the readers of a closed-form unitarization's decomposition
DECOMPOSITION_READERS = [
    ("unitary_log", lambda r: u.unitary_log(r)),
    ("phi_metric", lambda r: u.phi_metric(r, lambda theta: 1.0 + theta)),
]


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("read", [c[1] for c in DECOMPOSITION_READERS],
                         ids=[c[0] for c in DECOMPOSITION_READERS])
@pytest.mark.parametrize("build", [
    lambda o: u.cesaro_unitarization(o.t, o.g, 64),
    lambda o: u.flow_invariant_metric(o.flow, o.g),
], ids=["cesaro", "flow"])
def test_readers_refuse_a_unitarization_without_decomposition(ops, build, read):
    result = build(ops)
    assert result.decomposition is None
    with pytest.raises(u.InvalidInput, match="carries no eigendecomposition"):
        read(result)


@pytest.fixture
def degenerate(rng):
    """Two bounded operators with a doubly degenerate eigenvalue, sharing
    two of their three distinct eigenvalues, and their decompositions."""
    phases = np.array([0.5, 0.5, 2.0, 4.0])
    t1, _, _ = conjugated_unitary(rng, N, 10.0, phases)
    t2, _, _ = conjugated_unitary(rng, N, 10.0, np.array([0.5, 2.0, 2.0, 5.0]))
    return (u.check_uniformly_bounded(t1).decomposition,
            u.check_uniformly_bounded(t2).decomposition)


def test_inverse_is_computed_once_and_read_only(degenerate, monkeypatch):
    dec, _ = degenerate
    calls = []
    real_invert = u.core.invert
    monkeypatch.setattr(u.core, "invert",
                        lambda a, label, sv: calls.append(label) or real_invert(a, label, sv))
    first = dec.inverse
    assert dec.inverse is first and calls == ["eigenvector matrix"]
    assert np.array_equal(first, real_invert(dec.eigenvectors))
    assert not first.flags.writeable


def test_spectral_function_is_the_explicit_formula(degenerate):
    dec, _ = degenerate
    assert len(dec.clusters) == 3
    values = [0.5, 2.0, 7.0]
    v = np.array([values[c] for c in dec.labels])
    P = dec.eigenvectors
    want = P @ (v[:, None] * u.core.invert(P))
    assert np.array_equal(dec.spectral_function(values), want)


def test_projected_gram_is_the_explicit_formula(degenerate, rng):
    dec, _ = degenerate
    K = positive_definite_fixture(rng, N, 10.0)
    P = dec.eigenvectors
    M = np.where(dec.same_cluster_mask(), P.conj().T @ K @ P, 0.0)
    want = u.core.invert(P).conj().T @ M @ u.core.invert(P)
    assert np.array_equal(u.metrics.projected_gram(dec, K), want)


# numpy.linalg entry points that cost one SVD per matrix, and when: norm and
# cond reach svd through numpy's module globals, so they are counted at the
# call, as the benchmark's tracer does.
SVD_FAMILY = {
    "svd": lambda *a, **kw: True,
    "norm": lambda x, ord=None, axis=None, keepdims=False: (
        axis is None and np.ndim(x) == 2 and ord in (2, -2)
    ),
    "cond": lambda x, p=None: p in (None, 2, -2),
    "matrix_rank": lambda *a, **kw: True,
}


def _count_svd_family(monkeypatch) -> list[str]:
    """The names of the SVD_FAMILY and inv calls made from now on, once per
    matrix decomposed: a call on a stack of matrices counts its leading
    dimension."""
    calls = []

    def counting(name, fn, applies):
        def wrapper(*args, **kwargs):
            if applies(*args, **kwargs):
                a = np.asarray(args[0])
                calls.extend([name] * (a.shape[0] if a.ndim == 3 else 1))
            return fn(*args, **kwargs)
        return wrapper

    for name, applies in SVD_FAMILY.items():
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name), applies))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv, lambda *a: True))
    return calls


def test_boundedness_check_svd_calls(ops, monkeypatch):
    """32 power SVDs, the k = 1 one also the singularity test and eig's
    spectral norm, and one of the eigenvector matrix for the bound's
    cond(P), which the inverse eigenbasis's singularity test reads too; a
    well-conditioned orbit never forms inv(T)."""
    calls = _count_svd_family(monkeypatch)
    report = u.check_uniformly_bounded(ops.t)
    assert report.bounded and len(report.decomposition.clusters) == N
    assert calls.count("inv") == 0
    assert len(calls) == 33
    assert calls.count("svd") == 33
    report.decomposition.inverse
    assert calls.count("inv") == 1 and len(calls) == 34


# entry point, its operators, the calls it adds to their decisions, call
LAPACK_EXTRAS = [
    ("intertwiner", lambda o: (o.t, o.t2), ["matrix_rank"],
     lambda o: u.intertwiner(o.t, o.t2, o.g)),
    ("commutant_positive_basis", lambda o: (o.t,), [],
     lambda o: u.commutant_positive_basis(o.t, o.g)),
    # the metric's own validation stands where h0's is counted
    ("scaled_metric", lambda o: (o.t,), [],
     lambda o: u.scaled_metric(o.t, u.ScalingSpec({c: 1.0 + c for c in range(N)}))),
]


@pytest.mark.parametrize("operators, extra, call", [c[1:] for c in LAPACK_EXTRAS],
                         ids=[c[0] for c in LAPACK_EXTRAS])
def test_block_constructions_add_no_svd_inv_or_eigvalsh(ops, monkeypatch, operators, extra,
                                                       call):
    """The SVD-family, inv and eigvalsh calls of each operator's decision and
    inverse eigenbasis and of h0's validation, plus only the reported rank's
    SVD: the connecting map validates no averaged form and inverts no
    adjoint, the commutant basis inverts no cluster block, and a scaled
    metric validates no scalar weight's block."""
    calls = _count_svd_family(monkeypatch)
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **kw: calls.append("eigvalsh") or real_eigvalsh(*a, **kw))
    u.HermitianForm(ops.g)
    for t in operators(ops):
        u.check_uniformly_bounded(t).decomposition.inverse
    want = sorted(calls + extra)
    calls.clear()
    call(ops)
    assert sorted(calls) == want


def test_generator_metric_svd_calls(rng, monkeypatch):
    """eig's spectral norm, the inverse eigenbasis's singularity test and
    the Cayley shift's: the image is mapped, not decided."""
    H = real_spectrum_fixture(rng, 8, 10.0)
    calls = _count_svd_family(monkeypatch)
    u.generator_metric(H)
    assert len([c for c in calls if c != "inv"]) <= 3


def test_generator_report_carries_the_decomposition_it_decided_on(ops):
    report = u.check_generator(-1j * ops.flow)
    dec = report.decomposition
    assert report.similar_to_self_adjoint and dec.diagonalizable
    assert report.spectrum is dec.eigenvalues
    assert u.boundedness.require_self_adjoint_like(-1j * ops.flow).diagonalizable


def test_report_carries_the_decomposition_it_decided_on(ops):
    report = u.check_uniformly_bounded(ops.t)
    dec = report.decomposition
    assert report.bounded and dec.diagonalizable
    assert report.bound_estimate == float(np.linalg.cond(dec.eigenvectors))
    assert np.all(np.abs(np.abs(dec.eigenvalues) - 1.0) <= 1e-9)


def test_bounded_labels_the_reasons():
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(u.NotUniformlyBounded, match=r"^t1: unimodular eigenvalue"):
        with u.boundedness.bounded(jordan, label="t1: "):
            pytest.fail("the block ran for an unbounded operator")


# Every public entry point taking a fiducial form, called with operators of
# dimension N and a form of dimension N - 1.
WRONG_H0 = [
    ("invariant_metric", lambda o, h: u.invariant_metric(o.t, h)),
    ("cesaro_oracle", lambda o, h: u.cesaro_oracle(o.t, h, 64)),
    ("cesaro_unitarization", lambda o, h: u.cesaro_unitarization(o.t, h, 64)),
    ("flow_invariant_metric", lambda o, h: u.flow_invariant_metric(o.flow, h)),
    ("intertwiner", lambda o, h: u.intertwiner(o.t, o.t2, h)),
    ("intertwiner_scaled", lambda o, h: u.intertwiner_scaled(o.t, o.t2, 1.0, h)),
    ("mixed_cesaro", lambda o, h: u.mixed_cesaro(o.t, o.t2, h, 64)),
    ("commuting_pair_metric", lambda o, h: u.commuting_pair_metric(o.a, o.b, h)),
    ("heisenberg_metric", lambda o, h: u.heisenberg_metric(*o.weyl, h)),
    ("commutant_positive_basis", lambda o, h: u.commutant_positive_basis(o.t, h)),
    ("metric_dependence h0", lambda o, h: u.metric_dependence(o.t, h, o.g)),
    ("metric_dependence h0_prime", lambda o, h: u.metric_dependence(o.t, o.g, h)),
]


@pytest.mark.parametrize("call", [c[1] for c in WRONG_H0], ids=[c[0] for c in WRONG_H0])
@pytest.mark.parametrize("as_form", [False, True], ids=["gram", "form"])
def test_wrong_size_fiducial_form_is_invalid_input(ops, call, as_form):
    h0 = np.eye(N - 1, dtype=complex)
    if as_form:
        h0 = u.HermitianForm(h0)
    with pytest.raises(u.InvalidInput):
        call(ops, h0)


# Every public entry point taking a Cesaro horizon, called with horizon h.
BAD_HORIZON = [
    ("cesaro_oracle", lambda o, h: u.cesaro_oracle(o.t, o.g, h)),
    ("cesaro_unitarization", lambda o, h: u.cesaro_unitarization(o.t, o.g, h)),
    ("mixed_cesaro", lambda o, h: u.mixed_cesaro(o.t, o.t2, o.g, h)),
    ("mixed_pullback_mean", lambda o, h: u.mixed_pullback_mean(o.t, o.g, o.t2, h)),
]


@pytest.mark.parametrize("call", [c[1] for c in BAD_HORIZON], ids=[c[0] for c in BAD_HORIZON])
@pytest.mark.parametrize("horizon", [0, -1])
def test_non_positive_horizon_is_invalid_input(ops, call, horizon):
    with pytest.raises(u.InvalidInput, match="^the horizon must be a positive integer$"):
        call(ops, horizon)


# entry point, expected double-and-add passes, call
PASS_COUNTS = [
    ("cesaro_oracle", 1, lambda o: u.cesaro_oracle(o.t, o.g, 4096)),
    ("mixed_cesaro", 1, lambda o: u.mixed_cesaro(o.t, o.t2, o.g, 4096)),
    ("metric_dependence", 1, lambda o: u.metric_dependence(o.t, o.g, o.g2)),
]


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("expected, call", [c[1:] for c in PASS_COUNTS],
                         ids=[c[0] for c in PASS_COUNTS])
def test_double_and_add_passes_per_entry_point(ops, monkeypatch, expected, call):
    calls = []
    real_pass = u.metrics._double_and_add

    def counting_pass(*args):
        calls.append(args)
        return real_pass(*args)

    for module in (u.metrics, u.alternatives):
        monkeypatch.setattr(module, "_double_and_add", counting_pass)
    call(ops)
    assert len(calls) == expected


# entry point, expected n x n matrix products at horizon 2^20, call
MATMUL_COUNTS = [
    ("cesaro_oracle", 59, lambda o: u.cesaro_oracle(o.t, None, 1 << 20)),
    ("mixed_pullback_mean_shared", 59,
     lambda o: u.mixed_pullback_mean(o.t, o.g, o.t, 1 << 20)),
    ("mixed_cesaro", 78, lambda o: u.mixed_cesaro(o.t, o.t2, None, 1 << 20)),
    ("mixed_cesaro_shared", 59, lambda o: u.mixed_cesaro(o.t, o.t, None, 1 << 20)),
]


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("expected, call", [c[1:] for c in MATMUL_COUNTS],
                         ids=[c[0] for c in MATMUL_COUNTS])
def test_double_and_add_matmuls(ops, monkeypatch, expected, call):
    """3 log2 N products with one shared operator, 4 log2 N with two, less
    the powers no later step reads."""
    products = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            inputs = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            out = getattr(ufunc, method)(*inputs, **kwargs)
            return out.view(Counting) if isinstance(out, np.ndarray) else out

    real_as_operator = u.metrics.as_operator
    monkeypatch.setattr(u.metrics, "as_operator", lambda a: real_as_operator(a).view(Counting))
    call(ops)
    assert len(products) == expected


def _metric_dependence_via_unitarizations(T, g0, g0_prime):
    """metric_dependence's C, R and A with the two limit Gram matrices read
    off full closed-form unitarizations and one double-and-add pass per
    kernel, as the construction first did."""
    T = u.core.as_operator(T)
    h0, h0p = (u.core.resolve_fiducial(g, T.shape[0]) for g in (g0, g0_prime))
    dec = u.check_uniformly_bounded(T).decomposition
    m = u.metrics
    G, Gp = (np.asarray(m._unitarization(T, m._averaged_form(dec, h), h, m.METHOD_SPECTRAL)
                        .invariant_form.gram) for h in (h0, h0p))
    G0, G0p = np.asarray(h0.gram), np.asarray(h0p.gram)
    C = np.linalg.solve(G0p, G0)
    N = u.alternatives.DEPENDENCE_HORIZON
    (twisted,), _ = u.metrics._double_and_add(T, [C.conj().T @ G0p], T, N)
    (plain,), _ = u.metrics._double_and_add(T, [G0p], T, N)
    A = np.linalg.solve(Gp, (twisted / N - C.conj().T @ (plain / N)).conj().T)
    return C, np.linalg.solve(Gp, G), A


# entry points that read only the averaged form of each operator
SQRT_FREE = [
    ("intertwiner", lambda o: u.intertwiner(o.t, o.t2, o.g)),
    ("intertwiner_scaled", lambda o: u.intertwiner_scaled(o.t, o.t2, 1.0, o.g)),
    ("generator_metric", lambda o: u.generator_metric(-1j * o.flow)),
]


@pytest.mark.parametrize("call", [c[1] for c in SQRT_FREE], ids=[c[0] for c in SQRT_FREE])
def test_form_readers_take_no_square_root(ops, monkeypatch, call):
    def no_sqrt(g):
        raise AssertionError("psd_sqrt called")

    monkeypatch.setattr(u.core, "psd_sqrt", no_sqrt)
    call(ops)


def test_weighted_connector_builds_no_averaged_form(ops, monkeypatch):
    """intertwiner_scaled reads the h0-lengths of the eigenvectors off
    diag(P* G0 P), so once the given fiducial form is validated no form is
    (no eigvalsh)."""
    h0 = u.HermitianForm(ops.g)
    calls = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **kw: calls.append(a) or real_eigvalsh(*a, **kw))
    u.intertwiner_scaled(ops.t, ops.t2, 1.0, h0)
    assert calls == []


def test_metric_dependence_forms_no_square_root(ops, monkeypatch):
    """The limit Gram matrices come from projected_gram alone: no positive
    square root (a full unitarization takes two per non-identity form), and
    the same bits as reading them off the unitarizations."""
    calls = []
    real_sqrt = u.core.psd_sqrt

    def counting_sqrt(g):
        calls.append(g.shape)
        return real_sqrt(g)

    monkeypatch.setattr(u.core, "psd_sqrt", counting_sqrt)
    dep = u.metric_dependence(ops.t, ops.g, ops.g2)
    assert calls == []
    monkeypatch.undo()
    C, R, A = _metric_dependence_via_unitarizations(ops.t, ops.g, ops.g2)
    assert np.array_equal(dep.fiducial_change, C)
    assert np.array_equal(dep.invariant_change, R)
    assert np.array_equal(dep.averaging_defect, A)


# entry point, expected positive square roots, call: one per form that is
# rooted, and no form rooted twice
SQRT_COUNTS = [
    ("invariant_metric", 1, lambda o: u.invariant_metric(o.t)),
    ("invariant_metric_h0", 2, lambda o: u.invariant_metric(o.t, o.g)),
    ("flow_invariant_metric_h0", 2, lambda o: u.flow_invariant_metric(o.flow, o.g)),
    ("cesaro_unitarization", 1, lambda o: u.cesaro_unitarization(o.t, None, 64)),
    ("commuting_pair_metric", 2, lambda o: u.commuting_pair_metric(o.a, o.b)),
    # the Weyl triple's centre is a scalar, whose stage keeps the form it was handed
    ("heisenberg_metric", 2, lambda o: u.heisenberg_metric(*o.weyl)),
]


def _record_roots(monkeypatch):
    """Patch core.psd_sqrt and np.linalg.svd; return the forms rooted and
    the SVD arguments equal to one of the roots."""
    forms, roots, svd_of_roots = [], [], []
    real_sqrt, real_svd = u.core.psd_sqrt, np.linalg.svd

    def recording_sqrt(g):
        forms.append(g)
        roots.append(real_sqrt(g))
        return roots[-1]

    def checking_svd(a, *args, **kwargs):
        if any(a.shape == r.shape and np.array_equal(a, r) for r in roots):
            svd_of_roots.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(u.core, "psd_sqrt", recording_sqrt)
    monkeypatch.setattr(np.linalg, "svd", checking_svd)
    return forms, svd_of_roots


@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("expected, call", [c[1:] for c in SQRT_COUNTS],
                         ids=[c[0] for c in SQRT_COUNTS])
def test_each_form_is_rooted_once_and_no_root_meets_an_svd(ops, monkeypatch, expected, call):
    forms, svd_of_roots = _record_roots(monkeypatch)
    call(ops)
    assert len(forms) == expected
    assert all(isinstance(f, u.HermitianForm) for f in forms)
    assert len({id(f) for f in forms}) == len(forms)
    assert svd_of_roots == []


def test_root_is_cached_read_only_and_the_explicit_inverse(rng):
    form = u.HermitianForm(positive_definite_fixture(rng, N, 10.0))
    Q, Qinv = form.root
    assert form.root[0] is Q and form.root[1] is Qinv
    assert not Q.flags.writeable and not Qinv.flags.writeable
    assert np.array_equal(Q, u.psd_sqrt(form))
    assert np.array_equal(Qinv, np.linalg.inv(Q))


def test_identity_fiducial_similarity_is_the_forms_root(ops):
    result = u.invariant_metric(ops.t)
    assert result.positive_similarity is result.invariant_form.root[0]
