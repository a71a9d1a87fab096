"""Seeded inputs, requests and expected answers for each workload.

Every input is built here from ``fixtures.jittered_unimodular_phases`` and
``fixtures.invertible_with_condition`` (through ``conjugated_unitary`` for
the bounded ones), so the expected answer follows from the construction:
T = S^-1 diag(e^{i phases}) S has the invariant metric and Cesaro means
written out in ``pullback_mean``.  Requests reach the library through module
attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import unitarize
from unitarize import fixtures
from unitarize.serialization import matrix_payload

# Largest relative error or residual an answer may carry.  It is the
# invariance level at which unitary_log still accepts a metric as invariant
# for its operator, so an answer past it is one the library would reject.
ANSWER_RTOL = 1e-6

HORIZON = 2**20
CLI_TIMEOUT_S = 120.0

@dataclass
class Request:
    """One request: ``call`` sends it, ``check`` judges what came back.

    ``check(out, exc)`` gets the return value, or the exception raised, and
    returns (correct, worst residual the answer reported).
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], tuple[bool, float]]


def _seeded(seed: int, stream: int) -> np.random.Generator:
    """Generator for one input stream; the same seed gives the same inputs."""
    return np.random.default_rng([seed, stream])


# -- inputs -------------------------------------------------------------------


def draw_phases(rng, n):
    # The default margin of 0.15 does not fit beyond n = 41; three quarters
    # of the equispaced gap keeps every gap at least 1.5 pi / n.
    return fixtures.jittered_unimodular_phases(rng, n, margin=1.5 * np.pi / n)


def bounded(rng, n, cond, phases=None):
    """(T, S, phases) with T = S^-1 diag(e^{i phases}) S."""
    if phases is None:
        phases = draw_phases(rng, n)
    return fixtures.conjugated_unitary(rng, n, cond, phases)


def _conjugate(rng, n, cond, core):
    s = fixtures.invertible_with_condition(rng, n, cond)
    return np.linalg.solve(s, core @ s)


def jordan(rng, n, cond):
    """Conjugated unimodular matrix with one 2x2 Jordan block: unbounded."""
    phases = draw_phases(rng, n)
    phases[1] = phases[0]
    core = np.diag(np.exp(1j * phases))
    core[0, 1] = 1.0
    return _conjugate(rng, n, cond, core)


def off_circle(rng, n, cond, bump):
    """Conjugated diagonal matrix with one eigenvalue of modulus 1 + bump."""
    d = np.exp(1j * draw_phases(rng, n))
    d[0] *= 1.0 + bump
    return _conjugate(rng, n, cond, np.diag(d))


# -- expected answers ---------------------------------------------------------


def pullback_mean(s1, ph1, s2, ph2, horizon=None):
    """Mean of (T1^k)* T2^k over k < horizon, or its limit when horizon is None.

    With T = S^-1 diag(e^{i ph}) S the k-th term is S1* D1^-k M D2^k S2 with
    M = S1^-* S2^-1, so the mean scales entry (i, j) of M by the geometric
    mean of e^{ik(ph2_j - ph1_i)}: 1 where the phases agree, and
    (1 - z^N) / (N (1 - z)) (0 in the limit) elsewhere.
    """
    m = np.linalg.inv(s1).conj().T @ np.linalg.inv(s2)
    delta = ph2[None, :] - ph1[:, None]
    same = delta == 0.0
    if horizon is None:
        w = same.astype(float)
    else:
        z = np.exp(1j * np.where(same, 1.0, delta))
        z_n = np.exp(1j * np.mod(horizon * delta, 2.0 * np.pi))
        w = np.where(same, 1.0, (1.0 - z_n) / (horizon * (1.0 - z)))
    return s1.conj().T @ (m * w) @ s2


def _rel(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def _hermitian(a):
    return (a + a.conj().T) / 2.0


def expect_error(error_type):
    def check(out, exc):
        return isinstance(exc, error_type), 0.0

    return check


def expect_metric(reference):
    """invariant_metric: the built metric, with small certificate residuals."""

    def check(out, exc):
        if exc is not None:
            return False, 0.0
        worst = max(out.residuals.values())
        err = _rel(out.invariant_form.gram, reference)
        return err <= ANSWER_RTOL and worst <= ANSWER_RTOL, worst

    return check


# -- unitarize_n128 -----------------------------------------------------------


def unitarize_n128(seed):
    """14 requests: ten bounded at n=128 (cond 10 and 100), four unbounded."""
    rng = _seeded(seed, 0)
    lib = unitarize
    reqs = []

    def add_bounded(cond):
        t, s, ph = bounded(rng, 128, cond)
        ref = pullback_mean(s, ph, s, ph)
        reqs.append(Request(f"bounded_c{cond:g}", lambda: lib.metrics.invariant_metric(t),
                            expect_metric(ref)))

    def add_unbounded(kind, t):
        reqs.append(Request(kind, lambda: lib.metrics.invariant_metric(t),
                            expect_error(lib.NotUniformlyBounded)))

    unbounded = [
        ("jordan_c10", lambda: jordan(rng, 128, 10.0)),
        ("off_circle_c100", lambda: off_circle(rng, 128, 100.0, 0.05)),
        ("jordan_c100", lambda: jordan(rng, 128, 100.0)),
        ("off_circle_c10", lambda: off_circle(rng, 128, 10.0, -0.05)),
    ]
    for k in range(10):
        add_bounded(10.0 if k % 2 == 0 else 100.0)
        if k in (2, 5, 7, 9):
            kind, make = unbounded.pop(0)
            add_unbounded(kind, make())
    return reqs


def unitarize_probe(seed):
    """n=16 at cond 1e5, outside the range the clustering is calibrated for.

    Known to answer wrongly: Jordan blocks pass as bounded, and some bounded
    inputs pass the decision and then fail to give a positive metric.  Run
    beside the timed loop, never in it, and reported by count.
    """
    rng = _seeded(seed, 4)
    lib = unitarize
    reqs = []
    for _ in range(6):
        t = jordan(rng, 16, 1e5)
        reqs.append(Request("jordan_n16_c1e5", lambda t=t: lib.metrics.invariant_metric(t),
                            expect_error(lib.NotUniformlyBounded)))
        t, s, ph = bounded(rng, 16, 1e5)
        reqs.append(Request("bounded_n16_c1e5", lambda t=t: lib.metrics.invariant_metric(t),
                            expect_metric(pullback_mean(s, ph, s, ph))))
    return reqs


# -- connect_n64 --------------------------------------------------------------


def connect_n64(seed):
    """10 requests at n=64: intertwiner (shared and disjoint), pair, Weyl triple."""
    rng = _seeded(seed, 1)
    lib = unitarize
    n = 64
    reqs = []

    def residual_ok(values):
        worst = max(values)
        return worst <= ANSWER_RTOL, worst

    def add_shared(cond):
        ph = draw_phases(rng, n)
        t1, s1, _ = bounded(rng, n, cond, ph)
        t2, s2, _ = bounded(rng, n, cond, ph)
        ref = pullback_mean(s1, ph, s2, ph)

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            ok, worst = residual_ok(out.relation_residuals.values())
            ok = ok and out.nonzero and out.rank == n
            return ok and _rel(out.in_fiducial_metric, ref) <= ANSWER_RTOL, worst

        reqs.append(Request(f"intertwine_shared_c{cond:g}",
                            lambda: lib.intertwine.intertwiner(t1, t2), check))

    def add_disjoint(cond):
        ph = draw_phases(rng, n)
        t1, _, _ = bounded(rng, n, cond, ph)
        # Half a spacing away: every eigenvalue of t2 sits at least pi / 2n
        # from every eigenvalue of t1.
        t2, _, _ = bounded(rng, n, cond, np.mod(ph + np.pi / n, 2.0 * np.pi))

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            zero = not (np.any(out.in_fiducial_metric) or np.any(out.in_first_metric)
                        or np.any(out.in_second_metric))
            return zero and not out.nonzero and out.rank == 0, 0.0

        reqs.append(Request(f"intertwine_disjoint_c{cond:g}",
                            lambda: lib.intertwine.intertwiner(t1, t2), check))

    def add_pair(cond):
        s = fixtures.invertible_with_condition(rng, n, cond)
        ph1, ph2 = draw_phases(rng, n), draw_phases(rng, n)
        t1 = np.linalg.solve(s, np.exp(1j * ph1)[:, None] * s)
        t2 = np.linalg.solve(s, np.exp(1j * ph2)[:, None] * s)
        ref = pullback_mean(s, ph1, s, ph1)

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            ok, worst = residual_ok(out.unitarity_residuals.values())
            return ok and _rel(out.form.gram, ref) <= ANSWER_RTOL, worst

        reqs.append(Request(f"pair_c{cond:g}",
                            lambda: lib.families.commuting_pair_metric(t1, t2), check))

    def add_weyl(cond):
        s = fixtures.invertible_with_condition(rng, n, cond)
        triple = [np.linalg.solve(s, m @ s) for m in lib.families.make_clock_shift(n)]
        # The triple acts irreducibly, so its invariant metric is S* S up to scale.
        ref = s.conj().T @ s
        ref = ref / np.linalg.norm(ref)

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            ok, worst = residual_ok(out.unitarity_residuals.values())
            g = np.asarray(out.form.gram)
            return ok and _rel(g / np.linalg.norm(g), ref) <= ANSWER_RTOL, worst

        reqs.append(Request(f"heisenberg_c{cond:g}",
                            lambda: lib.families.heisenberg_metric(*triple), check))

    # Four of the slowest kind (heisenberg) and three of the next (shared
    # intertwiner) keep the median and the tail inside a kind, not on the
    # boundary between two, so they do not jump from run to run.
    add_shared(10.0)
    add_weyl(100.0)
    add_disjoint(100.0)
    add_weyl(10.0)
    add_shared(100.0)
    add_pair(10.0)
    add_weyl(100.0)
    add_disjoint(10.0)
    add_shared(10.0)
    add_weyl(10.0)
    return reqs


# -- oracle_horizon -----------------------------------------------------------


def oracle_horizon(seed):
    """12 requests at n=128 and horizon 2^20: eight bounded, four divergent."""
    rng = _seeded(seed, 2)
    lib = unitarize
    n = 128
    reqs = []

    def add_oracle(cond):
        t, s, ph = bounded(rng, n, cond)
        full = _hermitian(pullback_mean(s, ph, s, ph, HORIZON))
        half = _hermitian(pullback_mean(s, ph, s, ph, HORIZON // 2))
        drift = float(np.linalg.norm(full - half) / np.linalg.norm(full))

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            form, got_drift = out
            err = _rel(form.gram, full)
            return err <= ANSWER_RTOL and abs(got_drift - drift) <= ANSWER_RTOL, err

        reqs.append(Request(f"oracle_c{cond:g}",
                            lambda: lib.metrics.cesaro_oracle(t, horizon=HORIZON), check))

    def add_mixed(cond):
        ph = draw_phases(rng, n)
        t1, s1, _ = bounded(rng, n, cond, ph)
        t2, s2, _ = bounded(rng, n, cond, ph)
        ref = pullback_mean(s1, ph, s2, ph, HORIZON)

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            err = _rel(out, ref)
            return err <= ANSWER_RTOL, err

        reqs.append(Request(f"mixed_c{cond:g}",
                            lambda: lib.intertwine.mixed_cesaro(t1, t2, horizon=HORIZON), check))

    def add_divergent(kind, call):
        reqs.append(Request(kind, call, expect_error(lib.DivergenceDetected)))

    add_oracle(10.0)
    add_mixed(100.0)
    add_oracle(100.0)
    add_mixed(10.0)
    tj = jordan(rng, n, 10.0)
    add_divergent("oracle_jordan", lambda: lib.metrics.cesaro_oracle(tj, horizon=HORIZON))
    to1 = off_circle(rng, n, 100.0, 0.05)
    tb1, _, _ = bounded(rng, n, 100.0)
    add_divergent("mixed_off_circle_left",
                  lambda: lib.intertwine.mixed_cesaro(to1, tb1, horizon=HORIZON))
    add_oracle(100.0)
    add_mixed(10.0)
    add_oracle(10.0)
    add_mixed(100.0)
    to2 = off_circle(rng, n, 100.0, 0.05)
    add_divergent("oracle_off_circle", lambda: lib.metrics.cesaro_oracle(to2, horizon=HORIZON))
    tb3, _, _ = bounded(rng, n, 10.0)
    to3 = off_circle(rng, n, 10.0, 0.05)
    add_divergent("mixed_off_circle_right",
                  lambda: lib.intertwine.mixed_cesaro(tb3, to3, horizon=HORIZON))
    return reqs


def oracle_probe(seed):
    """A Jordan block paired with a bounded operator: the pairing grows
    linearly, which stays under the divergence guard at horizon 2^20.
    Known to return a finite mean instead of raising DivergenceDetected."""
    rng = _seeded(seed, 5)
    lib = unitarize
    reqs = []
    for cond in (10.0, 100.0):
        tj = jordan(rng, 128, cond)
        tb, _, _ = bounded(rng, 128, cond)
        reqs.append(Request("mixed_jordan_left",
                            lambda tj=tj, tb=tb: lib.intertwine.mixed_cesaro(tj, tb, horizon=HORIZON),
                            expect_error(lib.DivergenceDetected)))
    return reqs


# -- cli_oneshot --------------------------------------------------------------


@dataclass
class CliCase:
    kind: str
    argv: list[str]
    outcome: str
    # (matrix name in the report, expected matrix) for numeric checks
    matrix: tuple[str, np.ndarray] | None = None


def cli_cases(seed, workdir):
    """Write the CLI inputs under ``workdir``; return the 11 cases of a cycle."""
    rng = _seeded(seed, 3)

    def write(name, mat):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(matrix_payload(mat)))
        return str(path)

    files = {}
    refs = {}
    for n in (16, 128):
        ph = draw_phases(rng, n)
        t1, s1, _ = bounded(rng, n, 10.0, ph)
        t2, s2, _ = bounded(rng, n, 10.0, ph)
        files[f"t{n}"], files[f"u{n}"] = write(f"t{n}", t1), write(f"u{n}", t2)
        refs[f"metric{n}"] = pullback_mean(s1, ph, s1, ph)
        refs[f"connect{n}"] = pullback_mean(s1, ph, s2, ph)
    s = fixtures.invertible_with_condition(rng, 16, 10.0)
    for k in "ab":
        files[f"p{k}"] = write(f"p{k}", np.linalg.solve(s, np.exp(1j * draw_phases(rng, 16))[:, None] * s))
    for k, m in zip("xyz", unitarize.make_clock_shift(16)):
        files[f"h{k}"] = write(f"h{k}", np.linalg.solve(s, m @ s))

    return [
        CliCase("check_n16", ["check", "--in", files["t16"]], "uniformly_bounded"),
        CliCase("nagy_n16", ["nagy", "--in", files["t16"]], "unitarizable",
                ("invariant_gram", refs["metric16"])),
        CliCase("oracle_n16", ["oracle", "--in", files["t16"]], "averaged"),
        CliCase("log_n16", ["log", "--in", files["t16"]], "generated"),
        CliCase("cayley_n16", ["cayley", "--in", files["t16"]], "mapped"),
        CliCase("intertwine_n16", ["intertwine", "--t1", files["t16"], "--t2", files["u16"]],
                "nonzero_connection", ("in_fiducial_metric", refs["connect16"])),
        CliCase("pair_n16", ["pair", "--t1", files["pa"], "--t2", files["pb"]], "joint_metric"),
        CliCase("heisenberg_n16", ["heisenberg", "--t1", files["hx"], "--t2", files["hy"],
                                   "--t3", files["hz"]], "joint_metric"),
        CliCase("example_random", ["example", "--random", "shift"], "model_consistent"),
        CliCase("nagy_n128", ["nagy", "--in", files["t128"]], "unitarizable",
                ("invariant_gram", refs["metric128"])),
        CliCase("intertwine_n128", ["intertwine", "--t1", files["t128"], "--t2", files["u128"]],
                "nonzero_connection", ("in_fiducial_metric", refs["connect128"])),
    ]


def cli_check(case: CliCase):
    """Exit code 0, valid JSON with the expected outcome, the expected matrix
    where one is known, and the same bytes on every repeat of the case."""
    first = []

    def check(out, exc):
        if exc is not None:
            return False, 0.0
        code, body = out
        if first:
            return code == 0 and body == first[0], 0.0
        try:
            report = json.loads(body)
        except ValueError:
            return False, 0.0
        ok = code == 0 and report["verdicts"].get("outcome") == case.outcome
        if ok and case.matrix is not None:
            name, ref = case.matrix
            payload = report["matrices"][name]
            flat = np.array(payload["data"], dtype=float)
            got = (flat[:, 0] + 1j * flat[:, 1]).reshape(payload["dim"], payload["dim"])
            ok = _rel(got, ref) <= ANSWER_RTOL
        if ok:
            first.append(body)
        return ok, 0.0

    return check


def cli_requests(cases, env):
    """Each request is a fresh ``python -m unitarize.cli`` process."""
    reqs = []
    for case in cases:
        cmd = [sys.executable, "-m", "unitarize.cli", *case.argv]

        def call(cmd=cmd):
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=False)
            return proc.returncode, proc.stdout

        reqs.append(Request(case.kind, call, cli_check(case)))
    return reqs


def cli_main_requests(cases):
    """The same argument lists through ``cli.main`` inside this process."""
    reqs = []
    for case in cases:

        def call(argv=case.argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = unitarize.cli.main(argv)
            return code, out.getvalue().encode()

        reqs.append(Request(case.kind, call, cli_check(case)))
    return reqs


# -- dimension sweep ----------------------------------------------------------


def sweep_requests(seed, n, with_intertwiner):
    """invariant_metric, canonical_json of its metric, and intertwiner at n."""
    rng = _seeded(seed, 100 + n)
    lib = unitarize
    t1, s1, ph = bounded(rng, n, 10.0)
    ref = pullback_mean(s1, ph, s1, ph)
    payload = matrix_payload(ref)
    reqs = [
        Request("invariant_metric", lambda: lib.metrics.invariant_metric(t1), expect_metric(ref)),
        Request("canonical_json", lambda: lib.serialization.canonical_json(payload),
                lambda out, exc: (exc is None and len(json.loads(out)["data"]) == n * n, 0.0)),
    ]
    if with_intertwiner:
        t2, s2, _ = bounded(rng, n, 10.0, ph)
        connect = pullback_mean(s1, ph, s2, ph)

        def check(out, exc):
            if exc is not None:
                return False, 0.0
            err = _rel(out.in_fiducial_metric, connect)
            return out.rank == n and err <= ANSWER_RTOL, err

        reqs.append(Request("intertwiner", lambda: lib.intertwine.intertwiner(t1, t2), check))
    return reqs
