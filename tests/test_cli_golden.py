"""Golden corpus for the command line front end.

golden/cli_corpus.json holds, for each case, the input files, the argument
vector, and the exit code, stdout and stderr that the CLI produced when the
corpus was recorded.  Every one of the twelve subcommands appears, on inputs
of dimension at most 8 built with condition numbers at most 10, including the
negative verdicts, a non-identity fiducial form, and an operator with two
eigenvalues 1.5 cluster radii apart (which raises ClusterAmbiguity).

A run must reproduce exit codes, verdicts and every string exactly, and every
number to 1e-12 relative (with a 1e-14 absolute floor, so residuals at the
rounding level may move with the floating point platform).  Warning lists
are compared as sets of distinct messages: how many copies of one message a
report carries follows how many eigendecompositions ran, which is not part
of the report's contract.

golden/cli_digests.json holds, per host fingerprint (numpy version, BLAS
name and version, machine, BLAS thread variables and usable CPU count), the
sha256 of exit code, stdout and stderr of every corpus run and of a few
n = 128 nagy and intertwine runs built from fixtures.  On a host whose
fingerprint is recorded a run must reproduce its report byte for byte; on any
other host that test skips and names the mismatch.  Pinned and unpinned BLAS
give different bytes at n = 128, so one host records both.

Rebuild the corpus and record this host's digests, only for an intended and
documented report change, with

    PYTHONPATH=src python3 tests/test_cli_golden.py --write

once per recorded fingerprint (for instance with and without
OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1).  Print one digest over all runs,
to compare two versions of the code on one host, with

    PYTHONPATH=src python3 tests/test_cli_golden.py --digest
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from unitarize import HermitianForm, eig, fixtures
from unitarize.cli import main
from unitarize.core import BLAS_THREAD_VARS, CLUSTER_FLOOR
from unitarize.families import make_clock_shift
from unitarize.hamiltonian import planar_oscillator_pair
from unitarize.serialization import form_payload, matrix_payload

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"
DIGESTS = Path(__file__).parent / "golden" / "cli_digests.json"
NUMBER_RTOL = 1e-12
NUMBER_ATOL = 1e-14


def run_case(case: dict, workdir: str) -> tuple[int, str, str]:
    """Write the case's input files, run the CLI in process, return
    (exit code, stdout, stderr).  An argument "@name" stands for the path
    of input file "name"."""
    paths = {}
    for name, payload in case["files"].items():
        path = Path(workdir) / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    argv = [paths[a[1:]] if a.startswith("@") else a for a in case["argv"]]
    saved = {k: os.environ.get(k) for k in case.get("env", {})}
    os.environ.update(case.get("env", {}))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def assert_same(got, want, where: str) -> None:
    """Structural equality, numbers within the corpus tolerance."""
    number = (int, float)
    if isinstance(want, number) and not isinstance(want, bool):
        assert isinstance(got, number) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=NUMBER_RTOL, abs_tol=NUMBER_ATOL), (
            f"{where}: {got!r} != {want!r}"
        )
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{k}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _load_corpus() -> list[dict]:
    # Missing only while the corpus is first written; the coverage test
    # below fails in that state.
    return json.loads(CORPUS.read_text()) if CORPUS.exists() else []


@pytest.mark.parametrize("case", _load_corpus(), ids=lambda c: c["name"])
def test_cli_matches_golden_corpus(case, tmp_path):
    code, out, err = run_case(case, str(tmp_path))
    assert code == case["code"]
    assert err == case["stderr"]
    if case["stdout"] is None or not case["stdout"].startswith("{"):
        assert out == case["stdout"]
        return
    got, want = json.loads(out), json.loads(case["stdout"])
    assert sorted(set(got.pop("warnings"))) == sorted(set(want.pop("warnings")))
    assert_same(got, want, "report")


def test_golden_corpus_covers_every_subcommand():
    commands = {case["argv"][0] for case in _load_corpus()}
    assert commands == {
        "check", "nagy", "oracle", "cayley", "log", "altmetric", "depend",
        "pair", "heisenberg", "intertwine", "hamiltonian", "example",
    }


# -- one fresh process per subcommand -----------------------------------------

# the modules every CLI run loads; under -m the cli module itself runs as
# __main__, so the import log does not name it
BASE_MODULES = {"unitarize"} | {
    f"unitarize.{m}" for m in ("boundedness", "core", "errors", "serialization")
}
# every subcommand but check also loads metrics, and some one module more
OWN_MODULE = {
    "pair": "families", "heisenberg": "families", "intertwine": "intertwine",
    "altmetric": "alternatives", "depend": "alternatives", "hamiltonian": "hamiltonian",
    "example": "line_models",
}


def _first_case_per_subcommand() -> list[dict]:
    first = {}
    for case in _load_corpus():
        if case["stderr"] == "":
            first.setdefault(case["argv"][0], case)
    return list(first.values())


@pytest.mark.parametrize("case", _first_case_per_subcommand(), ids=lambda c: c["argv"][0])
def test_fresh_process_loads_only_its_subcommand_modules(case, tmp_path):
    code, out, _ = run_case(case, str(tmp_path))
    argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
    env = {**os.environ, **case.get("env", {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "unitarize.cli", *argv],
                          env=env, cwd=tmp_path, capture_output=True, timeout=120)
    assert proc.returncode == code
    assert proc.stdout == out.encode()
    log = proc.stderr.decode().splitlines()
    assert all(line.startswith("import time:") for line in log), log
    logged = {line.rsplit("|", 1)[1].strip() for line in log}
    expected = set(BASE_MODULES)
    if case["argv"][0] != "check":
        expected.add("unitarize.metrics")
    if case["argv"][0] in OWN_MODULE:
        expected.add(f"unitarize.{OWN_MODULE[case['argv'][0]]}")
    assert {m for m in logged if m.split(".")[0] == "unitarize"} == expected


# -- report bytes -------------------------------------------------------------


def host_fingerprint() -> dict:
    """What a report's bytes depend on besides the code and its inputs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpus": cpus,
    }


def run_digest(case: dict, workdir: str) -> str:
    """sha256 of the run's (exit code, stdout, stderr)."""
    return hashlib.sha256(json.dumps(run_case(case, workdir)).encode()).hexdigest()


def _large_cases() -> list[dict]:
    """n = 128 runs for the byte check alone, their inputs rebuilt from
    fixtures rather than stored.  With BLAS pinned their decisions run on
    both threads."""
    rng = np.random.default_rng(20261019)
    n = 128
    ph = fixtures.jittered_unimodular_phases(rng, n, margin=1.5 * np.pi / n)
    t, _, _ = fixtures.conjugated_unitary(rng, n, 10.0, ph)
    u, _, _ = fixtures.conjugated_unitary(rng, n, 10.0, ph)
    g = fixtures.positive_definite_fixture(rng, n, 10.0)
    files = {"t": matrix_payload(t), "u": matrix_payload(u),
             "g": form_payload(HermitianForm(g))}
    cases = [
        ("nagy_n128", ["nagy", "--in", "@t"]),
        ("nagy_h0_n128", ["nagy", "--in", "@t", "--h0", "@g"]),
        ("intertwine_n128", ["intertwine", "--t1", "@t", "--t2", "@u"]),
        ("intertwine_h0_n128", ["intertwine", "--t1", "@t", "--t2", "@u", "--h0", "@g"]),
    ]
    return [{"name": name, "argv": argv, "files": files} for name, argv in cases]


def _digest_cases() -> list[dict]:
    return _load_corpus() + _large_cases()


def _recorded_digests() -> list[dict]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else []


def _host_digests() -> dict[str, str]:
    """This host's recorded digests by run name.  Skips when its fingerprint
    has none, naming where it differs from the closest recorded one."""
    here = host_fingerprint()
    entries = _recorded_digests()
    for entry in entries:
        if entry["fingerprint"] == here:
            return entry["digests"]

    def differences(recorded):
        return [f"{key} {here[key]!r} (recorded {recorded.get(key)!r})"
                for key in here if recorded.get(key) != here[key]]

    closest = min((differences(e["fingerprint"]) for e in entries), key=len,
                  default=["no fingerprint is recorded"])
    pytest.skip("no report digests for this host: " + "; ".join(closest))


@pytest.mark.parametrize("case", _digest_cases(), ids=lambda c: c["name"])
def test_cli_report_bytes(case, tmp_path):
    recorded = _host_digests().get(case["name"])
    assert run_digest(case, str(tmp_path)) == recorded, (
        f"{case['name']}: report bytes differ from the recorded ones"
    )


# -- building the corpus ------------------------------------------------------


def _ambiguous_operator(rng) -> np.ndarray:
    """Conjugated unitary with two eigenvalues 1.5 cluster radii apart."""
    s = fixtures.invertible_with_condition(rng, 3, 4.0)
    gap = 0.0
    for _ in range(4):
        phases = np.array([0.7, 0.7 + gap, 3.0])
        T = np.linalg.solve(s, np.exp(1j * phases)[:, None] * s)
        radius = CLUSTER_FLOOR * (1.0 + np.linalg.norm(T, 2))
        gap = 2.0 * np.arcsin(0.75 * radius)
    return T


def _cases() -> list[dict]:
    rng = np.random.default_rng(20261017)
    mat = matrix_payload

    def form(g):
        return form_payload(HermitianForm(g))

    ph3 = fixtures.unimodular_phases(rng, 3, min_gap=0.3)
    t3, _, _ = fixtures.conjugated_unitary(rng, 3, 10.0, ph3)
    u3, _, _ = fixtures.conjugated_unitary(rng, 3, 5.0, ph3)
    far3, _, _ = fixtures.conjugated_unitary(
        rng, 3, 5.0, np.mod(ph3 + 0.11, 2.0 * np.pi)
    )
    g3 = fixtures.positive_definite_fixture(rng, 3, 10.0)
    g3b = fixtures.positive_definite_fixture(rng, 3, 4.0)
    jordan3 = fixtures.defective_unimodular(rng, 3, 10.0)
    off3 = fixtures.off_circle_fixture(rng, 3, 10.0)
    real3 = fixtures.real_spectrum_fixture(rng, 3, 10.0)
    deg4, _, _ = fixtures.conjugated_degenerate(rng, 4, 10.0)
    deg_cluster = next(
        c for c, idx in enumerate(eig(deg4).clusters) if len(idx) == 2
    )
    pa, pb = fixtures.commuting_conjugated_pair(rng, 4, 10.0)
    s4 = fixtures.invertible_with_condition(rng, 4, 10.0)
    da = np.exp(1j * np.array([0.4, 0.4, 2.0, 4.0]))
    db = np.exp(1j * fixtures.unimodular_phases(rng, 4, min_gap=0.3))
    qa = np.linalg.solve(s4, da[:, None] * s4)
    qb = np.linalg.solve(s4, db[:, None] * s4)
    s3 = fixtures.invertible_with_condition(rng, 3, 10.0)
    wx, wy, wz = (np.linalg.solve(s3, m @ s3) for m in make_clock_shift(3))
    amb = _ambiguous_operator(rng)
    dyn, fac0, fac1 = planar_oscillator_pair()
    spec = {"kind": "weighted_cyclic_shift", "size": 6, "step": 1,
            "density": [0.5, 1.0, 1.5, 2.0, 0.8, 1.2]}

    T = {"t": mat(t3)}
    cases = [
        ("check_bounded", ["check", "--in", "@t"], T),
        ("check_tol_unitary", ["check", "--in", "@t", "--tol-unitary", "1e-6"], T),
        ("check_jordan", ["check", "--in", "@t"], {"t": mat(jordan3)}),
        ("check_off_circle", ["check", "--in", "@t"], {"t": mat(off3)}),
        ("check_ambiguous", ["check", "--in", "@t"], {"t": mat(amb)}),
        ("check_generator", ["check", "--in", "@t", "--generator"], {"t": mat(real3)}),
        ("check_generator_jordan", ["check", "--in", "@t", "--generator"],
         {"t": mat([[1.0, 1.0], [0.0, 1.0]])}),
        ("nagy_identity", ["nagy", "--in", "@t"], T),
        ("nagy_h0", ["nagy", "--in", "@t", "--h0", "@g"], {**T, "g": form(g3)}),
        ("nagy_tol_cluster", ["nagy", "--in", "@t", "--tol-cluster", "1e-6"], T),
        ("nagy_degenerate", ["nagy", "--in", "@t"], {"t": mat(deg4)}),
        ("nagy_jordan", ["nagy", "--in", "@t"], {"t": mat(jordan3)}),
        ("nagy_ambiguous", ["nagy", "--in", "@t"], {"t": mat(amb)}),
        ("nagy_h0_wrong_dim", ["nagy", "--in", "@t", "--h0", "@g"],
         {"t": mat(deg4), "g": form(g3)}),
        ("oracle", ["oracle", "--in", "@t", "--horizon", "512"], T),
        ("oracle_h0", ["oracle", "--in", "@t", "--h0", "@g", "--horizon", "256"],
         {**T, "g": form(g3)}),
        ("cayley", ["cayley", "--in", "@t"], {"t": mat(real3)}),
        ("cayley_inverse", ["cayley", "--in", "@t", "--inverse"], T),
        ("cayley_text", ["cayley", "--in", "@t", "--format", "text"], {"t": mat(real3)}),
        ("cayley_singular", ["cayley", "--in", "@t"], {"t": mat(np.diag([-1j, 0.5]))}),
        ("log", ["log", "--in", "@t"], T),
        ("log_h0", ["log", "--in", "@t", "--h0", "@g"], {**T, "g": form(g3)}),
        ("altmetric_weights", ["altmetric", "--in", "@t", "--weights", "@w"],
         {**T, "w": {"0": 1.0, "1": 2.0, "2": 0.5}}),
        ("altmetric_weight_block", ["altmetric", "--in", "@t", "--weights", "@w"],
         {"t": mat(deg4),
          "w": {**{str(c): 1.5 for c in range(3)},
                str(deg_cluster): mat([[2.0, 0.5j], [-0.5j, 1.0]])}}),
        ("altmetric_phi_constant", ["altmetric", "--in", "@t", "--phi", "@p"],
         {**T, "p": 2.5}),
        ("altmetric_phi_map", ["altmetric", "--in", "@t", "--phi", "@p", "--h0", "@g"],
         {**T, "p": {"0": 1.0, "1": 3.0, "2": 0.25}, "g": form(g3)}),
        ("altmetric_jordan", ["altmetric", "--in", "@t", "--phi", "@p"],
         {"t": mat(jordan3), "p": 2.0}),
        ("depend", ["depend", "--in", "@t", "--h0", "@g", "--h0-prime", "@h"],
         {**T, "g": form(g3), "h": form(g3b)}),
        ("depend_identity", ["depend", "--in", "@t", "--h0-prime", "@h",
                             "--horizon", "65536"], {**T, "h": form(g3b)}),
        ("pair", ["pair", "--t1", "@a", "--t2", "@b", "--shortcut"],
         {"a": mat(pa), "b": mat(pb)}),
        ("pair_degenerate_shortcut", ["pair", "--t1", "@a", "--t2", "@b", "--shortcut"],
         {"a": mat(qa), "b": mat(qb)}),
        ("pair_jordan", ["pair", "--t1", "@a", "--t2", "@a"], {"a": mat(jordan3)}),
        ("pair_not_commuting", ["pair", "--t1", "@a", "--t2", "@b"],
         {"a": mat(t3), "b": mat(far3)}),
        ("heisenberg", ["heisenberg", "--t1", "@x", "--t2", "@y", "--t3", "@z"],
         {"x": mat(wx), "y": mat(wy), "z": mat(wz)}),
        ("heisenberg_h0", ["heisenberg", "--t1", "@x", "--t2", "@y", "--t3", "@z",
                           "--h0", "@g"],
         {"x": mat(wx), "y": mat(wy), "z": mat(wz), "g": form(g3)}),
        ("heisenberg_violated", ["heisenberg", "--t1", "@x", "--t2", "@y", "--t3", "@z"],
         {"x": mat(wx), "y": mat(wy), "z": mat(np.eye(3))}),
        ("intertwine_shared", ["intertwine", "--t1", "@a", "--t2", "@b"],
         {"a": mat(t3), "b": mat(u3)}),
        ("intertwine_h0", ["intertwine", "--t1", "@a", "--t2", "@b", "--h0", "@g"],
         {"a": mat(t3), "b": mat(u3), "g": form(g3)}),
        ("intertwine_disjoint", ["intertwine", "--t1", "@a", "--t2", "@b"],
         {"a": mat(t3), "b": mat(far3)}),
        ("intertwine_jordan", ["intertwine", "--t1", "@a", "--t2", "@b"],
         {"a": mat(jordan3), "b": mat(t3)}),
        ("intertwine_ambiguous", ["intertwine", "--t1", "@a", "--t2", "@a"],
         {"a": mat(amb)}),
        ("hamiltonian_definite", ["hamiltonian", "--dyn", "@d", "--poisson", "@l",
                                  "--energy", "@e"],
         {"d": mat(dyn), "l": mat(fac0.poisson_tensor), "e": mat(fac0.quadratic_energy)}),
        ("hamiltonian_indefinite", ["hamiltonian", "--dyn", "@d", "--poisson", "@l",
                                    "--energy", "@e"],
         {"d": mat(dyn), "l": mat(fac1.poisson_tensor), "e": mat(fac1.quadratic_energy)}),
        ("hamiltonian_fails", ["hamiltonian", "--dyn", "@d", "--poisson", "@l",
                               "--energy", "@e"],
         {"d": mat(dyn), "l": mat(fac0.poisson_tensor), "e": mat(fac1.quadratic_energy)}),
        ("example_spec", ["example", "--spec", "@s"], {"s": spec}),
        ("example_random_shift", ["example", "--random", "shift"], {}, {"UNITARIZE_SEED": "3"}),
        ("example_random_parity", ["example", "--random", "parity"], {},
         {"UNITARIZE_SEED": "4"}),
        ("example_random_translation", ["example", "--random", "translation"], {},
         {"UNITARIZE_SEED": "5"}),
    ]
    out = []
    for name, argv, files, *env in cases:
        case = {"name": name, "argv": argv, "files": files}
        if env:
            case["env"] = env[0]
        out.append(case)
    return out


def write_corpus() -> None:
    cases = _cases()
    with tempfile.TemporaryDirectory() as workdir:
        for case in cases:
            code, out, err = run_case(case, workdir)
            case.update(code=code, stdout=out, stderr=err)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")


def record_digests() -> None:
    """Record this host's digests, keeping those of other fingerprints."""
    here = host_fingerprint()
    with tempfile.TemporaryDirectory() as workdir:
        digests = {case["name"]: run_digest(case, workdir) for case in _digest_cases()}
    entries = [e for e in _recorded_digests() if e["fingerprint"] != here]
    entries.append({"fingerprint": here, "digests": digests})
    DIGESTS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(digests)} digests for {here} in {DIGESTS}")


def corpus_digest() -> str:
    """One sha256 over every run's digest, in order."""
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for case in _digest_cases():
            total.update(f"{case['name']} {run_digest(case, workdir)}\n".encode())
    return total.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_corpus()
        record_digests()
    elif sys.argv[1:] == ["--digest"]:
        print(corpus_digest())
    else:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_cli_golden.py --write | --digest")
