import dataclasses
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from unitarize import HermitianForm, InvalidInput, ToleranceConfig, cli, core
from unitarize.cli import _TOLERANCE_OPTIONS, SUBCOMMANDS, _build_parser, main
from unitarize.core import DRIFT_RTOL, PSD_RTOL
from unitarize.families import make_clock_shift
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    jittered_unimodular_phases,
    unimodular_phases,
)
from unitarize.serialization import form_payload, matrix_payload

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tests" / "golden" / "cli_corpus.json"

INVOLUTION = np.array([[1.0, 2.0], [0.0, -1.0]], dtype=complex)
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


def write_matrix(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_payload(np.asarray(M, dtype=complex))))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_bounded_exits_zero(tmp_path, capsys, rng):
    T, _, _ = conjugated_unitary(rng, 3, 10.0, unimodular_phases(rng, 3))
    path = write_matrix(tmp_path, "t.json", T)
    code, report = run_json(capsys, ["check", "--in", path])
    assert code == 0
    assert report["verdicts"]["outcome"] == "uniformly_bounded"
    assert report["scalars"]["sampled_power_norms"]["0"] == 1


def test_check_jordan_exits_two(tmp_path, capsys):
    path = write_matrix(tmp_path, "j.json", JORDAN)
    code, report = run_json(capsys, ["check", "--in", path])
    assert code == 2
    assert report["verdicts"]["outcome"] == "not_bounded"


def test_check_generator_flag(tmp_path, capsys):
    path = write_matrix(tmp_path, "h.json", [[1.0, 2.0], [0.0, -1.0]])
    code, report = run_json(capsys, ["check", "--in", path, "--generator"])
    assert code == 0
    assert report["verdicts"]["outcome"] == "similar_to_self_adjoint"


def test_nagy_produces_certificate(tmp_path, capsys, rng):
    T, _, _ = conjugated_unitary(rng, 3, 10.0, unimodular_phases(rng, 3))
    tpath = write_matrix(tmp_path, "t.json", T)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(form_payload(HermitianForm.identity(3))))
    code, report = run_json(
        capsys, ["nagy", "--in", tpath, "--h0", str(gpath)]
    )
    assert code == 0
    assert report["verdicts"]["outcome"] == "unitarizable"
    assert report["residuals"]["invariance"] <= 1e-9
    assert set(report["matrices"]) == {
        "invariant_gram",
        "positive_similarity",
        "unitarized",
    }


def test_nagy_rejects_jordan_with_report(tmp_path, capsys):
    path = write_matrix(tmp_path, "j.json", JORDAN)
    code, report = run_json(capsys, ["nagy", "--in", path])
    assert code == 2
    assert report["verdicts"]["outcome"] == "not_uniformly_bounded"
    assert "detail" in report["verdicts"]


def test_json_output_is_byte_stable(tmp_path, capsys, rng):
    T, _, _ = conjugated_unitary(rng, 3, 10.0, unimodular_phases(rng, 3))
    path = write_matrix(tmp_path, "t.json", T)
    main(["nagy", "--in", path])
    first = capsys.readouterr().out
    main(["nagy", "--in", path])
    second = capsys.readouterr().out
    assert first == second


def test_oracle_matches_involution(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code, report = run_json(capsys, ["oracle", "--in", path, "--horizon", "4096"])
    assert code == 0
    assert report["residuals"]["cesaro_drift"] == 0
    gram = report["matrices"]["cesaro_gram"]["data"]
    assert gram == [[1, 0], [1, 0], [1, 0], [3, 0]]


def test_cayley_inverse_round_trip(tmp_path, capsys):
    H = np.array([[1.0, 0.5], [0.5, -1.0]])
    hpath = write_matrix(tmp_path, "h.json", H)
    code, report = run_json(capsys, ["cayley", "--in", hpath])
    assert code == 0
    image = report["matrices"]["image"]
    ipath = tmp_path / "img.json"
    ipath.write_text(json.dumps(image))
    code, report = run_json(capsys, ["cayley", "--in", str(ipath), "--inverse"])
    assert code == 0
    data = np.array(report["matrices"]["image"]["data"])
    back = (data[:, 0] + 1j * data[:, 1]).reshape(2, 2)
    np.testing.assert_allclose(back, H, atol=1e-12)


def test_cayley_singular_shift_exits_two(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", np.diag([1.0, -1.0]))
    code, report = run_json(capsys, ["cayley", "--in", path, "--inverse"])
    assert code == 2
    assert report["verdicts"]["outcome"] == "singular_shift"


def test_log_reports_generator(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code, report = run_json(capsys, ["log", "--in", path])
    assert code == 0
    assert report["residuals"]["exp_reconstruction"] <= 1e-12
    assert report["residuals"]["self_adjointness"] <= 1e-12


def test_altmetric_needs_exactly_one_mode(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    assert main(["altmetric", "--in", path]) == 1
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_altmetric_weights_and_phi(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"0": 2.0, "1": 3.0}))
    code, report = run_json(
        capsys, ["altmetric", "--in", path, "--weights", str(wpath)]
    )
    assert code == 0
    assert report["verdicts"]["outcome"] == "scaled_metric"
    ppath = tmp_path / "phi.json"
    ppath.write_text(json.dumps({"0": 1.5, "1": 0.5}))
    code, report = run_json(capsys, ["altmetric", "--in", path, "--phi", str(ppath)])
    assert code == 0
    assert report["residuals"]["commutation"] <= 1e-9


def test_altmetric_missing_weight_is_usage_error(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({"0": 2.0}))
    assert main(["altmetric", "--in", path, "--weights", str(wpath)]) == 1
    assert "cluster" in capsys.readouterr().err


def test_depend_reports_identities(tmp_path, capsys, rng):
    T, _, _ = conjugated_unitary(rng, 3, 5.0, unimodular_phases(rng, 3, min_gap=0.3))
    tpath = write_matrix(tmp_path, "t.json", T)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(form_payload(HermitianForm(np.diag([2.0, 1.0, 1.5])))))
    code, report = run_json(
        capsys,
        ["depend", "--in", tpath, "--h0", str(gpath), "--h0-prime", "identity"],
    )
    assert code == 0
    assert report["residuals"]["sum_rule"] <= 1e-6
    assert report["residuals"]["invariant_commutes"] <= 1e-9


def test_pair_commuting_and_not(tmp_path, capsys, rng):
    t1, t2 = commuting_conjugated_pair(rng, 3, 10.0)
    p1 = write_matrix(tmp_path, "t1.json", t1)
    p2 = write_matrix(tmp_path, "t2.json", t2)
    code, report = run_json(capsys, ["pair", "--t1", p1, "--t2", p2, "--shortcut"])
    assert code == 0
    assert report["verdicts"]["outcome"] == "joint_metric"
    assert report["residuals"]["invariance_t1"] <= 1e-9
    assert report["residuals"]["invariance_t2"] <= 1e-9
    shift, clock, _ = make_clock_shift(3)
    p3 = write_matrix(tmp_path, "t3.json", shift)
    p4 = write_matrix(tmp_path, "t4.json", clock)
    code, report = run_json(capsys, ["pair", "--t1", p3, "--t2", p4])
    assert code == 2
    assert report["verdicts"]["outcome"] == "not_commuting"


def test_heisenberg_triple(tmp_path, capsys):
    shift, clock, center = make_clock_shift(4)
    p1 = write_matrix(tmp_path, "t1.json", shift)
    p2 = write_matrix(tmp_path, "t2.json", clock)
    p3 = write_matrix(tmp_path, "t3.json", center)
    code, report = run_json(
        capsys, ["heisenberg", "--t1", p1, "--t2", p2, "--t3", p3]
    )
    assert code == 0
    for key in ("invariance_t1", "invariance_t2", "invariance_t3"):
        assert report["residuals"][key] <= 1e-9


def test_intertwine_reports_connection(tmp_path, capsys):
    shift, clock, _ = make_clock_shift(4)
    p1 = write_matrix(tmp_path, "t1.json", clock)
    p2 = write_matrix(tmp_path, "t2.json", shift)
    code, report = run_json(capsys, ["intertwine", "--t1", p1, "--t2", p2])
    assert code == 0
    assert report["verdicts"]["outcome"] == "nonzero_connection"
    assert report["scalars"]["rank"] == 4
    d1 = write_matrix(tmp_path, "d1.json", np.diag([1.0, -1.0]))
    d2 = write_matrix(tmp_path, "d2.json", np.diag([1j, -1j]))
    code, report = run_json(capsys, ["intertwine", "--t1", d1, "--t2", d2])
    assert code == 0
    assert report["verdicts"]["outcome"] == "disjoint_spectra"


def test_intertwine_answers_an_ill_conditioned_pair(tmp_path, capsys):
    """An n = 16 shared-spectrum pair conjugated at cond 1e3, whose adjoints
    are numerically singular: the residuals solve against T1* instead of
    inverting them, so the run answers rather than refusing (exit 1)."""
    rng = np.random.default_rng(3116)
    phases = jittered_unimodular_phases(rng, 16, margin=1.5 * np.pi / 16)
    t1, _, _ = conjugated_unitary(rng, 16, 1e3, phases)
    t2, _, _ = conjugated_unitary(rng, 16, 1e3, phases)
    argv = ["intertwine", "--t1", write_matrix(tmp_path, "a.json", t1),
            "--t2", write_matrix(tmp_path, "b.json", t2)]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["verdicts"]["outcome"] == "nonzero_connection"
    assert report["scalars"]["rank"] == 16
    assert max(report["residuals"].values()) <= 1e-6


def test_hamiltonian_factorization(tmp_path, capsys):
    dyn = [[0.0, 1.0], [-1.0, 0.0]]
    lam = [[0.0, 1.0], [-1.0, 0.0]]
    ene = [[1.0, 0.0], [0.0, 1.0]]
    pd = write_matrix(tmp_path, "d.json", dyn)
    pl = write_matrix(tmp_path, "l.json", lam)
    pe = write_matrix(tmp_path, "e.json", ene)
    code, report = run_json(
        capsys, ["hamiltonian", "--dyn", pd, "--poisson", pl, "--energy", pe]
    )
    assert code == 0
    assert report["verdicts"]["outcome"] == "factorization_matches"
    assert report["scalars"]["signature_plus"] == 2
    bad = write_matrix(tmp_path, "bad.json", [[2.0, 0.0], [0.0, 2.0]])
    code, report = run_json(
        capsys, ["hamiltonian", "--dyn", pd, "--poisson", pl, "--energy", bad]
    )
    assert code == 2
    assert report["verdicts"]["outcome"] == "factorization_fails"


def test_example_from_spec_file(tmp_path, capsys):
    spec = {
        "kind": "weighted_cyclic_shift",
        "size": 4,
        "step": 1,
        "density": [1.0, 2.0, 0.5, 1.5],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, ["example", "--spec", str(path)])
    assert code == 0
    assert report["verdicts"]["outcome"] == "model_consistent"
    assert report["residuals"]["metric_vs_closed_form"] <= 1e-9


def test_example_spec_takes_the_short_kind_names(tmp_path, capsys):
    # the report is the same but for the digest of the spec file
    reports = {}
    for kind in ("shift", "weighted_cyclic_shift"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, "size": 6, "step": 2,
                                    "density": [0.5, 1.0, 1.5, 2.0, 0.8, 1.2]}))
        code, reports[kind] = run_json(capsys, ["example", "--spec", str(path)])
        assert code == 0
    short, full = reports.values()
    assert full["verdicts"] == short["verdicts"] == {"outcome": "model_consistent"}
    assert full["matrices"] == short["matrices"]
    assert full["residuals"] == short["residuals"]


@pytest.mark.parametrize("spec, key, value", [
    ("shift", "stepp", 2),
    ("shift", "Density", [1, 2, 1, 2]),
    ("shift", "magnitude", [1, 1, 1, 1]),
    ("shift", "phase", [0, 0, 0, 0]),
    ("parity", "density", [1, 1, 1, 1]),
    ("translation", "density", [1, 1, 1, 1]),
    ("translation", "steps", 3),
])
def test_example_rejects_a_key_the_spec_does_not_read_by_name(tmp_path, capsys, spec, key,
                                                                 value):
    # a misspelt key, or a profile the kind does not read, would otherwise
    # leave a default in force and give a consistent model all the same
    specs = {
        "shift": {"kind": "shift", "size": 4, "step": 1, "density": [1, 2, 1, 2]},
        "parity": {"kind": "parity", "size": 4, "magnitude": [1, 2, 1, 2]},
        "translation": {"kind": "translation", "size": 4, "magnitude": [2, 0.5, 2, 0.5]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(specs[spec]))
    assert main(["example", "--spec", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps({**specs[spec], key: value}))
    assert main(["example", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and f'"{key}"' in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("field, value", [
    ("step", None), ("step", "x"), ("step", 1.7), ("step", True),
    ("density", ["a", 1, 1, 1]), ("density", [True, 1, 1, 1]), ("density", [[1, 2], [3, 4]]),
    ("density", [1e308, 10**400, 1, 1]),
])
def test_example_rejects_a_malformed_spec_field_by_name(tmp_path, capsys, field, value):
    spec = {"kind": "weighted_cyclic_shift", "size": 4, "step": 1, "density": [1, 2, 1, 2]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, field: value}))
    assert main(["example", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and field in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_example_random_is_seeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNITARIZE_SEED", "42")
    code, first = run_json(capsys, ["example", "--random", "parity_times_function"])
    assert code == 0
    assert first["scalars"]["seed"] == 42
    code, second = run_json(capsys, ["example", "--random", "parity_times_function"])
    assert first == second
    monkeypatch.setenv("UNITARIZE_SEED", "43")
    code, third = run_json(capsys, ["example", "--random", "parity_times_function"])
    assert third["matrices"]["operator"] != first["matrices"]["operator"]


@pytest.mark.parametrize("kind", ["shift", "parity", "translation"])
def test_example_random_accepts_every_kind(capsys, monkeypatch, kind):
    # short aliases resolve, and every random spec satisfies its own
    # model constraints (the translation multiplier has to close cyclically)
    monkeypatch.setenv("UNITARIZE_SEED", "7")
    code, report = run_json(capsys, ["example", "--random", kind])
    assert code == 0
    assert report["verdicts"]["outcome"] == "model_consistent"


@pytest.mark.parametrize("seed", ["abc", "-1", "", "1.5",
                                  pytest.param("1" * 5000, id="past_the_digit_limit")])
def test_example_random_rejects_a_malformed_seed(capsys, monkeypatch, seed):
    monkeypatch.setenv("UNITARIZE_SEED", seed)
    assert main(["example", "--random", "shift"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: UNITARIZE_SEED") and captured.out == ""
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text", [
    '{"dim": 1, "data": [[1' + "0" * 5000 + ', 0]]}',
    "[" * 200_000 + "]" * 200_000,
], ids=["int_past_the_digit_limit", "nested_past_the_recursion_limit"])
@pytest.mark.parametrize("option", ["--in", "--weights"])
def test_a_json_file_python_cannot_read_is_refused_by_name(tmp_path, capsys, text, option):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = {"--in": ["check", "--in", str(path)],
            "--weights": ["altmetric", "--in", write_matrix(tmp_path, "t.json", INVOLUTION),
                          "--weights", str(path)]}[option]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {path}: ") and captured.out == ""
    assert captured.err.count("\n") == 1


def test_example_random_rejects_unknown_kind(capsys):
    assert main(["example", "--random", "bogus"]) == 1
    err = capsys.readouterr().err
    assert "bogus" in err and "weighted_translation" in err


def test_example_needs_exactly_one_source(capsys):
    assert main(["example"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    assert main(["check", "--in", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    assert main(["check", "--in", str(broken)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_text_format_mentions_outcome(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code = main(["check", "--in", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: uniformly_bounded" in out


USAGE_ERRORS = {
    "missing_in": ["check"],
    "unknown_subcommand": ["bogus"],
    "unknown_option": ["check", "--in", "@t", "--no-such-option"],
    "check_h0": ["check", "--in", "@t", "--h0", "identity"],
    "cayley_h0": ["cayley", "--in", "@t", "--h0", "identity"],
    "weights_and_phi": ["altmetric", "--in", "@t", "--weights", "@w", "--phi", "@w"],
    "weights_h0": ["altmetric", "--in", "@t", "--weights", "@w", "--h0", "@g"],
    "cayley_tol_cluster": ["cayley", "--in", "@t", "--tol-cluster", "1e-6"],
    "hamiltonian_horizon": ["hamiltonian", "--dyn", "@t", "--poisson", "@t", "--energy", "@t",
                            "--horizon", "64"],
    "oracle_tol_unitary": ["oracle", "--in", "@t", "--tol-unitary", "1e-6"],
    "check_horizon": ["check", "--in", "@t", "--horizon", "64"],
    "heisenberg_relation_tol_nan": ["heisenberg", "--t1", "@t", "--t2", "@t", "--t3", "@t",
                                    "--relation-tol", "nan"],
    "heisenberg_relation_tol_inf": ["heisenberg", "--t1", "@t", "--t2", "@t", "--t3", "@t",
                                    "--relation-tol", "inf"],
    "check_tol_unitary_negative": ["check", "--in", "@t", "--tol-unitary", "-1e-9"],
    "heisenberg_relation_tol_negative": ["heisenberg", "--t1", "@t", "--t2", "@t", "--t3", "@t",
                                         "--relation-tol", "-1e-6"],
}


def usage_error_files(tmp_path) -> dict:
    """The paths the "@name" arguments of USAGE_ERRORS stand for."""
    (tmp_path / "w.json").write_text(json.dumps({"0": 1.5, "1": 0.5}))
    (tmp_path / "g.json").write_text(json.dumps(form_payload(HermitianForm(np.diag([2.0, 1.0])))))
    return {"t": write_matrix(tmp_path, "t.json", INVOLUTION), "w": str(tmp_path / "w.json"),
            "g": str(tmp_path / "g.json")}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_argparse_usage_errors_exit_one(tmp_path, capsys, argv):
    paths = usage_error_files(tmp_path)
    assert main([paths[a[1:]] if a.startswith("@") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


@pytest.mark.parametrize("argv, field", [
    (["check", "--tol-unitary", "nan"], "unitarity_tol"),
    (["check", "--tol-cluster", "nan"], "eig_cluster_tol"),
    (["check", "--tol-cluster", "inf"], "eig_cluster_tol"),
    (["check", "--tol-unitary=-1e-9"], "unitarity_tol"),
    (["nagy", "--tol-unitary", "nan"], "unitarity_tol"),
    (["nagy", "--tol-unitary", "nan", "--format", "text"], "unitarity_tol"),
    # a negative number as its own token is the option's value, exponent and all
    (["check", "--tol-unitary", "-1e-9"], "unitarity_tol"),
    (["check", "--tol-unitary", "-1E-9"], "unitarity_tol"),
    (["check", "--tol-cluster", "-.5e3"], "eig_cluster_tol"),
])
def test_a_tolerance_that_is_not_finite_exits_one_naming_the_field(tmp_path, capsys, argv, field):
    # the analysis used to run with the NaN and die rendering the report
    code = main([*argv, "--in", write_matrix(tmp_path, "j.json", JORDAN)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert field in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-6", "tight", "-1.5E+2"])
def test_a_refused_relation_tol_exits_one_naming_the_option_and_field(tmp_path, capsys, value):
    # a NaN or an infinity used to reach the inputs digest, which cannot
    # serialize it, and the error named neither the option nor the field;
    # a negative number given as its own token read as a missing value
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code = main(["heisenberg", "--t1", path, "--t2", path, "--t3", path, f"--relation-tol={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--relation-tol" in captured.err and "relation_tol must be" in captured.err
    assert main(["heisenberg", "--t1", path, "--t2", path, "--t3", path,
                 "--relation-tol", value]) == 1
    assert capsys.readouterr() == captured


# A value in an input file that the analysis refuses exits 1 naming its
# field or cluster: an int past float range raised a bare OverflowError, and
# a NaN reached the inputs digest, which cannot serialize it, before the
# analysis read the file.
FILE_VALUE_ERRORS = {
    "weights_huge_int": ("weights", {"0": 10**400, "1": 1.0}, "cluster 0: scalar weight"),
    "weights_nan": ("weights", {"0": 1.0, "1": float("nan")}, "cluster 1: scalar weight"),
    "phi_huge_int": ("phi", 10**400, "on cluster 0"),
    "phi_nan": ("phi", float("nan"), "on cluster 0"),
    "phi_map_huge_int": ("phi", {"0": 10**400, "1": 1.0}, "the phi file"),
    "phi_map_nan": ("phi", {"0": 1.0, "1": float("nan")}, "on cluster 1"),
    "spec_density_nan": ("spec", {"kind": "shift", "size": 4, "density": [1, float("nan"), 1, 1]},
                         '"density"'),
    "spec_phase_inf": ("spec", {"kind": "parity", "size": 4, "magnitude": [1, 2, 1, 2],
                                "phase": [0, float("inf"), 0, 0]}, '"phase"'),
}


@pytest.mark.parametrize("option, payload, name", FILE_VALUE_ERRORS.values(),
                         ids=FILE_VALUE_ERRORS.keys())
def test_a_value_in_an_input_file_exits_one_naming_it(tmp_path, capsys, option, payload, name):
    path = tmp_path / f"{option}.json"
    path.write_text(json.dumps(payload))
    if option == "spec":
        argv = ["example", "--spec", str(path)]
    else:
        argv = ["altmetric", "--in", write_matrix(tmp_path, "t.json", INVOLUTION),
                f"--{option}", str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err and captured.out == ""


def test_a_report_that_cannot_be_rendered_exits_one(tmp_path, capsys, monkeypatch):
    def fill(report, args, cfg):
        report.residuals["broken"] = float("nan")

    monkeypatch.setitem(SUBCOMMANDS, "check", dataclasses.replace(SUBCOMMANDS["check"], fill=fill))
    assert main(["check", "--in", write_matrix(tmp_path, "t.json", INVOLUTION)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cannot serialize a non-finite number\n" and captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--generator" in capsys.readouterr().out


# Two runs whose reports differ, or may, in an option or an input that is
# not a matrix: their inputs digests must differ too.
DIGEST_PAIRS = {
    "altmetric_phi_h0": (["altmetric", "--in", "@t", "--phi", "@f"],
                         ["altmetric", "--in", "@t", "--phi", "@f", "--h0", "@g"]),
    "altmetric_weights_or_phi": (["altmetric", "--in", "@t", "--weights", "@f"],
                                 ["altmetric", "--in", "@t", "--phi", "@f"]),
    "check_generator": (["check", "--in", "@t"], ["check", "--in", "@t", "--generator"]),
    "pair_shortcut": (["pair", "--t1", "@a", "--t2", "@b"],
                      ["pair", "--t1", "@a", "--t2", "@b", "--shortcut"]),
    "heisenberg_relation_tol": (
        ["heisenberg", "--t1", "@x", "--t2", "@y", "--t3", "@z"],
        ["heisenberg", "--t1", "@x", "--t2", "@y", "--t3", "@z", "--relation-tol", "1e-5"]),
}


@pytest.mark.parametrize("pair", DIGEST_PAIRS.values(), ids=DIGEST_PAIRS.keys())
def test_inputs_digest_tells_options_apart(tmp_path, capsys, rng, pair):
    a, b = commuting_conjugated_pair(rng, 2, 5.0)
    shift, clock, center = make_clock_shift(2)
    paths = {name: write_matrix(tmp_path, f"{name}.json", m) for name, m in
             {"t": INVOLUTION, "a": a, "b": b, "x": shift, "y": clock, "z": center}.items()}
    for name, payload in (("f", {"0": 1.5, "1": 0.5}),
                          ("g", form_payload(HermitianForm(np.diag([2.0, 1.0]))))):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    digests = []
    for argv in pair:
        code, report = run_json(capsys, [paths[x[1:]] if x.startswith("@") else x for x in argv])
        assert code == 0
        digests.append(report["inputs_digest"])
    assert digests[0] != digests[1]


def test_only_subcommands_that_read_a_form_take_h0():
    takes = {name for name, sub in SUBCOMMANDS.items() if "h0" in sub.forms}
    assert takes == {"nagy", "oracle", "log", "altmetric", "depend", "pair", "heisenberg",
                     "intertwine"}


def test_the_config_is_what_the_command_line_sets():
    fields = [f.name for f in dataclasses.fields(ToleranceConfig)]
    assert sorted(fields) == sorted(field for field, _ in _TOLERANCE_OPTIONS.values())


def test_report_records_the_config_and_the_fixed_thresholds(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code, report = run_json(capsys, ["depend", "--in", path, "--tol-cluster", "1e-7",
                                     "--tol-unitary", "1e-8", "--horizon", "64"])
    assert code == 0
    cfg = ToleranceConfig(eig_cluster_tol=1e-7, unitarity_tol=1e-8, cesaro_horizon=64)
    want = {**dataclasses.asdict(cfg), "psd_tol": PSD_RTOL, "cesaro_rel_tol": DRIFT_RTOL}
    assert report["tolerances"] == want


# -- the parser ----------------------------------------------------------------


def _parsed(parser, argv, capsys):
    """What a parser makes of argv: the namespace, the usage error, or the
    exit code and output of a help request."""
    try:
        return vars(parser.parse_args(argv))
    except InvalidInput as exc:
        return f"error: {exc}"
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


def _parser_cases():
    cases = [(f"usage_{name}", argv, None, {}) for name, argv in USAGE_ERRORS.items()]
    cases += [(case["name"], case["argv"], case["files"], case.get("env", {}))
              for case in json.loads(CORPUS.read_text())]
    cases += [("help", ["-h"], {}, {})]
    cases += [(f"help_{name}", [name, "-h"], {}, {}) for name in SUBCOMMANDS]
    return cases


@pytest.mark.parametrize("argv, files, env", [c[1:] for c in _parser_cases()],
                         ids=[c[0] for c in _parser_cases()])
def test_a_run_parses_as_with_every_subcommand_filled(tmp_path, capsys, monkeypatch, argv,
                                                      files, env):
    # main fills only the subcommands its argv names; the others keep their
    # help line, so -h and the invalid-choice error list all twelve
    if files is None:
        paths = usage_error_files(tmp_path)
    else:
        paths = {name: str(tmp_path / f"{name}.json") for name in files}
        for name, payload in files.items():
            Path(paths[name]).write_text(json.dumps(payload))
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    full = _parsed(_build_parser(SUBCOMMANDS), argv, capsys)
    assert _parsed(_build_parser(argv), argv, capsys) == full


# -- the process entry ---------------------------------------------------------


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    was_enabled = gc.isenabled()
    try:
        for switch in (gc.enable, gc.disable):
            switch()
            state = gc.isenabled(), gc.get_freeze_count()
            assert main(["nagy", "--in", path]) == 0
            assert main(["nagy"]) == 1
            assert (gc.isenabled(), gc.get_freeze_count()) == state
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def _child_env(**extra) -> dict:
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_both_ways_of_starting_the_cli_go_through_the_entry(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = script["unitarize"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    # python -m runs the module as __main__; the child reports the collector
    # as the command left it, after the exit the entry asked for
    path = write_matrix(tmp_path, "t.json", INVOLUTION)
    code = (
        "import gc, runpy, sys\n"
        "sys.argv = ['unitarize', 'check', '--in', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('unitarize.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, path], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr.split() == ["0", "False", "True"], proc.stderr
    assert json.loads(proc.stdout)["verdicts"]["outcome"] == "uniformly_bounded"


def test_a_fresh_process_gives_the_in_process_bytes(tmp_path, monkeypatch, submitted):
    # n = 24 with BLAS pinned: on two or more CPUs each decision hands its
    # power norms to the worker thread, here and in the child, so the child
    # runs the worker with the collector off
    rng = np.random.default_rng(25)
    phases = jittered_unimodular_phases(rng, 24, margin=1.5 * np.pi / 24)
    t1, _, _ = conjugated_unitary(rng, 24, 10.0, phases)
    t2, _, _ = conjugated_unitary(rng, 24, 10.0, phases)
    argv = ["intertwine", "--t1", write_matrix(tmp_path, "a.json", t1),
            "--t2", write_matrix(tmp_path, "b.json", t2)]
    pinned = dict.fromkeys(core.BLAS_THREAD_VARS, "1")
    for var, value in pinned.items():
        monkeypatch.setenv(var, value)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert json.loads(out.getvalue())["verdicts"]["outcome"] == "nonzero_connection"
    assert any(isinstance(task, core._Task) for task in submitted) == core._overlaps(True)
    proc = subprocess.run([sys.executable, "-m", "unitarize.cli", *argv],
                          env=_child_env(**pinned), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == out.getvalue().encode()


ALTMETRIC = ["altmetric", "--in", "t.json"]

# argv, the files it reads besides t.json, the one error line's message
CLI_REFUSALS = {
    "weights_list": (ALTMETRIC + ["--weights", "w.json"], {"w.json": [2.0, 3.0]},
                     "the weights file must map cluster index to weight"),
    "weights_key": (ALTMETRIC + ["--weights", "w.json"], {"w.json": {"a": 2.0}},
                    "cluster key 'a' is not an integer"),
    "weights_value": (ALTMETRIC + ["--weights", "w.json"], {"w.json": {"0": "x"}},
                      "weight for cluster 0 must be a number or a matrix payload"),
    "phi_string": (ALTMETRIC + ["--phi", "phi.json"], {"phi.json": "x"},
                   "the phi file must hold a number or an index-to-value map"),
    "hamiltonian_complex": (
        ["hamiltonian", "--dyn", "d.json", "--poisson", "p.json", "--energy", "e.json"],
        {"d.json": matrix_payload(1j * INVOLUTION),
         "p.json": matrix_payload(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)),
         "e.json": matrix_payload(np.eye(2, dtype=complex))},
        "the dynamics matrix must be real"),
}


@pytest.mark.parametrize("argv, files, message", CLI_REFUSALS.values(), ids=CLI_REFUSALS.keys())
def test_a_cli_refusal_exits_one_with_one_error_line(tmp_path, monkeypatch, capsys, argv, files,
                                                     message):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path, "t.json", INVOLUTION)
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
