import dataclasses
import json

import numpy as np
import pytest

from unitarize import HermitianForm, ToleranceConfig
from unitarize.cli import _TOLERANCE_OPTIONS, SUBCOMMANDS, main
from unitarize.core import PSD_RTOL
from unitarize.families import make_clock_shift
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    unimodular_phases,
)
from unitarize.metrics import DRIFT_RTOL
from unitarize.serialization import form_payload, matrix_payload

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


@pytest.mark.parametrize("seed", ["abc", "-1", "", "1.5"])
def test_example_random_rejects_a_malformed_seed(capsys, monkeypatch, seed):
    monkeypatch.setenv("UNITARIZE_SEED", seed)
    assert main(["example", "--random", "shift"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: UNITARIZE_SEED") and captured.out == ""
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


@pytest.mark.parametrize("argv", [
    ["check"],
    ["bogus"],
    ["check", "--in", "@t", "--no-such-option"],
    ["check", "--in", "@t", "--h0", "identity"],
    ["cayley", "--in", "@t", "--h0", "identity"],
    ["altmetric", "--in", "@t", "--weights", "@w", "--phi", "@w"],
    ["altmetric", "--in", "@t", "--weights", "@w", "--h0", "@g"],
    ["cayley", "--in", "@t", "--tol-cluster", "1e-6"],
    ["hamiltonian", "--dyn", "@t", "--poisson", "@t", "--energy", "@t", "--horizon", "64"],
    ["oracle", "--in", "@t", "--tol-unitary", "1e-6"],
    ["check", "--in", "@t", "--horizon", "64"],
], ids=["missing_in", "unknown_subcommand", "unknown_option", "check_h0", "cayley_h0",
        "weights_and_phi", "weights_h0", "cayley_tol_cluster", "hamiltonian_horizon",
        "oracle_tol_unitary", "check_horizon"])
def test_argparse_usage_errors_exit_one(tmp_path, capsys, argv):
    paths = {"t": write_matrix(tmp_path, "t.json", INVOLUTION), "w": str(tmp_path / "w.json"),
             "g": str(tmp_path / "g.json")}
    (tmp_path / "w.json").write_text(json.dumps({"0": 1.5, "1": 0.5}))
    (tmp_path / "g.json").write_text(json.dumps(form_payload(HermitianForm(np.diag([2.0, 1.0])))))
    assert main([paths[a[1:]] if a.startswith("@") else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


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
