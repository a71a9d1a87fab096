import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitarize import HermitianForm, InvalidInput
from unitarize.serialization import (
    AnalysisReport,
    canonical_json,
    form_payload,
    inputs_digest,
    load_json,
    matrix_payload,
    parse_form,
    parse_matrix,
)


def test_matrix_payload_round_trip(rng):
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = parse_matrix(matrix_payload(M))
    assert np.array_equal(M, back)
    assert back.dtype == np.complex128


def test_form_payload_round_trip(rng):
    G = np.array([[2.0, 0.5 + 0.25j], [0.5 - 0.25j, 1.0]])
    form = HermitianForm(G)
    back = parse_form(form_payload(form))
    assert_allclose(back.gram, form.gram, atol=0.0)


def test_file_round_trip(tmp_path, rng):
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_payload(M)))
    assert np.array_equal(parse_matrix(load_json(str(path))), M)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(form_payload(HermitianForm.identity(2))))
    assert parse_form(load_json(str(gpath))).is_identity()


def test_parse_matrix_reports_entry_location():
    bad = {"dim": 2, "data": [[0.0, 0.0], [1.0, "x"], [0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(InvalidInput, match="row 0, column 1"):
        parse_matrix(bad)
    with pytest.raises(InvalidInput, match="entries"):
        parse_matrix({"dim": 2, "data": [[0.0, 0.0]]})
    with pytest.raises(InvalidInput):
        parse_matrix({"dim": "two", "data": []})


def test_load_json_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,')
    with pytest.raises(InvalidInput, match="line 1"):
        load_json(str(path))


def test_canonical_json_is_stable():
    payload = {"b": 1.0, "a": [1 + 2j, 0.5], "n": np.float64(0.1)}
    first = canonical_json(payload)
    second = canonical_json(json.loads(json.dumps({"a": [[1.0, 2.0], 0.5], "b": 1.0, "n": 0.1})))
    assert first == second
    # seventeen significant digits survive a round trip
    assert json.loads(canonical_json(0.1 + 0.2)) == 0.1 + 0.2


def test_inputs_digest_ignores_key_order(rng):
    M = rng.standard_normal((2, 2))
    pay = matrix_payload(M)
    reordered = {k: pay[k] for k in sorted(pay, reverse=True)}
    assert inputs_digest([pay]) == inputs_digest([reordered])
    other = matrix_payload(M + 1.0)
    assert inputs_digest([pay]) != inputs_digest([other])


def test_report_renders_json_and_text():
    report = AnalysisReport(
        command="check",
        inputs_digest="0" * 64,
        tolerances={"unitarity_tol": 1e-9},
        verdicts={"outcome": "uniformly_bounded"},
        residuals={"invariance": 1.25e-10},
        scalars={"bound_estimate": 7.5},
        matrices={"gram": matrix_payload(np.eye(2))},
        warnings=["clustering ambiguous"],
    )
    blob = report.to_json()
    assert blob.endswith("\n")
    parsed = json.loads(blob)
    assert parsed["verdicts"]["outcome"] == "uniformly_bounded"
    assert report.to_json() == blob
    text = report.to_text()
    assert "outcome: uniformly_bounded" in text
    assert "invariance" in text


# -- bulk paths against the entry-by-entry reference ---------------------------


def _reference_render(obj, out):
    """The item-by-item renderer that canonical_json must match byte for byte."""
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not np.isfinite(val):
            raise InvalidInput("cannot serialize a non-finite number")
        out.append(format(val, ".17g"))
    elif isinstance(obj, (complex, np.complexfloating)):
        _reference_render([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise InvalidInput("report keys must be strings")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _reference_render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _reference_render(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _reference_render(obj.tolist(), out)
    else:
        raise InvalidInput(f"cannot serialize {type(obj).__name__} into a report")


def reference_json(obj) -> str:
    pieces = []
    _reference_render(obj, pieces)
    return "".join(pieces)


EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, 123456789012345678.0,
    1.0, -2.0, 3.0, 1e22, 0.5, 1e-7, 9.999999999999999e-5,
]
EDGE_PAIRS = [[a, b] for a, b in zip(EDGE_FLOATS, EDGE_FLOATS[::-1])]


@pytest.mark.parametrize(
    "obj",
    [
        EDGE_PAIRS,
        [tuple(p) for p in EDGE_PAIRS],
        [EDGE_PAIRS[0], tuple(EDGE_PAIRS[1])] + EDGE_PAIRS[2:],
        {"m": {"dim": 10, "data": EDGE_PAIRS}, "x": EDGE_FLOATS},
        EDGE_PAIRS + [[1.0, 2]],
        EDGE_PAIRS + [[True, 1.0]],
        [[np.float64(0.1), 1.0]] + EDGE_PAIRS,
        EDGE_PAIRS[:5] + [["a", 1.0]] + EDGE_PAIRS[5:],
        EDGE_PAIRS + [[None, 1.0]],
        EDGE_PAIRS + [None],
        EDGE_PAIRS + [[1.0, 2.0, 3.0]],
        EDGE_PAIRS + [[1.0]],
        EDGE_PAIRS + [[]],
        EDGE_PAIRS + [1 + 2j],
        [[1, 2], [3, 4]],
        [[False, True]],
        [],
        [[]],
        [[0.1, 0.2]],
        [(0.1, 0.2)],
        [0.1, 0.2],
        [[[0.1, 0.2]]],
        [[[0.1, 0.2], [0.3, -0.0]], [[1e16, 1e17]], []],
        np.array(EDGE_PAIRS),
        [1.0, -0.0] * 50,
    ],
)
def test_canonical_json_matches_reference(obj):
    assert canonical_json(obj) == reference_json(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", [0, 7, -1])
def test_canonical_json_rejects_non_finite_pair(bad, where):
    pairs = [list(p) for p in EDGE_PAIRS]
    pairs[where][1] = bad
    for obj in (pairs, {"data": pairs}):
        with pytest.raises(InvalidInput, match="^cannot serialize a non-finite number$"):
            reference_json(obj)
        with pytest.raises(InvalidInput, match="^cannot serialize a non-finite number$"):
            canonical_json(obj)


def test_canonical_json_matches_reference_on_large_matrix(rng):
    M = rng.standard_normal((64, 64)) * 10.0 ** rng.integers(-300, 300, (64, 64))
    M = M + 1j * rng.standard_normal((64, 64))
    M[0, 0] = -0.0
    payload = matrix_payload(M)
    assert canonical_json(payload) == reference_json(payload)
    raw = json.loads(json.dumps(payload))
    assert canonical_json([raw]) == reference_json([raw])


@pytest.fixture
def checked_renders(monkeypatch):
    """Make every canonical_json call (reports and input digests) assert
    equality with the reference renderer; yields the list of rendered sizes."""
    import unitarize.serialization as serialization

    bulk = serialization.canonical_json
    sizes = []

    def checked(obj):
        text = bulk(obj)
        assert text == reference_json(obj)
        sizes.append(len(text))
        return text

    monkeypatch.setattr(serialization, "canonical_json", checked)
    return sizes


def test_golden_corpus_reports_match_reference(checked_renders, tmp_path):
    from test_cli_golden import _load_corpus, run_case

    corpus = _load_corpus()
    assert corpus
    for case in corpus:
        workdir = tmp_path / case["name"]
        workdir.mkdir()
        run_case(case, str(workdir))
    assert len(checked_renders) >= len(corpus)


def test_n128_reports_match_reference(checked_renders, tmp_path, rng, capsys):
    from unitarize.cli import main
    from unitarize.fixtures import conjugated_unitary, jittered_unimodular_phases

    phases = jittered_unimodular_phases(rng, 128, margin=1.5 * np.pi / 128)
    paths = []
    for name in ("t", "u"):
        T, _, _ = conjugated_unitary(rng, 128, 10.0, phases)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matrix_payload(T)))
        paths.append(str(path))
    assert main(["nagy", "--in", paths[0]]) == 0
    assert main(["intertwine", "--t1", paths[0], "--t2", paths[1]]) == 0
    capsys.readouterr()
    # two digests and two reports, each report holding n*n pairs at least
    assert len(checked_renders) == 4
    assert sum(size > 128 * 128 * 10 for size in checked_renders) >= 2


def _bits(a) -> list:
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64).tolist()


BAD_ENTRIES = [
    [True, 0.0],
    [0.0, False],
    True,
    ["1.0", 0.0],
    "1.0",
    [None, 0.0],
    None,
    [1.0, 2.0, 3.0],
    [1.0],
    {"re": 1.0, "im": 0.0},
    (1.0, 0.0),
]


@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
@pytest.mark.parametrize("k", [0, 4, 8])
def test_parse_matrix_locates_malformed_entry(bad, k):
    data = [[float(j), -1.0] for j in range(9)]
    data[k] = bad
    with pytest.raises(
        InvalidInput, match=rf"^entry {k} \(row {k // 3}, column {k % 3}\) must be a "
    ):
        parse_matrix({"dim": 3, "data": data})


def test_parse_matrix_converts_ints_like_complex():
    values = [0, -3, 7, 2**53 + 1, -(2**53 + 1), 2**70, 2**63, -(2**64) - 1, 1.5, -0.0]
    data = [[values[j], values[-1 - j]] for j in range(9)]
    got = parse_matrix({"dim": 3, "data": data})
    want = np.array([complex(re, im) for re, im in data]).reshape(3, 3)
    assert _bits(got) == _bits(want)


def test_parse_matrix_rejects_out_of_range_numbers():
    with pytest.raises(InvalidInput, match="matrix entries must be finite"):
        parse_matrix(json.loads('{"dim": 1, "data": [[1e400, 0]]}'))
    data = [[0.0, 0.0], [1.0, 10**400], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(InvalidInput, match=r"entry 1 \(row 0, column 1\) is too large"):
        parse_matrix({"dim": 2, "data": data})


def test_parse_matrix_round_trip_keeps_every_bit(rng):
    M = rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6))
    M = M + 1j * rng.standard_normal((6, 6))
    M.flat[:6] = [-0.0, 5e-324, -5e-324 - 0.0j, 1e308, 2.2250738585072014e-308, 1e16 + 1e17j]
    assert _bits(parse_matrix(matrix_payload(M))) == _bits(M)
    # Through text only the sign of zero is lost: -0.0 renders as -0, which
    # reads back as the integer 0.
    want = np.empty_like(M)
    want.real, want.imag = M.real + 0.0, M.imag + 0.0
    via_text = json.loads(canonical_json(matrix_payload(M)))
    assert _bits(parse_matrix(via_text)) == _bits(want)


def test_parse_matrix_rejects_boolean_dim(tmp_path, capsys):
    with pytest.raises(InvalidInput, match='"dim" must be a positive integer'):
        parse_matrix({"dim": True, "data": [[1.0, 0.0]]})
    from unitarize.cli import main

    path = tmp_path / "t.json"
    path.write_text('{"dim": true, "data": [[1.0, 0.0]]}')
    assert main(["check", "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and '"dim"' in err
