"""The traced benchmark's span contract, at small sizes.

BENCHMARK.json names per-layer metrics ``<workload>.<module>.<function>.<field>``
and ``sweep.n<dim>.<module>.<function>.<field>``; the traced run
(``bench/run.py --trace 1``) raises when such a library function records no
call.  Here each kind of call a workload sends runs once at n = 12 with every
named function wrapped in each module that binds it, as bench/tracer.py
wraps them, so a refactor that bypasses one fails in about a second.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import unitarize
from unitarize.fixtures import (
    commuting_conjugated_pair,
    conjugated_unitary,
    defective_unimodular,
    invertible_with_condition,
)
from unitarize.serialization import matrix_payload

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
MODULES = {
    info.name: importlib.import_module(f"unitarize.{info.name}")
    for info in pkgutil.iter_modules(unitarize.__path__)
}
N = 12
HORIZON = 2**6


def required_spans(group):
    """The <module>.<function> names of the group's per-layer metrics that are
    functions of unitarize; LAPACK spans and derived figures are left out."""
    spans = set()
    for metric in BENCHMARK["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] != group:
            continue
        module, function = parts[2:4] if group == "sweep" else parts[1:3]
        if inspect.isfunction(getattr(MODULES.get(module), function, None)):
            spans.add(f"{module}.{function}")
    return spans


def record_calls(monkeypatch, spans):
    """Wrap each named function in every module that binds it; the returned
    list gets the span name of each call, from any thread."""
    calls = []
    for mod in MODULES.values():
        for attr, value in list(vars(mod).items()):
            if not inspect.isfunction(value) or not value.__module__.startswith("unitarize."):
                continue
            name = f"{value.__module__.removeprefix('unitarize.')}.{value.__name__}"
            if name in spans:

                def wrapper(*args, _fn=value, _name=name, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, attr, wrapper)
    return calls


def grid(n, offset=0.0):
    return np.mod(2.0 * np.pi * np.arange(n) / n + offset, 2.0 * np.pi)


def unitarize_n128(rng, tmp_path):
    t, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    unitarize.metrics.invariant_metric(t)
    with pytest.raises(unitarize.NotUniformlyBounded):
        unitarize.metrics.invariant_metric(defective_unimodular(rng, N, 10.0))


def connect_n64(rng, tmp_path):
    t1, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    t2, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    t3, _, _ = conjugated_unitary(rng, N, 10.0, grid(N, np.pi / N))
    assert unitarize.intertwine.intertwiner(t1, t2).rank == N
    assert unitarize.intertwine.intertwiner(t1, t3).rank == 0
    unitarize.families.commuting_pair_metric(*commuting_conjugated_pair(rng, N, 10.0))
    s = invertible_with_condition(rng, N, 10.0)
    unitarize.families.heisenberg_metric(
        *(np.linalg.solve(s, m @ s) for m in unitarize.families.make_clock_shift(N)))


def oracle_horizon(rng, tmp_path):
    t1, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    t2, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    unitarize.metrics.cesaro_oracle(t1, horizon=HORIZON)
    unitarize.intertwine.mixed_cesaro(t1, t2, horizon=HORIZON)


def cli_oneshot(rng, tmp_path):
    t, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_payload(t)))
    for command in ("check", "nagy"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert unitarize.cli.main([command, "--in", str(path)]) == 0


def sweep(rng, tmp_path):
    t1, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    t2, _, _ = conjugated_unitary(rng, N, 10.0, grid(N))
    form = unitarize.metrics.invariant_metric(t1).invariant_form
    unitarize.serialization.canonical_json(matrix_payload(form.gram))
    unitarize.intertwine.intertwiner(t1, t2)


SENDERS = {f.__name__: f for f in (unitarize_n128, connect_n64, oracle_horizon, cli_oneshot, sweep)}


def test_every_workload_has_its_small_calls():
    assert {w["name"] for w in BENCHMARK["workloads"]} | {"sweep"} == set(SENDERS)


# a horizon of 2**6 leaves the oracle's average drifting
@pytest.mark.filterwarnings("ignore::unitarize.errors.SlowConvergence")
@pytest.mark.parametrize("group", SENDERS)
def test_each_required_span_records_a_call(group, rng, tmp_path, monkeypatch):
    spans = required_spans(group)
    assert spans
    calls = record_calls(monkeypatch, spans)
    SENDERS[group](rng, tmp_path)
    assert sorted(spans - set(calls)) == []
