"""JSON interchange for matrices, forms, and analysis reports.

A matrix travels as {"dim": n, "data": [[re, im], ...]} with n*n entries in
row-major order; a Hermitian form adds {"kind": "hermitian_form"}.  Reports
render through a canonical serializer (sorted keys, fixed float precision)
so that identical inputs produce byte-identical output.

Matrix data moves in bulk.  `matrix_payload` reads the [re, im] pairs off a
float64 view of the array, `parse_matrix` converts a well-formed "data" list
with one numpy call, and `canonical_json` renders a list of [re, im] pairs
of exact floats with one "%.17g" format over all of its values.  "%.17g"
and format(v, ".17g") are the same conversion, so the bulk paths produce
the same bytes and the same floats as rendering and converting entry by
entry, which still handles every other list and reports malformed entries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import HermitianForm, _is_integer, _shown, as_operator
from .errors import InvalidInput

FORM_KIND = "hermitian_form"


def matrix_payload(a) -> dict:
    arr = as_operator(a)
    n = arr.shape[0]
    data = arr.reshape(-1).view(np.float64).reshape(-1, 2).tolist()
    return {"dim": n, "data": data}


def form_payload(form: HermitianForm) -> dict:
    out = matrix_payload(form.gram)
    out["kind"] = FORM_KIND
    return out


def parse_matrix(payload) -> np.ndarray:
    if not isinstance(payload, dict):
        raise InvalidInput("matrix payload must be a JSON object")
    if "dim" not in payload or "data" not in payload:
        raise InvalidInput('matrix payload needs the keys "dim" and "data"')
    n = payload["dim"]
    if not _is_integer(n):
        raise InvalidInput('"dim" must be a positive integer')
    data = payload["data"]
    if not isinstance(data, list) or len(data) != n * n:
        raise InvalidInput(
            f'"data" must list dim*dim = {n * n} entries, got '
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    values = _pair_values(data, {list}, {int, float})
    if values is not None:
        try:
            flat = np.array(values, dtype=np.float64).view(np.complex128)
        except OverflowError:
            pass  # an int beyond float range; the loop below locates it
        else:
            return as_operator(flat.reshape(n, n))
    flat = np.empty(n * n, dtype=np.complex128)
    for k, entry in enumerate(data):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        ):
            raise InvalidInput(
                f"entry {k} (row {k // n}, column {k % n}) must be a "
                f"[re, im] pair of numbers"
            )
        try:
            flat[k] = complex(entry[0], entry[1])
        except OverflowError:
            raise InvalidInput(
                f"entry {k} (row {k // n}, column {k % n}) is too large for a float"
            ) from None
    return as_operator(flat.reshape(n, n))


def parse_form(payload) -> HermitianForm:
    """A form payload (a matrix payload, kind "hermitian_form" if given)
    validated as a HermitianForm."""
    if isinstance(payload, dict) and payload.get("kind", FORM_KIND) != FORM_KIND:
        raise InvalidInput(f'form payload has kind {_shown(payload["kind"])}')
    return HermitianForm(parse_matrix(payload))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc.msg} at line {exc.lineno}, "
                           f"column {exc.colno}") from exc
    # an int of more digits than Python converts, no UTF-8, nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pieces: list[str] = []
    _render(obj, pieces)
    return "".join(pieces)


def _render(obj, out: list[str]) -> None:
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
        _render([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InvalidInput("report keys must be strings")
            if k:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _render(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if _render_float_pairs(obj, out):
            return
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out)
    else:
        raise InvalidInput(f"cannot serialize {type(obj).__name__} into a report")


def _pair_values(items: list, item_types: set, value_types: set) -> tuple | None:
    """The values of a non-empty list of 2-element items, flattened in order.

    None when the list is empty, or when an item's type is not exactly one
    of `item_types` or a value's not exactly one of `value_types` (so a bool
    is no int and an np.float64 no float here).
    """
    if not set(map(type, items)) <= item_types or set(map(len, items)) != {2}:
        return None
    flat = tuple(chain.from_iterable(items))
    return flat if set(map(type, flat)) <= value_types else None


def _render_float_pairs(items, out: list[str]) -> bool:
    """Render a list of [re, im] pairs of exact floats with one format call.

    Returns False, rendering nothing, when any item is not a 2-element list
    or tuple of two `float`s, so that `_render` takes the list item by item.
    """
    flat = _pair_values(items, {list, tuple}, {float})
    if flat is None:
        return False
    if not np.isfinite(flat).all():
        raise InvalidInput("cannot serialize a non-finite number")
    out.append("[" + ",".join(["[%.17g,%.17g]"] * len(items)) % flat + "]")
    return True


def inputs_digest(payloads: list) -> str:
    """Stable digest of the parsed inputs feeding one analysis."""
    blob = canonical_json(payloads).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(eq=False)
class AnalysisReport:
    """One analysis run, rendered identically for identical inputs."""

    command: str
    inputs_digest: str
    tolerances: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    matrices: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "residuals": self.residuals,
            "scalars": self.scalars,
            "matrices": self.matrices,
            "warnings": list(self.warnings),
        }
        return canonical_json(body) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"inputs: {self.inputs_digest[:16]}"]
        for name in sorted(self.verdicts):
            lines.append(f"{name}: {self.verdicts[name]}")
        for name, val in sorted(self.scalars.items()):
            if isinstance(val, float):
                lines.append(f"{name}: {val:.12g}")
            else:
                lines.append(f"{name}: {val}")
        for name in sorted(self.residuals):
            lines.append(f"residual {name}: {self.residuals[name]:.6e}")
        for name in sorted(self.matrices):
            payload = self.matrices[name]
            lines.append(f"matrix {name}: dim {payload['dim']}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"
