"""Spans around the library's public functions and numpy.linalg, from outside.

The tracer replaces every public function of the unitarize package in every
module that holds it by name (``from .core import eig`` leaves a second
binding in ``metrics``, ``boundedness`` and the rest), and the numpy.linalg
entry points the library calls as ``np.linalg.<name>``.  Each wrapper times
its call and subtracts the time of the wrapped calls made inside it, which
gives the self time.  LAPACK wrappers are spans too, so the self time of a
library function excludes the LAPACK work beneath it.

numpy's own ``norm`` and ``cond`` reach ``svd`` through module globals that
no outside wrapper can see, so ``norm(x, 2)``, ``cond(x)`` and
``matrix_rank(x)`` are counted as one SVD each at the public entry point.

Spans are aggregated per name as they close rather than stored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0


def _svd_norm(x, ord=None, axis=None, keepdims=False):
    return axis is None and np.ndim(x) == 2 and ord in (2, -2)


def _svd_cond(x, p=None):
    return p in (None, 2, -2)


# numpy.linalg attribute -> (span name, predicate saying whether the call is
# that span; None means always).
LINALG_SPANS = {
    "eig": ("linalg.eig", None),
    "svd": ("linalg.svd", None),
    "norm": ("linalg.svd", _svd_norm),
    "cond": ("linalg.svd", _svd_cond),
    "matrix_rank": ("linalg.svd", None),
    "eigh": ("linalg.eigh", None),
    "eigvalsh": ("linalg.eigh", None),
    "solve": ("linalg.solve", None),
    "inv": ("linalg.inv", None),
}


class Tracer:
    """Installs, records and removes the wrappers; one instance per run."""

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self.recording = False
        self._open: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, applies=None):
        tracer = self
        counts_bytes = name == "serialization.canonical_json"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or (applies is not None and not applies(*args, **kwargs)):
                return fn(*args, **kwargs)
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = tracer._open.pop()
                st = tracer.stats.setdefault(name, SpanStats())
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - child
                if tracer._open:
                    tracer._open[-1] += elapsed
            if counts_bytes:
                st.bytes += len(out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _library_modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self):
        if self._patches:
            raise RuntimeError("tracer wrappers are already installed")
        prefix = self.package.__name__ + "."
        wrappers = {}
        for mod in self._library_modules():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                key = id(value)
                if key not in wrappers:
                    name = f"{value.__module__[len(prefix):]}.{value.__name__}"
                    wrappers[key] = self._wrap(name, value)
                self._patch(mod, attr, wrappers[key])
        for attr, (name, applies) in LINALG_SPANS.items():
            self._patch(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr), applies))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.recording = False
        self._open.clear()

    # -- reading ------------------------------------------------------------

    def reset(self):
        self.stats = {}

    def get(self, name) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def require(self, names, where):
        """Raise when a wrapper that the work must reach recorded no call."""
        missing = [n for n in names if self.get(n).calls == 0]
        if missing:
            raise RuntimeError(
                f"{where}: no call recorded for {', '.join(missing)}; the function "
                f"was renamed, moved or bypassed, so its time would read as 0"
            )

    def table(self) -> dict:
        return {
            name: {
                "calls": st.calls,
                "total_s": st.total_s,
                "self_s": st.self_s,
                **({"bytes": st.bytes} if st.bytes else {}),
            }
            for name, st in sorted(self.stats.items())
        }
