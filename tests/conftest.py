import os
import zlib

import numpy as np
import pytest

from unitarize import core

# One base seed for the whole run, overridable for soak testing.
BASE_SEED = int(os.environ.get("UNITARIZE_SEED", "20260821"))


@pytest.fixture
def rng(request):
    """Fresh generator per test, salted by the test name."""
    salt = zlib.crc32(request.node.name.encode())
    return np.random.default_rng([BASE_SEED, salt])


@pytest.fixture
def submitted(monkeypatch):
    """Every object a double-and-add pass or a decision waits on, in
    submission order: the worker's tasks, or serial stand-ins."""
    out = []
    real = core._overlap_submit

    def recording(n):
        submit = real(n)

        def record(fn, *args):
            out.append(submit(fn, *args))
            return out[-1]

        return record

    monkeypatch.setattr(core, "_overlap_submit", recording)
    return out
