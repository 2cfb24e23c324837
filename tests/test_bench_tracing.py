"""The traced benchmark patches invlab names that must keep existing."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_shim_target_resolves(monkeypatch):
    # Recorder.__enter__ wraps each (owner, attr) of SHIMS; a name that no
    # longer exists would make every traced call fail.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in tracing.SHIMS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing
