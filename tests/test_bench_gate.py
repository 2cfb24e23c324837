"""The benchmark's output gate, held by the suite: at seed 0 every workload's
report equals the one pinned in ``benchmarks/expected.json``, and
``recon_remote``'s report over the service equals its local one. A change
that fails here would be refused by the benchmark as incorrect output."""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("name", ["defense_sweep", "recon_remote", "xling_wide"])
def test_seed_0_report_matches_pinned(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    pinned = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[name]
    workload = workloads.setup(name, run.DEFAULT_SEED, tmp_path)
    try:
        output = local = run.report_output(workload.call(tmp_path / "report.csv"))
        if workload.local_call is not workload.call:
            local = run.report_output(workload.local_call(tmp_path / "local.csv"))
    finally:
        workload.close()
    assert output == (pinned["digest"], pinned["queries"])
    assert local == output
