"""The benchmark workloads' seed-0 embed bill, held by the suite: how texts
are batched into ``embed_many`` calls may change, but not how many texts each
workload embeds, targets included. Over the service, ``recon_remote``'s texts
are embedded by the server's ``NgramEmbedder``, in the same process."""

import importlib
from pathlib import Path

import pytest

from invlab.embeddings import NgramEmbedder

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize(
    "name, texts", [("defense_sweep", 21_560), ("recon_remote", 4_342), ("xling_wide", 22_634)]
)
def test_seed_0_texts_embedded(monkeypatch, tmp_path, name, texts):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    workload = workloads.setup(name, run.DEFAULT_SEED, tmp_path)
    embedded = []
    real_embed_many = NgramEmbedder.embed_many

    def spy(embedder, batch):
        embedded.append(len(batch))
        return real_embed_many(embedder, batch)

    monkeypatch.setattr(NgramEmbedder, "embed_many", spy)
    try:
        workload.call(tmp_path / "report.csv")
    finally:
        workload.close()
    assert sum(embedded) == texts
