"""The traced benchmark patches invlab names that must keep existing."""

import importlib
from collections import Counter
from pathlib import Path

import invlab.defenses
import invlab.eaas
import invlab.experiments
import invlab.inversion
import invlab.retrieval
from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig
from invlab.corpus import save_jsonl_corpus
from invlab.datagen import parallel_corpora
from invlab.eaas import eaas_serve
from invlab.embeddings import NgramConfig, NgramEmbedder
from invlab.translate import DictionaryTranslator

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Functions the drivers must look up as module globals at call time, so the
# shims the traced benchmark installs there see every call: the attack's
# remote embedder goes through invlab.eaas.eaas_embed, its scorer through
# invlab.inversion.cosine, a defended remote target through
# invlab.experiments.eaas_embed, and every defended batch through
# apply_defense_stack: a local target's in invlab.defenses, a retrieval
# task's in invlab.retrieval, and every batch the service returns in
# invlab.eaas.
DRIVER_GLOBALS = (
    (invlab.defenses, "apply_defense_stack"),
    (invlab.retrieval, "apply_defense_stack"),
    (invlab.eaas, "apply_defense_stack"),
    (invlab.experiments, "evaluate_task"),
    (invlab.experiments, "pair_report"),
    (invlab.experiments, "translated_metrics"),
    (invlab.experiments, "eaas_embed"),
    (invlab.eaas, "eaas_embed"),
    (invlab.inversion, "cosine"),
)


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


def test_drivers_call_through_patched_globals(monkeypatch, tmp_path):
    # A driver that bound one of these names some other way would still run,
    # but its traced metrics would silently read 0.
    calls = Counter()
    for module, name in DRIVER_GLOBALS:
        original = getattr(module, name)
        key = f"{module.__name__}.{name}"

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    paths = {}
    for lang, corpus in parallel_corpora(["en"], 2, 6, 2, 3, seed=3).items():
        paths[lang] = str(tmp_path / f"{lang}.jsonl")
        save_jsonl_corpus(corpus, paths[lang])
    config = ExperimentConfig(
        corpora=paths,
        embedder=NgramConfig(n=3, dim=32, seed=5),
        attack=AttackSweep(steps=[1], beams=[1], max_tokens=3),
        defense=DefenseSweep(lambdas=[0.5], masking=False, language_agnostic=False),
        out_dir=str(tmp_path / "out"),
        test_size=2,
    )
    # A noised cell, so targets pass the stack locally and over the wire.
    with eaas_serve(NgramEmbedder(config.embedder)) as server:
        invlab.experiments.run_defense_sweep(config, remote=server.address)
        invlab.experiments.run_reconstruction(config, remote=server.address)
    invlab.experiments.run_defense_sweep(config)
    invlab.experiments.run_crosslingual(config, "en", "en", translator=DictionaryTranslator())
    keys = [f"{module.__name__}.{name}" for module, name in DRIVER_GLOBALS]
    assert {key: calls[key] > 0 for key in keys} == dict.fromkeys(keys, True)
