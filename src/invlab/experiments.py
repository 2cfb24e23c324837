"""Experiment drivers: reconstruction sweeps, cross-lingual evaluation with
translation rescoring, and the defense trade-off study.

Every run is a pure function of its configuration: per-sample generator
seeds derive from the experiment seed, attack probes always query the raw
embedder, and only the attacked target embeddings pass through the defense
stack. In remote mode the same target embeddings are requested over the
wire with the defense as a per-request override, and the attack's probe
queries cross the wire undefended, so local and remote runs produce
identical reports.
"""

import csv
import time
from pathlib import Path

from .config import ExperimentConfig
from .corpus import Corpus, load_jsonl_corpus
from .datagen import synthetic_retrieval_task
from .defenses import (
    DefenseConfig,
    DefenseContext,
    assign_language_ids,
    compute_group_means,
    embed_many_with_defense,
)
from .eaas import EaasClient, RemoteEmbedder, eaas_embed
from .embeddings import BlackBoxEmbedder, Embedding, NgramEmbedder, TextSample
from .inversion import AttackConfig, AttackResult, EditMutationGenerator, invert_grid
from .inversion import invert  # unused here; benchmarks/tracing.py patches this name
from .metrics import MetricReport, aggregate, pair_report
from .report import ExperimentReport, ReportRow
from .retrieval import RetrievalTask, evaluate_task, load_qrels_tsv
from .seeding import stable_seed
from .translate import DictionaryTranslator, load_dictionary_tsv, translated_metrics

DEFENSE_SWEEP_STEPS = 10
DEFENSE_SWEEP_BEAM = 4


def _load_corpora(config: ExperimentConfig, languages: list[str]) -> dict[str, Corpus]:
    missing = [lang for lang in languages if lang not in config.corpora]
    if missing:
        raise ValueError(f"no corpus configured for languages {missing}")
    return {lang: load_jsonl_corpus(config.corpora[lang]) for lang in languages}


def _corpus_vocab(corpus: Corpus) -> list[str]:
    return sorted({tok for sample in corpus for tok in sample.text.split()})


def _test_splits(
    config: ExperimentConfig, corpora: dict[str, Corpus]
) -> dict[str, list[TextSample]]:
    """The first ``test_size`` samples of each corpus, in the corpora's order;
    raises ValueError for a language whose split is empty."""
    splits = {}
    for lang, corpus in corpora.items():
        splits[lang] = list(corpus.samples[: max(config.test_size, 0)])
        if not splits[lang]:
            raise ValueError(f"no test samples for language {lang!r}")
    return splits


def _ms(seconds: float) -> float:
    """A row's wall time in milliseconds, floored so it is always positive."""
    return max(seconds * 1000.0, 1e-6)


class _Runtime:
    """Shared embedder handles for one experiment run, local or remote; a
    ``with`` block closes the service connection."""

    def __init__(self, config: ExperimentConfig, remote: tuple[str, int] | None):
        self.config = config
        if remote is None:
            self.client = None
            self.attack_embedder: BlackBoxEmbedder = NgramEmbedder(config.embedder)
        else:
            self.client = EaasClient(*remote)
            self.attack_embedder = RemoteEmbedder(self.client, dim=config.embedder.dim)

    def __enter__(self) -> "_Runtime":
        return self

    def __exit__(self, *exc) -> None:
        if self.client is not None:
            self.client.close()

    def targets(
        self, splits: dict[str, list[TextSample]], defense: DefenseConfig | None
    ) -> dict[str, list[Embedding]]:
        """Language-tagged embeddings of every split, defended when ``defense``
        is set, from one batch request per split in the order of ``splits``;
        the only place the drivers wrap rows as ``Embedding``s.

        The language-agnostic stage subtracts group means taken over all the
        undefended splits, so those are embedded first when it is on.
        """
        context = None
        if defense is not None and defense.language_agnostic:
            undefended = self.targets(splits, None).values()
            context = DefenseContext(compute_group_means([e for embs in undefended for e in embs]))
        targets = {}
        for lang, samples in splits.items():
            texts = [s.text for s in samples]
            langs = [s.lang for s in samples]
            if self.client is not None:
                rows, _ = eaas_embed(
                    self.client, texts, defense=defense, langs=langs, context=context
                )
            else:
                rows = embed_many_with_defense(self.attack_embedder, texts, langs, defense, context)
            targets[lang] = [Embedding._trusted(row, tag) for row, tag in zip(rows, langs)]
        return targets

    def attack(
        self,
        samples: list[TextSample],
        targets: list[Embedding],
        vocab: list[str],
        cells: list[tuple[int, int]],
        labels: tuple[str, ...],
    ) -> list[tuple[list[AttackResult], int, float]]:
        """Invert every sample's target embedding with the given vocabulary
        once per (steps, beam) cell, all in one ``invert_grid`` call. Each
        sample's generator is seeded from the run seed, ``labels`` and the
        sample id, never from a cell. Returns, per cell, the results, their
        summed queries and the cell's attack wall time in seconds.
        """
        seed, sweep = self.config.seed, self.config.attack
        attack_configs = [
            AttackConfig(tuple(vocab), steps, beam, sweep.max_tokens, sweep.query_budget)
            for steps, beam in cells
        ]
        gens = [
            EditMutationGenerator(
                vocab, sweep.max_tokens, seed=stable_seed(seed, "gen", *labels, sample.id)
            )
            for sample in samples
        ]
        grid = invert_grid(targets, self.attack_embedder, gens, attack_configs)
        return [
            (results, sum(r.queries_used for r in results), sum(r.wall_time for r in results))
            for results in grid
        ]


def _pair_reports(results: list[AttackResult], samples: list[TextSample]) -> list[MetricReport]:
    return [pair_report(r.best.text, s.text, cos=r.best.score) for r, s in zip(results, samples)]


def run_reconstruction(
    config: ExperimentConfig,
    languages: list[str] | None = None,
    defense: DefenseConfig | None = None,
    remote: tuple[str, int] | None = None,
) -> ExperimentReport:
    """Per-language and pooled-vocabulary attack sweeps over steps x beams.

    The "mono" condition restricts the attack vocabulary to the test
    language; "multi" attacks every language with the union vocabulary.
    Each (language, condition) split runs its whole grid as one attack call.
    """
    languages = sorted(languages if languages is not None else config.corpora)
    corpora = _load_corpora(config, languages)
    vocabs = {lang: _corpus_vocab(corpora[lang]) for lang in languages}
    union_vocab = sorted({tok for vocab in vocabs.values() for tok in vocab})
    splits = _test_splits(config, corpora)
    defense_label = _defense_label(defense)
    report = ExperimentReport()
    with _Runtime(config, remote) as runtime:
        targets = runtime.targets(splits, defense)
        for lang, samples in splits.items():
            for condition, vocab in (("mono", vocabs[lang]), ("multi", union_vocab)):
                cells = [(s, b) for s in config.attack.steps for b in config.attack.beams]
                grid = runtime.attack(samples, targets[lang], vocab, cells, (condition, lang))
                for (steps, beam), (results, queries, wall) in zip(cells, grid):
                    metrics = aggregate(_pair_reports(results, samples))
                    report.add(
                        ReportRow(
                            f"recon_{condition}", lang, steps, beam, defense_label,
                            metrics, queries, _ms(wall),
                        )
                    )
    return report


def _defense_label(defense: DefenseConfig | None) -> str:
    if defense is None or not defense.enabled():
        return "none"
    parts = []
    if defense.language_agnostic:
        parts.append("agnostic")
    if defense.noise_lambda > 0:
        parts.append(f"noise:{defense.noise_lambda:g}")
    if defense.masking is not None:
        parts.append("mask")
    if defense.renormalize_after:
        parts.append("renorm")
    return "+".join(parts)


def run_crosslingual(
    config: ExperimentConfig,
    src: str,
    tgt: str,
    remote: tuple[str, int] | None = None,
    translator: DictionaryTranslator | None = None,
) -> ExperimentReport:
    """Attack target-language embeddings with a source-language vocabulary,
    then rescore reconstructions after dictionary translation.

    Emits three rows: raw metrics (xling_pre), post-translation metrics
    (xling_post), and the mean relative BLEU growth in percent, stored in the
    bleu column of the xling_gain row.
    """
    corpora = _load_corpora(config, sorted({src, tgt}))
    if translator is None:
        translator = DictionaryTranslator()
        if src != tgt:
            key = f"{src}-{tgt}"
            if key not in config.dictionaries:
                raise ValueError(f"no dictionary configured for pair {key}")
            translator.add_pair(src, tgt, load_dictionary_tsv(config.dictionaries[key]))
    vocab = _corpus_vocab(corpora[src])
    samples = _test_splits(config, {tgt: corpora[tgt]})[tgt]
    steps = max(config.attack.steps)
    beam = max(config.attack.beams)
    with _Runtime(config, remote) as runtime:
        targets = runtime.targets({tgt: samples}, None)[tgt]
        [(results, queries, attack_wall)] = runtime.attack(
            samples, targets, vocab, [(steps, beam)], ("xling", src, tgt)
        )
        rescore_start = time.perf_counter()
        rescored = [
            translated_metrics(
                result.best.text, src, sample.text, tgt, translator, runtime.attack_embedder
            )
            for sample, result in zip(samples, results)
        ]
        rescore_wall = time.perf_counter() - rescore_start
    gains = [g.gain_pct for g in rescored if g.gain_pct is not None]
    gain_metrics = MetricReport(
        bleu=sum(gains) / len(gains) if gains else 0.0,
        rouge1_recall=0.0,
        token_f1=0.0,
        exact_match=0.0,
        cos=0.0,
        num_pairs=len(gains) if gains else 1,
    )
    rows = (
        ("xling_pre", aggregate([g.pre for g in rescored]), queries, attack_wall),
        ("xling_post", aggregate([g.post for g in rescored]), 0, rescore_wall),
        ("xling_gain", gain_metrics, 0, 0.0),
    )
    return ExperimentReport(
        [
            ReportRow(experiment_id, f"{src}->{tgt}", steps, beam, "none", metrics, used, _ms(wall))
            for experiment_id, metrics, used, wall in rows
        ]
    )


def _sweep_cells(config: ExperimentConfig, langs: list[str]) -> list[tuple[str, DefenseConfig]]:
    cells: list[tuple[str, DefenseConfig]] = [("none", DefenseConfig())]
    noise_seed = stable_seed(config.seed, "noise")
    for lam in config.defense.lambdas:
        cells.append((f"noise:{lam:g}", DefenseConfig(noise_lambda=lam, noise_seed=noise_seed)))
    if config.defense.masking:
        ids = assign_language_ids(langs, scale=config.defense.mask_scale)
        cells.append(("mask", DefenseConfig(masking=ids)))
    if config.defense.language_agnostic:
        cells.append(("agnostic", DefenseConfig(language_agnostic=True)))
    return cells


def build_retrieval_tasks(config: ExperimentConfig) -> list[RetrievalTask]:
    """File-backed tasks when configured, synthetic ones otherwise."""
    if config.retrieval_tasks:
        return [
            RetrievalTask(
                name=spec.get("name", "task"),
                queries=list(load_jsonl_corpus(spec["queries"])),
                docs=list(load_jsonl_corpus(spec["docs"])),
                qrels=load_qrels_tsv(spec["qrels"]),
            )
            for spec in config.retrieval_tasks
        ]
    langs = sorted(config.corpora)
    pairs = [(lang, lang) for lang in langs]
    if len(langs) >= 2:
        pairs += [(langs[0], langs[1]), (langs[1], langs[0])]
    # A monolingual task is named and seeded by its one language.
    return [
        synthetic_retrieval_task(
            f"mono-{q}" if q == d else f"xling-{q}-{d}",
            q,
            d,
            seed=stable_seed(config.seed, "task", *((q,) if q == d else (q, d))),
        )
        for q, d in pairs
    ]


def run_defense_sweep(
    config: ExperimentConfig,
    remote: tuple[str, int] | None = None,
) -> ExperimentReport:
    """Reconstruction and retrieval under each defense cell.

    Attacks run with 10 correction steps at beam width 4 in every cell so
    defense effects are not confounded by search depth; retrieval reports
    mean NDCG@10 across the configured tasks. Also writes a plot-ready CSV
    (defense, level, ndcg, bleu) into the configured output directory.
    """
    langs = sorted(config.corpora)
    if not langs:
        raise ValueError("defense sweep needs at least one corpus")
    corpora = _load_corpora(config, langs)
    splits = _test_splits(config, corpora)
    vocabs = {lang: _corpus_vocab(corpora[lang]) for lang in langs}
    tasks = build_retrieval_tasks(config)
    report = ExperimentReport()
    plot_rows = []
    with _Runtime(config, remote) as runtime:
        for label, defense in _sweep_cells(config, langs):
            targets = runtime.targets(splits, defense)
            reports = []
            queries = 0
            wall = 0.0
            for lang, samples in splits.items():
                cell = (DEFENSE_SWEEP_STEPS, DEFENSE_SWEEP_BEAM)
                [(results, used, spent)] = runtime.attack(
                    samples, targets[lang], vocabs[lang], [cell], ("defense", lang)
                )
                reports += _pair_reports(results, samples)
                queries += used
                wall += spent
            ndcg = sum(
                evaluate_task(task, runtime.attack_embedder, defense) for task in tasks
            ) / len(tasks)
            metrics = aggregate(reports)
            report.add(
                ReportRow(
                    "defense", "all", DEFENSE_SWEEP_STEPS, DEFENSE_SWEEP_BEAM, label,
                    metrics, queries, _ms(wall), ndcg,
                )
            )
            level = f"{defense.noise_lambda:g}" if label.startswith("noise") or label == "none" else ""
            plot_rows.append([label, level, f"{ndcg:.6f}", f"{metrics.bleu:.6f}"])
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "defense_sweep_plot.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["defense", "level", "ndcg", "bleu"])
        writer.writerows(plot_rows)
    return report
