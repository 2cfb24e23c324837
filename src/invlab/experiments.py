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
from .inversion import AttackConfig, AttackResult, EditMutationGenerator, invert_many
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


def _test_split(corpus: Corpus, size: int) -> list[TextSample]:
    return list(corpus.samples[: max(size, 0)])


class _Runtime:
    """Shared embedder handles for one experiment run, local or remote."""

    def __init__(self, config: ExperimentConfig, remote: tuple[str, int] | None):
        self.config = config
        if remote is None:
            self.client = None
            self.attack_embedder: BlackBoxEmbedder = NgramEmbedder(config.embedder)
        else:
            self.client = EaasClient(*remote)
            self.attack_embedder = RemoteEmbedder(self.client, dim=config.embedder.dim)

    def defended_targets(
        self,
        samples: list[TextSample],
        defense: DefenseConfig | None,
        context: DefenseContext | None,
    ) -> list[Embedding]:
        """Language-tagged embeddings of the samples, defended when
        ``defense`` is set, from one batch request."""
        if not samples:
            return []
        texts = [s.text for s in samples]
        langs = [s.lang for s in samples]
        if self.client is not None:
            embs, _ = eaas_embed(self.client, texts, defense=defense, langs=langs, context=context)
            return embs
        return embed_many_with_defense(self.attack_embedder, texts, langs, defense, context)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()


def _agnostic_context(
    runtime: _Runtime, samples_by_lang: dict[str, list[TextSample]]
) -> DefenseContext:
    pool = []
    for lang in sorted(samples_by_lang):
        pool.extend(runtime.defended_targets(samples_by_lang[lang], None, None))
    return DefenseContext(compute_group_means(pool))


def _attack_split(
    runtime: _Runtime,
    samples: list[TextSample],
    targets: list[Embedding],
    vocab: list[str],
    steps: int,
    beam: int,
    labels: tuple[str, ...],
) -> tuple[list[AttackResult], int, float]:
    """Invert every sample's target embedding with the given vocabulary, all
    of the split's attacks in lockstep (``invert_many``).

    Each sample's generator is seeded from the run seed, ``labels`` and the
    sample id. Returns the results, their summed queries and the split's
    attack wall time in seconds.
    """
    config = runtime.config
    attack_config = AttackConfig(
        vocab=tuple(vocab),
        steps=steps,
        beam_width=beam,
        max_tokens=config.attack.max_tokens,
        query_budget=config.attack.query_budget,
    )
    gens = [
        EditMutationGenerator(
            vocab,
            max_tokens=config.attack.max_tokens,
            seed=stable_seed(config.seed, "gen", *labels, sample.id),
        )
        for sample in samples
    ]
    results = invert_many(targets, runtime.attack_embedder, gens, attack_config)
    return results, sum(r.queries_used for r in results), sum(r.wall_time for r in results)


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
    """
    languages = sorted(languages if languages is not None else config.corpora)
    corpora = _load_corpora(config, languages)
    runtime = _Runtime(config, remote)
    try:
        vocabs = {lang: _corpus_vocab(corpora[lang]) for lang in languages}
        union_vocab = sorted({tok for vocab in vocabs.values() for tok in vocab})
        splits = {lang: _test_split(corpora[lang], config.test_size) for lang in languages}
        context = None
        if defense is not None and defense.language_agnostic:
            context = _agnostic_context(runtime, splits)
        defense_label = _defense_label(defense)
        report = ExperimentReport()
        for lang in languages:
            samples = splits[lang]
            if not samples:
                raise ValueError(f"no test samples for language {lang!r}")
            targets = runtime.defended_targets(samples, defense, context)
            for condition, vocab in (("mono", vocabs[lang]), ("multi", union_vocab)):
                for steps in config.attack.steps:
                    for beam in config.attack.beams:
                        results, queries, wall = _attack_split(
                            runtime, samples, targets, vocab, steps, beam, (condition, lang)
                        )
                        report.add(
                            ReportRow(
                                experiment_id=f"recon_{condition}",
                                lang=lang,
                                steps=steps,
                                beam=beam,
                                defense=defense_label,
                                metrics=aggregate(_pair_reports(results, samples)),
                                queries=queries,
                                wall_ms=max(wall * 1000.0, 1e-6),
                            )
                        )
        return report
    finally:
        runtime.close()


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


def load_translator(config: ExperimentConfig, pairs: list[tuple[str, str]]) -> DictionaryTranslator:
    """Build a translator from the configured dictionary files."""
    translator = DictionaryTranslator()
    for src, tgt in pairs:
        if src == tgt:
            continue
        key = f"{src}-{tgt}"
        if key not in config.dictionaries:
            raise ValueError(f"no dictionary configured for pair {key}")
        translator.add_pair(src, tgt, load_dictionary_tsv(config.dictionaries[key]))
    return translator


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
        translator = load_translator(config, [(src, tgt)])
    vocab = _corpus_vocab(corpora[src])
    samples = _test_split(corpora[tgt], config.test_size)
    if not samples:
        raise ValueError(f"no test samples for language {tgt!r}")
    steps = max(config.attack.steps)
    beam = max(config.attack.beams)
    runtime = _Runtime(config, remote)
    try:
        targets = runtime.defended_targets(samples, None, None)
        results, queries, attack_wall = _attack_split(
            runtime, samples, targets, vocab, steps, beam, ("xling", src, tgt)
        )
        pre_reports: list[MetricReport] = []
        post_reports: list[MetricReport] = []
        gains: list[float] = []
        rescore_start = time.perf_counter()
        for sample, result in zip(samples, results):
            gain = translated_metrics(
                result.best.text, src, sample.text, tgt, translator, runtime.attack_embedder
            )
            pre_reports.append(gain.pre)
            post_reports.append(gain.post)
            if gain.gain_pct is not None:
                gains.append(gain.gain_pct)
        rescore_wall = max(time.perf_counter() - rescore_start, 1e-9)
        pair_label = f"{src}->{tgt}"
        report = ExperimentReport()
        report.add(
            ReportRow(
                "xling_pre", pair_label, steps, beam, "none",
                aggregate(pre_reports), queries, max(attack_wall * 1000.0, 1e-6),
            )
        )
        report.add(
            ReportRow(
                "xling_post", pair_label, steps, beam, "none",
                aggregate(post_reports), 0, max(rescore_wall * 1000.0, 1e-6),
            )
        )
        mean_gain = sum(gains) / len(gains) if gains else 0.0
        gain_metrics = MetricReport(
            bleu=mean_gain,
            rouge1_recall=0.0,
            token_f1=0.0,
            exact_match=0.0,
            cos=0.0,
            num_tokens_ref=0.0,
            num_tokens_pred=0.0,
            num_pairs=len(gains) if gains else 1,
        )
        report.add(
            ReportRow(
                "xling_gain", pair_label, steps, beam, "none",
                gain_metrics, 0, 1e-6,
            )
        )
        return report
    finally:
        runtime.close()


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
        tasks = []
        for spec in config.retrieval_tasks:
            queries = load_jsonl_corpus(spec["queries"])
            docs = load_jsonl_corpus(spec["docs"])
            tasks.append(
                RetrievalTask(
                    name=spec.get("name", "task"),
                    queries=list(queries),
                    docs=list(docs),
                    qrels=load_qrels_tsv(spec["qrels"]),
                )
            )
        return tasks
    langs = sorted(config.corpora)
    tasks = [
        synthetic_retrieval_task(
            f"mono-{lang}", lang, lang, seed=stable_seed(config.seed, "task", lang)
        )
        for lang in langs
    ]
    if len(langs) >= 2:
        a, b = langs[0], langs[1]
        tasks.append(
            synthetic_retrieval_task(
                f"xling-{a}-{b}", a, b, seed=stable_seed(config.seed, "task", a, b)
            )
        )
        tasks.append(
            synthetic_retrieval_task(
                f"xling-{b}-{a}", b, a, seed=stable_seed(config.seed, "task", b, a)
            )
        )
    return tasks


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
    splits = {lang: _test_split(corpora[lang], config.test_size) for lang in langs}
    vocabs = {lang: _corpus_vocab(corpora[lang]) for lang in langs}
    tasks = build_retrieval_tasks(config)
    runtime = _Runtime(config, remote)
    try:
        report = ExperimentReport()
        plot_rows = []
        for label, defense in _sweep_cells(config, langs):
            context = None
            if defense.language_agnostic:
                context = _agnostic_context(runtime, splits)
            reports = []
            queries = 0
            wall = 0.0
            for lang in langs:
                samples = splits[lang]
                targets = runtime.defended_targets(samples, defense, context)
                results, used, spent = _attack_split(
                    runtime,
                    samples,
                    targets,
                    vocabs[lang],
                    DEFENSE_SWEEP_STEPS,
                    DEFENSE_SWEEP_BEAM,
                    ("defense", lang),
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
                    experiment_id="defense",
                    lang="all",
                    steps=DEFENSE_SWEEP_STEPS,
                    beam=DEFENSE_SWEEP_BEAM,
                    defense=label,
                    metrics=metrics,
                    queries=queries,
                    wall_ms=max(wall * 1000.0, 1e-6),
                    ndcg=ndcg,
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
    finally:
        runtime.close()
