"""Experiment drivers: reconstruction sweeps, cross-lingual evaluation with
translation rescoring, and the defense trade-off study.

Every run is a pure function of its configuration: per-sample generator
seeds derive from the experiment seed, attack probes always query the raw
embedder, and only the attacked target embeddings pass through the defense
stack. A local run embeds each test split raw once and runs every defense
cell's stack on those rows. In remote mode each defended cell's targets are
requested over the wire with the defense as a per-request override, the raw
splits only when a cell needs them, and the attack's probe queries cross the
wire undefended, so local and remote runs produce identical reports.
"""

import csv
import dataclasses
import time
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .corpus import Corpus, load_jsonl_corpus
from .datagen import synthetic_retrieval_task
from . import defenses as _defenses
from .defenses import DefenseConfig, assign_language_ids, compute_group_means
from .eaas import EaasClient, RemoteEmbedder, eaas_embed
from .embeddings import BlackBoxEmbedder, NgramEmbedder, TextSample
from .inversion import AttackConfig, AttackResult, EditMutationGenerator, invert_grid
from .inversion import invert  # unused here; benchmarks/tracing.py patches this name
from .metrics import MetricReport, aggregate, pair_report
from .report import ExperimentReport, ReportRow
from .retrieval import RetrievalTask, embed_task, evaluate_task, load_qrels_tsv
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
        self, splits: dict[str, list[TextSample]], defenses: list[DefenseConfig | None]
    ) -> list[dict[str, np.ndarray]]:
        """Per defense cell, the ``(len(samples), dim)`` target matrix of every
        split, row ``i`` sample ``i``'s, defended by the cell's config.

        Each split is embedded raw once, in the order of ``splits``, and a
        cell with no enabled stage gets those matrices themselves. Locally a
        defended cell runs the defense stack on the raw rows; remotely it is
        one service request per split, and the raw rows are requested only
        when some cell is undefended or language-agnostic. The agnostic
        stage subtracts group means taken over all the raw splits joined in
        order.
        """
        on = [defense is not None and defense.enabled() for defense in defenses]
        agnostic = any(defense.language_agnostic for defense, o in zip(defenses, on) if o)
        raw, means = {}, None
        if self.client is None or agnostic or not all(on):
            raw = {
                lang: self.attack_embedder.embed_many([s.text for s in samples])
                for lang, samples in splits.items()
            }
        if agnostic:
            langs = [s.lang for samples in splits.values() for s in samples]
            means = compute_group_means(np.concatenate(list(raw.values())), langs)

        def release(lang: str, defense: DefenseConfig) -> np.ndarray:
            texts = [s.text for s in splits[lang]]
            langs = [s.lang for s in splits[lang]]
            if self.client is None:
                # Looked up on its module, where benchmarks/tracing.py patches it.
                return _defenses.apply_defense_stack(raw[lang], langs, texts, defense, means)
            rows, _ = eaas_embed(
                self.client, texts, defense=defense, langs=langs, group_means=means
            )
            return rows

        return [
            {lang: release(lang, defense) for lang in splits} if o else raw
            for defense, o in zip(defenses, on)
        ]

    def attack(
        self, cells: list[tuple[list[TextSample], np.ndarray, list[str], int, int, tuple[str, ...]]]
    ) -> list[tuple[list[AttackResult], int, float]]:
        """Run every (samples, targets, vocab, steps, beam, labels) cell's
        attacks, row ``i`` of ``targets`` sample ``i``'s, in one ``invert_grid``
        call. A sample's generator is built once per ``labels``, which must
        name one sample list and vocabulary, and seeded from the run seed,
        ``labels`` and the sample id, never from a cell. Returns, per cell,
        the results, their summed queries and the time in seconds until the
        cell's last attack finished."""
        seed, sweep = self.config.seed, self.config.attack
        gens: dict[tuple[str, ...], list[EditMutationGenerator]] = {}
        grid = []
        for samples, targets, vocab, steps, beam, labels in cells:
            if labels not in gens:
                gens[labels] = [
                    EditMutationGenerator(
                        vocab, sweep.max_tokens, seed=stable_seed(seed, "gen", *labels, s.id)
                    )
                    for s in samples
                ]
            config = AttackConfig(tuple(vocab), steps, beam, sweep.max_tokens, sweep.query_budget)
            grid.append((samples, targets, gens[labels], config))
        return [
            (results, sum(r.queries_used for r in results), max(r.wall_time for r in results))
            for results in invert_grid(grid, self.attack_embedder)
        ]


def _pair_reports(
    results: list[AttackResult],
    samples: list[TextSample],
    memo: dict[tuple[str, str], MetricReport],
) -> list[MetricReport]:
    """Each result's metrics against its sample, ``cos`` its best score;
    ``memo``, one per driver call, scores each (prediction, reference) once."""
    reports = []
    for r, s in zip(results, samples):
        key = (r.best.text, s.text)
        if key not in memo:
            memo[key] = pair_report(*key)
        reports.append(dataclasses.replace(memo[key], cos=r.best.score))
    return reports


def run_reconstruction(
    config: ExperimentConfig,
    languages: list[str] | None = None,
    defense: DefenseConfig | None = None,
    remote: tuple[str, int] | None = None,
) -> ExperimentReport:
    """Per-language and pooled-vocabulary attack sweeps over steps x beams.

    The "mono" condition restricts the attack vocabulary to the test
    language; "multi" attacks every language with the union vocabulary.
    All splits run in one attack call, where a sample's mono and multi
    attacks share each round's embeds; read ``queries`` and ``wall_ms`` as
    in ``run_defense_sweep``.
    """
    languages = sorted(languages if languages is not None else config.corpora)
    corpora = _load_corpora(config, languages)
    vocabs = {lang: _corpus_vocab(corpora[lang]) for lang in languages}
    union_vocab = sorted({tok for vocab in vocabs.values() for tok in vocab})
    splits = _test_splits(config, corpora)
    defense_label = _defense_label(defense)
    report = ExperimentReport()
    memo: dict[tuple[str, str], MetricReport] = {}
    with _Runtime(config, remote) as runtime:
        [targets] = runtime.targets(splits, [defense])
        cells = [
            (samples, targets[lang], vocab, s, b, (condition, lang))
            for lang, samples in splits.items()
            for condition, vocab in (("mono", vocabs[lang]), ("multi", union_vocab))
            for s in config.attack.steps
            for b in config.attack.beams
        ]
        for (samples, _, _, steps, beam, (condition, lang)), (results, queries, wall) in zip(
            cells, runtime.attack(cells)
        ):
            metrics = aggregate(_pair_reports(results, samples, memo))
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
    # Refused before the attack: a remote run would be billed for it.
    if not translator.supports(src, tgt):
        raise ValueError(f"unsupported language pair ({src}, {tgt})")
    vocab = _corpus_vocab(corpora[src])
    samples = _test_splits(config, {tgt: corpora[tgt]})[tgt]
    steps = max(config.attack.steps)
    beam = max(config.attack.beams)
    with _Runtime(config, remote) as runtime:
        targets = runtime.targets({tgt: samples}, [None])[0][tgt]
        [(results, queries, attack_wall)] = runtime.attack(
            [(samples, targets, vocab, steps, beam, ("xling", src, tgt))]
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
    # A single-language task is named and seeded by its one language.
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

    Every cell's attacks on every split run in one attack call (see
    ``invert_grid``): a row's ``queries`` is what its attacks cost alone,
    while the embedder serves each sample's shared texts once, so a remote
    run's bill falls below the summed ``queries``. A row's ``wall_ms`` is
    the shared pass's time until the cell's last attack finished, so the
    rows' times overlap and do not add up to the sweep's. Each retrieval
    task is embedded once, undefended, and every cell runs its defense stack
    on those rows.
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
        sweep = _sweep_cells(config, langs)
        targets = runtime.targets(splits, [defense for _, defense in sweep])
        cells = [
            (samples, t[lang], vocabs[lang], DEFENSE_SWEEP_STEPS, DEFENSE_SWEEP_BEAM,
             ("defense", lang))
            for t in targets
            for lang, samples in splits.items()
        ]
        grid = runtime.attack(cells)
        memo: dict[tuple[str, str], MetricReport] = {}
        raw = [embed_task(task, runtime.attack_embedder) for task in tasks]
        for c, (label, defense) in enumerate(sweep):
            ndcg = sum(
                evaluate_task(task, runtime.attack_embedder, defense, rows=rows)
                for task, rows in zip(tasks, raw)
            ) / len(tasks)
            attacked = grid[c * len(splits) : (c + 1) * len(splits)]  # in language order
            metrics = aggregate([
                m for (results, _, _), samples in zip(attacked, splits.values())
                for m in _pair_reports(results, samples, memo)
            ])
            report.add(
                ReportRow(
                    "defense", "all", DEFENSE_SWEEP_STEPS, DEFENSE_SWEEP_BEAM, label, metrics,
                    sum(used for _, used, _ in attacked),
                    _ms(max(spent for _, _, spent in attacked)), ndcg,
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
