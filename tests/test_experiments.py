import csv
import dataclasses
import itertools
import json
from collections import Counter

import pytest

import invlab.eaas
import invlab.experiments
from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig
from invlab.corpus import load_jsonl_corpus, save_jsonl_corpus
from invlab.datagen import (
    bijective_dictionary,
    language_tokens,
    parallel_corpora,
)
from invlab.defenses import DefenseConfig
from invlab.eaas import eaas_serve
from invlab.embeddings import NgramConfig, NgramEmbedder
from invlab.experiments import (
    _defense_label,
    run_crosslingual,
    run_defense_sweep,
    run_reconstruction,
)
from invlab.report import csv_rows_without_wall, emit_report
from invlab.translate import DictionaryTranslator, save_dictionary_tsv

from helpers import save_qrels_tsv, synthetic_corpus


def write_corpora(tmp_path, langs, size, vocab_size, min_len, max_len, seed):
    corpora = parallel_corpora(langs, size, vocab_size, min_len, max_len, seed)
    paths = {}
    for lang, corpus in corpora.items():
        path = tmp_path / f"{lang}.jsonl"
        save_jsonl_corpus(corpus, path)
        paths[lang] = str(path)
    return paths, corpora


@pytest.fixture
def small_config(tmp_path):
    paths, _ = write_corpora(tmp_path, ["en", "fr"], 5, vocab_size=8, min_len=3, max_len=3, seed=1)
    return ExperimentConfig(
        corpora=paths,
        embedder=NgramConfig(n=3, dim=64, seed=5),
        attack=AttackSweep(steps=[0, 2], beams=[1, 2], max_tokens=3),
        defense=DefenseSweep(lambdas=[0.0, 1.0], masking=True, language_agnostic=True),
        seed=7,
        out_dir=str(tmp_path / "out"),
        test_size=5,
    )


class TestRunReconstruction:
    def test_every_cell_appears_exactly_once(self, small_config):
        report = run_reconstruction(small_config)
        keys = [(r.experiment_id, r.lang, r.steps, r.beam) for r in report.rows]
        assert len(keys) == len(set(keys))
        expected = {
            (f"recon_{cond}", lang, steps, beam)
            for cond, lang, steps, beam in itertools.product(
                ("mono", "multi"), ("en", "fr"), (0, 2), (1, 2)
            )
        }
        assert set(keys) == expected

    def test_zero_steps_rows_are_base_only(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en"], 3, 8, 3, 3, seed=2)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[0], beams=[1], max_tokens=3),
            seed=1,
            out_dir=str(tmp_path / "out"),
            test_size=3,
        )
        report = run_reconstruction(config)
        assert {r.steps for r in report.rows} == {0}

    def test_deterministic_across_runs(self, small_config):
        first = run_reconstruction(small_config)
        second = run_reconstruction(small_config)
        for a, b in zip(first.rows, second.rows):
            assert a.experiment_id == b.experiment_id
            assert a.metrics == b.metrics
            assert a.queries == b.queries

    def test_unknown_language_rejected(self, small_config):
        with pytest.raises(ValueError, match="no corpus"):
            run_reconstruction(small_config, languages=["de"])

    def test_wall_time_positive(self, small_config):
        report = run_reconstruction(small_config, languages=["en"])
        assert all(r.wall_ms > 0 for r in report.rows)


class TestPairReportsOncePerPair:
    """Each driver call scores every distinct (prediction, reference) pair
    once, through the module name ``benchmarks/tracing.py`` patches, and a
    later call scores its pairs again."""

    @pytest.mark.parametrize("driver", [run_reconstruction, run_defense_sweep])
    def test_each_distinct_pair_scored_once_per_call(self, small_config, monkeypatch, driver):
        calls: list[tuple] = []
        real = invlab.experiments.pair_report

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(invlab.experiments, "pair_report", spy)
        report = driver(small_config)
        first = list(calls)
        pairs = [args for args, _ in first]
        assert 0 < len(pairs) == len(set(pairs)) < sum(r.metrics.num_pairs for r in report.rows)
        calls.clear()
        again = driver(small_config)
        assert calls == first
        assert [r.metrics for r in again.rows] == [r.metrics for r in report.rows]


class TestReconstructionGrid:
    """Each (language, condition) split runs its steps x beams grid as one
    attack call; its rows must equal the cells run one at a time."""

    @pytest.fixture
    def grid_config(self, small_config):
        # Unsorted and repeated cells, step 0, and a budget that cuts some
        # union-vocabulary attacks after their greedy base.
        sweep = AttackSweep(steps=[3, 0, 6, 3], beams=[2, 1, 3], max_tokens=3, query_budget=50)
        return dataclasses.replace(small_config, attack=sweep)

    def test_rows_equal_one_cell_runs(self, grid_config, tmp_path):
        report = run_reconstruction(grid_config)
        grid = csv_rows_without_wall(emit_report(report, tmp_path / "grid.csv"))
        sweep = grid_config.attack
        cells = list(itertools.product(sweep.steps, sweep.beams))
        alone = {}
        for i, (steps, beam) in enumerate(cells):
            one = dataclasses.replace(
                grid_config, attack=dataclasses.replace(sweep, steps=[steps], beams=[beam])
            )
            path = emit_report(run_reconstruction(one), tmp_path / f"cell{i}.csv")
            alone[steps, beam] = csv_rows_without_wall(path)[1:]
        splits = len(alone[cells[0]])  # (language, condition) pairs, in driver order
        expected = [alone[cell][split] for split in range(splits) for cell in cells]
        assert grid[1:] == expected

    def test_wall_time_does_not_fall_with_steps(self, grid_config):
        walls: dict[tuple, list] = {}
        for row in run_reconstruction(grid_config).rows:
            walls.setdefault((row.experiment_id, row.lang, row.beam), []).append(
                (row.steps, row.wall_ms)
            )
        for cells in walls.values():
            by_steps = [wall for _, wall in sorted(cells)]
            assert by_steps == sorted(by_steps)

    def test_generator_seed_names_no_cell(self, grid_config, monkeypatch):
        # Cells share a split's attacks only because a sample's generator
        # seed is the same in every cell.
        calls = []
        seed_of = invlab.experiments.stable_seed

        def recording(*parts):
            calls.append(parts)
            return seed_of(*parts)

        monkeypatch.setattr(invlab.experiments, "stable_seed", recording)
        run_reconstruction(grid_config)
        expected = [
            (grid_config.seed, "gen", condition, lang, sample.id)
            for lang, path in grid_config.corpora.items()
            for condition in ("mono", "multi")
            for sample in load_jsonl_corpus(path).samples[: grid_config.test_size]
        ]
        assert sorted(c for c in calls if c[1] == "gen") == sorted(expected)


class TestReconstructionQuality:
    def test_toy_exact_match_with_oracle_confirmation(self, tmp_path):
        # 20-token vocabulary, 4-token texts, 100 samples, 50 steps, beam 8.
        # Enumerating every candidate of length <= 4 certifies that nearly
        # all targets are their embedding's unique cosine argmax; the known
        # exceptions are order ambiguities like "A A B A" vs "A B A A",
        # whose token-adjacency multisets coincide so no n-gram bag can
        # separate them. Exact match is only demanded on the scale the
        # uniqueness census supports.
        vocab_size, text_len = 20, 4
        embedder_config = NgramConfig(n=3, dim=192, seed=5)
        vocab = language_tokens("en", vocab_size)

        # NgramEmbedder.embed_many is pinned bytewise equal to embed_ngram
        # (test_embeddings); chunks keep the length-4 batch's memory small.
        embedder = NgramEmbedder(embedder_config)
        census: Counter[bytes] = Counter()
        for length in range(text_len + 1):
            texts = [" ".join(combo) for combo in itertools.product(vocab, repeat=length)]
            for start in range(0, len(texts), 1024):
                batch = embedder.embed_many(texts[start : start + 1024])
                census.update(row.tobytes() for row in batch)

        corpus = synthetic_corpus(
            "en", 100, vocab_size=vocab_size, min_len=text_len, max_len=text_len, seed=31
        )
        targets = embedder.embed_many([s.text for s in corpus])
        unique_targets = sum(1 for row in targets if census[row.tobytes()] == 1)
        assert unique_targets >= 95

        path = tmp_path / "en.jsonl"
        save_jsonl_corpus(corpus, path)
        config = ExperimentConfig(
            corpora={"en": str(path)},
            embedder=embedder_config,
            attack=AttackSweep(steps=[50], beams=[8], max_tokens=text_len),
            seed=11,
            out_dir=str(tmp_path / "out"),
            test_size=100,
        )
        report = run_reconstruction(config, languages=["en"])
        mono = [r for r in report.rows if r.experiment_id == "recon_mono"][0]
        assert mono.metrics.exact_match >= 95.0


class TestReconstructionOptions:
    def test_budget_exhaustion_still_flushes_rows(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en"], 4, 8, 3, 3, seed=8)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[5], beams=[4], max_tokens=3, query_budget=6),
            seed=2,
            out_dir=str(tmp_path / "out"),
            test_size=4,
        )
        report = run_reconstruction(config, languages=["en"])
        assert len(report.rows) == 2
        assert all(r.queries <= 6 * 4 for r in report.rows)

    def test_defended_targets_local_vs_remote(self, tmp_path):
        from invlab.defenses import DefenseConfig, assign_language_ids
        from invlab.eaas import eaas_serve

        paths, _ = write_corpora(tmp_path, ["en", "fr"], 4, 8, 3, 3, seed=4)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[2], beams=[2], max_tokens=3),
            seed=21,
            out_dir=str(tmp_path / "out"),
            test_size=4,
        )
        defense = DefenseConfig(
            noise_lambda=0.01, noise_seed=77, masking=assign_language_ids(["en", "fr"])
        )
        local = run_reconstruction(config, defense=defense)
        server = eaas_serve(NgramEmbedder(config.embedder))
        try:
            remote = run_reconstruction(config, defense=defense, remote=server.address)
        finally:
            server.stop()
        for a, b in zip(local.rows, remote.rows):
            assert a.metrics == b.metrics
            assert a.queries == b.queries
            assert a.defense == b.defense == "noise:0.01+mask"


class TestFileBackedRetrievalTasks:
    def test_sweep_uses_configured_task_files(self, tmp_path):
        from invlab.corpus import Corpus
        from invlab.datagen import synthetic_retrieval_task
        from invlab.experiments import build_retrieval_tasks

        task = synthetic_retrieval_task("filetask", "en", "en", n_docs=6, seed=2)
        queries_path = tmp_path / "q.jsonl"
        docs_path = tmp_path / "d.jsonl"
        qrels_path = tmp_path / "r.tsv"
        save_jsonl_corpus(Corpus(tuple(task.queries)), queries_path)
        save_jsonl_corpus(Corpus(tuple(task.docs)), docs_path)
        save_qrels_tsv(task.qrels, qrels_path)
        config = ExperimentConfig(
            retrieval_tasks=[
                {
                    "name": "filetask",
                    "queries": str(queries_path),
                    "docs": str(docs_path),
                    "qrels": str(qrels_path),
                }
            ]
        )
        tasks = build_retrieval_tasks(config)
        assert [t.name for t in tasks] == ["filetask"]
        assert len(tasks[0].docs) == 6
        assert tasks[0].qrels == task.qrels


class TestRunCrosslingual:
    def test_report_schema_has_pre_post_gain(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en", "fr"], 4, 8, 3, 3, seed=3)
        dict_path = tmp_path / "en-fr.tsv"
        save_dictionary_tsv(bijective_dictionary("en", "fr", 8), dict_path)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=96, seed=5),
            attack=AttackSweep(steps=[4], beams=[4], max_tokens=3),
            dictionaries={"en-fr": str(dict_path)},
            seed=3,
            out_dir=str(tmp_path / "out"),
            test_size=4,
        )
        report = run_crosslingual(config, "en", "fr")
        ids = [r.experiment_id for r in report.rows]
        assert ids == ["xling_pre", "xling_post", "xling_gain"]
        assert all(r.lang == "en->fr" for r in report.rows)

    def test_bijective_dictionary_improves_bleu(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en", "fr"], 8, 10, 3, 4, seed=5)
        dict_path = tmp_path / "en-fr.tsv"
        save_dictionary_tsv(bijective_dictionary("en", "fr", 10), dict_path)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=192, seed=5),
            attack=AttackSweep(steps=[15], beams=[8], max_tokens=4),
            dictionaries={"en-fr": str(dict_path)},
            seed=5,
            out_dir=str(tmp_path / "out"),
            test_size=8,
        )
        report = run_crosslingual(config, "en", "fr")
        pre = next(r for r in report.rows if r.experiment_id == "xling_pre")
        post = next(r for r in report.rows if r.experiment_id == "xling_post")
        gain = next(r for r in report.rows if r.experiment_id == "xling_gain")
        assert post.metrics.bleu >= pre.metrics.bleu
        assert gain.metrics.bleu > 0

    def test_same_language_identity_translator(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en"], 3, 8, 3, 3, seed=6)
        config = ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[2], beams=[2], max_tokens=3),
            seed=6,
            out_dir=str(tmp_path / "out"),
            test_size=3,
        )
        report = run_crosslingual(config, "en", "en", translator=DictionaryTranslator())
        pre = next(r for r in report.rows if r.experiment_id == "xling_pre")
        post = next(r for r in report.rows if r.experiment_id == "xling_post")
        gain = next(r for r in report.rows if r.experiment_id == "xling_gain")
        assert post.metrics.bleu == pre.metrics.bleu
        assert gain.metrics.bleu == pytest.approx(0.0)

    def test_missing_dictionary_rejected(self, small_config):
        with pytest.raises(ValueError, match="dictionary"):
            run_crosslingual(small_config, "en", "fr")

    def test_unsupported_translator_refused_before_any_query(self, small_config):
        # A translator without the pair is refused before the attack: the
        # service bills nothing.
        with eaas_serve(NgramEmbedder(small_config.embedder)) as server:
            with pytest.raises(ValueError, match=r"unsupported language pair \(en, fr\)"):
                run_crosslingual(
                    small_config, "en", "fr", remote=server.address,
                    translator=DictionaryTranslator(),
                )
            assert server.queries_used() == 0


class TestRunDefenseSweep:
    @pytest.fixture
    def sweep_config(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en", "fr"], 6, vocab_size=10, min_len=3, max_len=4, seed=9)
        return ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[10], beams=[4], max_tokens=4),
            defense=DefenseSweep(lambdas=[0.0, 1.0], masking=True, language_agnostic=True),
            seed=13,
            out_dir=str(tmp_path / "out"),
            test_size=6,
        )

    def test_all_cells_present_once(self, sweep_config):
        report = run_defense_sweep(sweep_config)
        labels = [r.defense for r in report.rows]
        assert labels == ["none", "noise:0", "noise:1", "mask", "agnostic"]
        assert all(r.steps == 10 and r.beam == 4 for r in report.rows)
        assert all(r.ndcg is not None for r in report.rows)

    @pytest.mark.parametrize(
        "defense, label",
        [
            (None, "none"),
            (DefenseConfig(), "none"),
            (DefenseConfig(renormalize_after=True), "renorm"),
            (DefenseConfig(noise_lambda=0.5, masking={"en": 1.0}, renormalize_after=True),
             "noise:0.5+mask+renorm"),
        ],
    )
    def test_defense_label_names_every_stage(self, defense, label):
        # Renormalizing alone rescales every target of an embedder that is
        # not unit-norm, so it is a defense, not "none".
        assert _defense_label(defense) == label

    def test_zero_noise_equals_undefended_baseline(self, sweep_config):
        report = run_defense_sweep(sweep_config)
        none_row = next(r for r in report.rows if r.defense == "none")
        zero_row = next(r for r in report.rows if r.defense == "noise:0")
        assert zero_row.metrics == none_row.metrics
        assert zero_row.queries == none_row.queries
        assert zero_row.ndcg == none_row.ndcg

    def test_remote_bill_below_summed_queries(self, sweep_config):
        # Each row's queries are its attacks' cost alone, while the service
        # embeds once what a sample's attacks share in a round; the bill also
        # covers the targets and the retrieval tasks.
        with eaas_serve(NgramEmbedder(sweep_config.embedder)) as server:
            report = run_defense_sweep(sweep_config, remote=server.address)
            bill = server.queries_used()
        assert bill < sum(row.queries for row in report.rows)

    def test_heavy_noise_collapses_bleu(self, sweep_config):
        report = run_defense_sweep(sweep_config)
        none_row = next(r for r in report.rows if r.defense == "none")
        heavy = next(r for r in report.rows if r.defense == "noise:1")
        assert heavy.metrics.bleu < none_row.metrics.bleu

    def test_plot_csv_emitted(self, sweep_config):
        run_defense_sweep(sweep_config)
        plot = f"{sweep_config.out_dir}/defense_sweep_plot.csv"
        with open(plot, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["defense", "level", "ndcg", "bleu"]
        assert len(rows) == 6


class TestDriverContracts:
    @pytest.fixture
    def xling_config(self, tmp_path):
        paths, _ = write_corpora(tmp_path, ["en", "fr"], 4, 8, 3, 3, seed=10)
        dictionaries = {}
        for src, tgt in (("en", "fr"), ("fr", "en")):
            dictionaries[f"{src}-{tgt}"] = str(tmp_path / f"{src}-{tgt}.tsv")
            save_dictionary_tsv(bijective_dictionary(src, tgt, 8), dictionaries[f"{src}-{tgt}"])
        return ExperimentConfig(
            corpora=paths,
            embedder=NgramConfig(n=3, dim=64, seed=5),
            attack=AttackSweep(steps=[3], beams=[2], max_tokens=3),
            defense=DefenseSweep(lambdas=[0.5], masking=True, language_agnostic=True),
            dictionaries=dictionaries,
            seed=17,
            out_dir=str(tmp_path / "out"),
            test_size=4,
        )

    @pytest.mark.parametrize(
        "driver",
        [
            run_reconstruction,
            lambda config: run_crosslingual(config, "fr", "en"),
            run_defense_sweep,
        ],
        ids=["reconstruction", "crosslingual", "defense_sweep"],
    )
    @pytest.mark.parametrize("empty", ["test_size_0", "empty_corpus"])
    def test_empty_split_refused(self, xling_config, tmp_path, driver, empty):
        if empty == "test_size_0":
            config = dataclasses.replace(xling_config, test_size=0)
        else:
            # An empty corpus yields an empty vocabulary as well; the split
            # is refused before any attack could trip over that.
            (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
            corpora = dict(xling_config.corpora, en=str(tmp_path / "empty.jsonl"))
            config = dataclasses.replace(xling_config, corpora=corpora)
        with pytest.raises(ValueError, match="no test samples for language 'en'"):
            driver(config)

    def test_sweep_and_crosslingual_remote_match_local(self, xling_config, tmp_path):
        def outputs(remote, name):
            config = dataclasses.replace(xling_config, out_dir=str(tmp_path / name))
            reports = [
                run_defense_sweep(config, remote=remote),
                run_crosslingual(config, "en", "fr", remote=remote),
                run_crosslingual(config, "fr", "en", remote=remote),
            ]
            rows = [
                csv_rows_without_wall(emit_report(report, tmp_path / name / f"{i}.csv"))
                for i, report in enumerate(reports)
            ]
            plot = (tmp_path / name / "defense_sweep_plot.csv").read_text(encoding="utf-8")
            return rows, plot

        local = outputs(None, "local")
        with eaas_serve(NgramEmbedder(xling_config.embedder)) as server:
            remote = outputs(server.address, "remote")
        assert remote == local
        # Every defense cell ran, the agnostic one with group means on the wire.
        assert [row[4] for row in local[0][0][1:]] == ["none", "noise:0.5", "mask", "agnostic"]


class CountingEmbedder(NgramEmbedder):
    """An ``NgramEmbedder`` that records the texts of each ``embed_many``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: list[list[str]] = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return super().embed_many(texts)


class TestTargetsEmbeddedOnce:
    """Every defense cell's targets derive from one raw embedding of each
    split; remotely a defended cell is one request per split."""

    @pytest.fixture
    def spies(self, monkeypatch):
        """The drivers' embedders, and per attack call the service requests
        and local batches made before it."""
        embedders: list[CountingEmbedder] = []
        requests: list[dict] = []
        before_attack: list[tuple[int, int]] = []

        def embedder(config):
            embedders.append(CountingEmbedder(config))
            return embedders[-1]

        real_respond = invlab.eaas._Handler._respond

        def respond(handler, line):
            requests.append(json.loads(line))
            return real_respond(handler, line)

        real_grid = invlab.experiments.invert_grid

        def invert_grid(*args):
            embedded = sum(len(b) for e in embedders for b in e.batches)
            before_attack.append((len(requests), embedded))
            return real_grid(*args)

        monkeypatch.setattr(invlab.experiments, "NgramEmbedder", embedder)
        monkeypatch.setattr(invlab.eaas._Handler, "_respond", respond)
        monkeypatch.setattr(invlab.experiments, "invert_grid", invert_grid)
        return embedders, requests, before_attack

    @staticmethod
    def split_texts(config):
        return [s.text for lang in sorted(config.corpora)
                for s in load_jsonl_corpus(config.corpora[lang]).samples[: config.test_size]]

    def test_local_sweep_embeds_each_target_text_once(self, small_config, spies):
        embedders, _, before_attack = spies
        run_defense_sweep(small_config)
        texts = self.split_texts(small_config)
        assert len(texts) == 10
        # Five cells, one of them language-agnostic: before the first attack
        # only the raw splits were embedded, one batch each, in split order.
        [embedder] = embedders
        assert before_attack[0][1] == 10
        assert embedder.batches[:2] == [texts[:5], texts[5:]]
        # The embedder saw the targets once; the rest is attack and retrieval.
        assert embedder.queries_used() == 10 + sum(map(len, embedder.batches[2:]))

    def test_remote_sweep_bills_one_raw_pass(self, small_config, spies, tmp_path):
        embedders, requests, before_attack = spies
        local = run_defense_sweep(small_config)
        local_bill = embedders[0].queries_used()
        before_attack.clear()
        remote_config = dataclasses.replace(small_config, out_dir=str(tmp_path / "remote"))
        with eaas_serve(NgramEmbedder(small_config.embedder)) as server:
            remote = run_defense_sweep(remote_config, remote=server.address)
            bill = server.queries_used()
        assert [r.queries for r in remote.rows] == [r.queries for r in local.rows]
        assert [r.metrics for r in remote.rows] == [r.metrics for r in local.rows]
        # Before the first attack: the raw splits (for "none", "noise:0" and
        # the agnostic means), then one request per split for each of the
        # three defended cells; past that, remote and local embed alike.
        targets = requests[: before_attack[0][0]]
        assert ["defense" in r for r in targets] == [False] * 2 + [True] * 6
        assert bill == local_bill + 3 * 10

    def test_remote_masked_reconstruction_one_request_per_split(self, small_config, spies):
        _, requests, before_attack = spies
        defense = DefenseConfig(masking={"en": 1.0, "fr": 2.0})
        with eaas_serve(NgramEmbedder(small_config.embedder)) as server:
            run_reconstruction(small_config, defense=defense, remote=server.address)
        targets = requests[: before_attack[0][0]]
        assert [(r["defense"]["masking"], len(r["texts"])) for r in targets] == [
            ({"en": 1.0, "fr": 2.0}, 5)
        ] * 2
