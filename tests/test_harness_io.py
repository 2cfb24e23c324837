import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig, load_config, save_config
from invlab.corpus import Corpus, CorpusFormatError, load_jsonl_corpus, save_jsonl_corpus
from invlab.datagen import language_tokens, parallel_corpora
from invlab.defenses import DefenseConfig
from invlab.embeddings import ConfigError, NgramConfig, TextSample
from invlab.inversion import AttackConfig
from invlab.metrics import MetricReport
from invlab.report import (
    CSV_HEADER,
    ExperimentReport,
    ReportRow,
    emit_report,
    read_report_csv,
    render_markdown,
)

from helpers import csv_rows_without_wall, synthetic_corpus


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


# Objects of strings, mostly valid and sometimes holding one non-string.
str_maps = st.dictionaries(st.text(max_size=6), st.text(max_size=6) | json_values, max_size=3)


def section(*keys):
    """A config section: known keys (and one misspelt) with arbitrary JSON values."""
    names = st.sampled_from([*keys, keys[0] + "s"])
    return st.dictionaries(names, json_values, max_size=3) | json_values


class TestLoadJsonlCorpus:
    def test_single_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"1","text":"hello","lang":"en"}\n', encoding="utf-8")
        corpus = load_jsonl_corpus(path)
        assert len(corpus) == 1
        assert corpus[0] == TextSample("1", "hello", "en")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_jsonl_corpus(path)) == 0

    def test_duplicate_id_cites_line(self, tmp_path):
        lines = [json.dumps({"id": str(i), "text": "t", "lang": "en"}) for i in range(6)]
        lines.append(json.dumps({"id": "3", "text": "dup", "lang": "en"}))
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":7:"):
            load_jsonl_corpus(path)

    def test_malformed_line_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"1","text":"a","lang":"en"}\nnot json\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_jsonl_corpus(path)

    def test_missing_field_cites_line(self, tmp_path):
        path = tmp_path / "mf.jsonl"
        path.write_text('{"id":"1","text":"a"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_jsonl_corpus(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"id": 1, "text": "a", "lang": "en"},
            {"id": "1", "text": None, "lang": "en"},
            {"id": "1", "text": ["a", "b"], "lang": "en"},
            {"id": "1", "text": "a", "lang": False},
        ],
    )
    def test_non_string_field_cites_line(self, tmp_path, record):
        path = tmp_path / "ns.jsonl"
        path.write_text('{"id":"0","text":"a","lang":"en"}\n' + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_jsonl_corpus(path)

    def test_order_preserved(self, tmp_path):
        lines = [json.dumps({"id": f"s{i}", "text": f"t{i}", "lang": "en"}) for i in range(5)]
        path = tmp_path / "ord.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_jsonl_corpus(path)
        assert [s.id for s in corpus] == [f"s{i}" for i in range(5)]

    def test_round_trip(self, tmp_path):
        corpus = synthetic_corpus("de", 7, seed=3)
        path = tmp_path / "rt.jsonl"
        save_jsonl_corpus(corpus, path)
        assert load_jsonl_corpus(path) == corpus


class TestCorpusType:
    def test_duplicate_ids_rejected(self):
        s = TextSample("x", "a", "en")
        with pytest.raises(ValueError):
            Corpus((s, s))


class TestDatagen:
    def test_parallel_corpora_aligned(self):
        corpora = parallel_corpora(["en", "fr"], 12, vocab_size=10, seed=5)
        en_pool = language_tokens("en", 10)
        fr_pool = language_tokens("fr", 10)
        mapping = dict(zip(en_pool, fr_pool))
        for en_sample, fr_sample in zip(corpora["en"], corpora["fr"]):
            translated = " ".join(mapping[w] for w in en_sample.text.split())
            assert translated == fr_sample.text

    def test_deterministic(self):
        a = synthetic_corpus("en", 10, seed=2)
        b = synthetic_corpus("en", 10, seed=2)
        assert a == b

    def test_vocab_cap(self):
        with pytest.raises(ValueError):
            language_tokens("en", 27)


class TestExperimentConfig:
    def test_round_trip_lossless(self):
        config = ExperimentConfig(
            corpora={"en": "en.jsonl", "fr": "fr.jsonl"},
            embedder=NgramConfig(n=2, dim=64, seed=5, unit_norm=False),
            attack=AttackSweep(steps=[0, 3], beams=[2], max_tokens=6, query_budget=500),
            defense=DefenseSweep(lambdas=[0.0, 0.5], masking=False, mask_scale=0.05),
            dictionaries={"en-fr": "d.tsv"},
            retrieval_tasks=[{"name": "t", "queries": "q.jsonl", "docs": "d.jsonl", "qrels": "r.tsv"}],
            seed=123,
            out_dir="results",
            test_size=10,
        )
        round_tripped = ExperimentConfig.from_dict(config.to_dict())
        assert round_tripped == config
        assert round_tripped.to_dict() == config.to_dict()

    def test_save_load(self, tmp_path):
        config = ExperimentConfig(seed=9, out_dir=str(tmp_path))
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_missing_files_rejected(self, tmp_path):
        config = ExperimentConfig(corpora={"en": str(tmp_path / "nope.jsonl")})
        path = tmp_path / "config.json"
        save_config(config, path)
        with pytest.raises(ConfigError, match="missing"):
            load_config(path)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            DefenseSweep(lambdas=[-0.1])

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError):
            DefenseSweep(lambdas=[0.0, lam])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"defense": {"lambdas": [lam]}})


    @pytest.mark.parametrize(
        "data",
        [
            {"atack": {"steps": [5]}},
            {"embedder": {"dims": 64}},
            {"attack": {"step": [5]}},
            {"defense": {"lambda": [0.1]}},
        ],
    )
    def test_misspelt_key_refused(self, data):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"embedder": {"unit_norm": "false"}},
            {"defense": {"masking": 0}},
            {"defense": {"language_agnostic": "true"}},
            {"seed": 1.7},
            {"seed": True},
            {"test_size": "10"},
            {"attack": {"steps": 5}},
            {"attack": {"beams": [1.5]}},
            {"attack": {"query_budget": 2.0}},
            {"attack": []},
            {"embedder": None},
            {"defense": {"mask_scale": float("nan")}},
            [],
            {"out_dir": None},
            {"out_dir": 5},
            {"corpora": {"en": 5}},
            {"corpora": ["en.jsonl"]},
            {"dictionaries": {"en-fr": None}},
            {"retrieval_tasks": [[["queries", "q"]]]},
            {"retrieval_tasks": [{"queries": "q", "k": 10}]},
            {"defense": {"lambdas": ["0.5"]}},
            {"defense": {"lambdas": [True]}},
            {"defense": {"mask_scale": "2"}},
            {"defense": {"mask_scale": 10**400}},
            {"retrieval_tasks": {}},
            {"defense": {"lambdas": {}}},
            {"retrieval_tasks": [{"nme": "t"}]},
            {"retrieval_tasks": [{"queries": "q", "docs": "d", "qrels": "r", "lang": "en"}]},
            {"attack": {"steps": []}},
            {"attack": {"beams": []}},
            {"attack": {"steps": [-1]}},
            {"attack": {"steps": [3, -1, 5]}},
            {"attack": {"beams": [0]}},
            {"attack": {"max_tokens": 0}},
            {"attack": {"query_budget": 0}},
        ],
    )
    def test_malformed_value_refused(self, data):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "attack, values",
        [
            ({"steps": [2, -1]}, {"steps": -1}),
            ({"beams": [4, 0]}, {"beam_width": 0}),
            ({"max_tokens": 0}, {"max_tokens": 0}),
            ({"query_budget": 0}, {"query_budget": 0}),
        ],
    )
    def test_attack_value_refused_with_attack_config_message(self, attack, values):
        with pytest.raises(ConfigError) as from_config:
            ExperimentConfig.from_dict({"attack": attack})
        with pytest.raises(ConfigError) as from_attack:
            AttackConfig(vocab=("a",), **values)
        assert str(from_config.value) == str(from_attack.value)

    def test_empty_object_gives_dataclass_defaults(self):
        assert ExperimentConfig.from_dict({}) == ExperimentConfig()
        assert DefenseConfig.from_dict({}) == DefenseConfig()

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "embedder": section("n", "dim", "seed", "unit_norm"),
                "attack": section("steps", "beams", "max_tokens", "query_budget"),
                "defense": section("lambdas", "masking", "language_agnostic", "mask_scale"),
                "corpora": str_maps | json_values,
                "dictionaries": str_maps | json_values,
                "retrieval_tasks": st.lists(str_maps | json_values, max_size=2) | json_values,
                "seed": json_values,
                "out_dir": st.text(max_size=6) | json_values,
                "test_size": json_values,
                "atack": json_values,
            },
        )
        | json_values
    )
    @example({"embedder": {"n": 2, "dim": 8, "unit_norm": False}, "attack": {"steps": [0, 2]}})
    @example({"attack": {"query_budget": None}, "defense": {"lambdas": [0, 0.5]}, "seed": 4})
    @example({"corpora": {"en": "en.jsonl"}, "retrieval_tasks": [{"queries": "q"}], "out_dir": "o"})
    def test_from_dict_validates_or_raises_config_error(self, data):
        try:
            config = ExperimentConfig.from_dict(data)
        except ConfigError:
            return
        emb, atk, dfs = config.embedder, config.attack, config.defense
        ints = [emb.n, emb.dim, emb.seed, *atk.steps, *atk.beams, atk.max_tokens, config.seed]
        assert all(type(i) is int for i in ints + [config.test_size])
        assert atk.query_budget is None or type(atk.query_budget) is int
        assert type(emb.unit_norm) is bool and type(dfs.masking) is bool
        assert type(dfs.language_agnostic) is bool
        assert all(type(x) is float for x in [*dfs.lambdas, dfs.mask_scale])
        maps = [config.corpora, config.dictionaries, *config.retrieval_tasks]
        assert all(type(m) is dict for m in maps) and type(config.out_dir) is str
        assert all(type(s) is str for m in maps for item in m.items() for s in item)
        assert ExperimentConfig.from_dict(config.to_dict()) == config


def make_report():
    report = ExperimentReport()
    report.add(
        ReportRow(
            "recon_mono", "en", 10, 4, "none",
            MetricReport(50.123456789, 0.5, 0.5, 25.0, 0.987654321),
            queries=1234,
            wall_ms=56.789,
            ndcg=None,
        )
    )
    report.add(
        ReportRow(
            "defense", "fr", 10, 4, "noise:0.01",
            MetricReport(10.0, 0.2, 0.3, 0.0, 0.5),
            queries=99,
            wall_ms=1.5,
            ndcg=0.654321987,
        )
    )
    return report


class TestReport:
    def test_csv_header_and_row_count(self, tmp_path):
        path = emit_report(make_report(), tmp_path / "r.csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_round_trip_to_six_decimals(self, tmp_path):
        report = make_report()
        path = emit_report(report, tmp_path / "r.csv")
        parsed = read_report_csv(path)
        assert len(parsed) == len(report)
        for original, restored in zip(report.rows, parsed.rows):
            assert restored.experiment_id == original.experiment_id
            assert restored.lang == original.lang
            assert restored.steps == original.steps
            assert restored.beam == original.beam
            assert restored.defense == original.defense
            assert restored.queries == original.queries
            assert restored.metrics.bleu == pytest.approx(original.metrics.bleu, abs=5e-7)
            assert restored.metrics.cos == pytest.approx(original.metrics.cos, abs=5e-7)
            if original.ndcg is None:
                assert restored.ndcg is None
            else:
                assert restored.ndcg == pytest.approx(original.ndcg, abs=5e-7)

    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_row_with_wrong_field_count_refused(self, tmp_path, change):
        path = emit_report(make_report(), tmp_path / "r.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        lines[2] = ",".join(fields[:-1] if change < 0 else fields + ["1"])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        count = len(CSV_HEADER) + change
        with pytest.raises(ValueError, match=rf"r\.csv, line 3: {count} fields"):
            read_report_csv(path)

    def test_markdown_groups_by_language(self, tmp_path):
        text = render_markdown(make_report())
        assert "## en" in text
        assert "## fr" in text
        assert text.index("## en") < text.index("## fr")

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(ExperimentReport(), tmp_path / "empty.csv")

    def test_wall_column_excluded_helper(self, tmp_path):
        path = emit_report(make_report(), tmp_path / "r.csv")
        rows = csv_rows_without_wall(path)
        assert rows[0] == CSV_HEADER[:-1]
        assert all(len(row) == len(CSV_HEADER) - 1 for row in rows)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(make_report(), tmp_path / "r.xml", fmt="xml")
