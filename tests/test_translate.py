import pytest

from invlab.datagen import bijective_dictionary, parallel_corpora
from invlab.embeddings import NgramEmbedder
from invlab.translate import (
    DictionaryTranslator,
    bleu_gain_pct,
    load_dictionary_tsv,
    save_dictionary_tsv,
    translated_metrics,
)


@pytest.fixture
def en_fr():
    translator = DictionaryTranslator()
    translator.add_pair("en", "fr", {"red": "rouge", "cat": "chat"})
    translator.add_pair("fr", "en", {"rouge": "red", "chat": "cat"})
    return translator


class TestDictionaryTranslator:
    def test_word_for_word(self, en_fr):
        assert en_fr.translate("red cat", "en", "fr") == "rouge chat"

    def test_unknown_word_passes_through(self, en_fr):
        assert en_fr.translate("red dog", "en", "fr") == "rouge dog"

    def test_identity_pair_supported(self):
        translator = DictionaryTranslator()
        assert translator.supports("en", "en")
        assert translator.translate("any thing", "en", "en") == "any thing"

    def test_unsupported_pair_rejected(self, en_fr):
        assert not en_fr.supports("en", "de")
        with pytest.raises(ValueError, match=r"unsupported language pair \(en, de\)"):
            en_fr.translate("red", "en", "de")


def there_and_back(text, src, pivot, translator):
    return translator.translate(translator.translate(text, src, pivot), pivot, src)


class TestRoundTrip:
    def test_bijective_dictionary_is_identity(self, en_fr):
        assert there_and_back("red cat red", "en", "fr", en_fr) == "red cat red"

    def test_pivot_equals_source_identity(self):
        assert there_and_back("la vie", "fr", "fr", DictionaryTranslator()) == "la vie"

    def test_unknown_word_passes_both_hops(self, en_fr):
        assert there_and_back("zebra", "en", "fr", en_fr) == "zebra"

    def test_unsupported_pair_rejected(self, en_fr):
        with pytest.raises(ValueError, match=r"unsupported language pair \(en, de\)"):
            there_and_back("red", "en", "de", en_fr)

    def test_generated_bijection_round_trips(self):
        translator = DictionaryTranslator()
        translator.add_pair("en", "fr", bijective_dictionary("en", "fr", 12))
        translator.add_pair("fr", "en", bijective_dictionary("fr", "en", 12))
        corpora = parallel_corpora(["en", "fr"], 10, vocab_size=12, seed=4)
        for s in corpora["en"]:
            assert there_and_back(s.text, "en", "fr", translator) == s.text


class TestBleuGain:
    def test_rounded_inputs_from_published_setting(self):
        # 100 * (12.4 - 4.62) / 4.62
        assert bleu_gain_pct(4.62, 12.4) == pytest.approx(168.4, abs=0.5)

    def test_zero_base_flagged_undefined(self):
        assert bleu_gain_pct(0.0, 5.0) is None

    def test_sign_matches_difference(self):
        assert bleu_gain_pct(10.0, 5.0) < 0
        assert bleu_gain_pct(5.0, 10.0) > 0
        assert bleu_gain_pct(5.0, 5.0) == 0.0


class TestTranslatedMetrics:
    def test_word_for_word_translation_scores_perfect(self, en_fr):
        embedder = NgramEmbedder(n=3, dim=64, seed=0)
        result = translated_metrics("red cat", "en", "rouge chat", "fr", en_fr, embedder)
        assert result.post.bleu == 100.0
        assert result.post.exact_match == 100.0
        assert result.pre.bleu < result.post.bleu
        assert result.gain_pct is not None and result.gain_pct > 0

    def test_identity_translator_keeps_metrics(self):
        embedder = NgramEmbedder(n=3, dim=64, seed=0)
        result = translated_metrics(
            "some guess", "en", "the truth", "en", DictionaryTranslator(), embedder
        )
        assert result.post == result.pre

    def test_unsupported_pair_rejected(self, en_fr):
        embedder = NgramEmbedder(n=3, dim=64, seed=0)
        with pytest.raises(ValueError, match=r"unsupported language pair \(en, de\)"):
            translated_metrics("x", "en", "y", "de", en_fr, embedder)
        assert embedder.queries_used() == 0

    def test_inputs_not_mutated(self, en_fr):
        embedder = NgramEmbedder(n=3, dim=64, seed=0)
        generated = "red cat"
        translated_metrics(generated, "en", "rouge chat", "fr", en_fr, embedder)
        assert generated == "red cat"

    def test_gain_undefined_when_pre_bleu_zero(self, en_fr):
        embedder = NgramEmbedder(n=3, dim=64, seed=0)
        result = translated_metrics("", "en", "rouge chat", "fr", en_fr, embedder)
        assert result.pre.bleu == 0.0
        assert result.gain_pct is None


class TestDictionaryIO:
    def test_tsv_round_trip(self, tmp_path):
        table = bijective_dictionary("en", "fr", 8)
        path = tmp_path / "en-fr.tsv"
        save_dictionary_tsv(table, path)
        assert load_dictionary_tsv(path) == table

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("word_without_target\n", encoding="utf-8")
        with pytest.raises(ValueError, match="2 tab-separated"):
            load_dictionary_tsv(path)

    def test_second_line_for_a_source_word_cites_line(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("red\trouge\ncat\tchat\nred\tvermeil\n", encoding="utf-8")
        with pytest.raises(ValueError, match="dup.tsv:3: duplicate source word 'red'"):
            load_dictionary_tsv(path)
