"""Cross-lingual rescoring through a pluggable translator.

String-matching metrics miss leakage when a reconstruction lands in the
wrong language; translating it into the target language before scoring
exposes how much content actually escaped. A word-for-word dictionary
translator keeps this verifiable at desk scale; unknown words pass through
unchanged so degradation comes only from genuine coverage gaps.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

from .embeddings import BlackBoxEmbedder, cosine
from .metrics import MetricReport, pair_report


class Translator(ABC):
    @abstractmethod
    def translate(self, text: str, src: str, tgt: str) -> str: ...

    @abstractmethod
    def supports(self, src: str, tgt: str) -> bool: ...


class DictionaryTranslator(Translator):
    """Word-for-word translation over per-language-pair word maps.

    Identical source and target languages are always supported (identity)
    unless an explicit table overrides the pair.
    """

    def __init__(self, tables: dict[tuple[str, str], dict[str, str]] | None = None):
        self.tables = dict(tables) if tables else {}

    def add_pair(self, src: str, tgt: str, table: dict[str, str]) -> None:
        self.tables[(src, tgt)] = dict(table)

    def supports(self, src: str, tgt: str) -> bool:
        return (src, tgt) in self.tables or src == tgt

    def translate(self, text: str, src: str, tgt: str) -> str:
        if not self.supports(src, tgt):
            raise ValueError(f"unsupported language pair ({src}, {tgt})")
        table = self.tables.get((src, tgt), {})
        return " ".join(table.get(word, word) for word in text.split())


def load_dictionary_tsv(path: str | Path) -> dict[str, str]:
    """Parse a word map from 'src_word<TAB>tgt_word' lines."""
    table: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields")
            table[fields[0]] = fields[1]
    return table


def save_dictionary_tsv(table: dict[str, str], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for src_word, tgt_word in table.items():
            fh.write(f"{src_word}\t{tgt_word}\n")


@dataclass(frozen=True)
class TranslationGain:
    """Metrics before and after translation; gain is undefined (None) when
    the pre-translation BLEU is zero."""

    pre: MetricReport
    post: MetricReport
    gain_pct: float | None


def bleu_gain_pct(pre_bleu: float, post_bleu: float) -> float | None:
    """Relative BLEU growth in percent, or None when the base is zero."""
    if pre_bleu <= 0.0:
        return None
    return 100.0 * (post_bleu - pre_bleu) / pre_bleu


def translated_metrics(
    generated: str,
    src: str,
    target_text: str,
    tgt: str,
    translator: Translator,
    embedder: BlackBoxEmbedder,
) -> TranslationGain:
    """Score a reconstruction against the target text before and after
    translating it from the attack's language into the target language."""
    if not translator.supports(src, tgt):
        raise ValueError(f"unsupported language pair ({src}, {tgt})")
    translated = translator.translate(generated, src, tgt)
    target_emb, generated_emb, translated_emb = embedder.embed_many(
        [target_text, generated, translated]
    )
    pre = pair_report(generated, target_text, cos=cosine(generated_emb, target_emb))
    post = pair_report(translated, target_text, cos=cosine(translated_emb, target_emb))
    return TranslationGain(pre, post, bleu_gain_pct(pre.bleu, post.bleu))


def round_trip(text: str, src: str, pivot: str, translator: Translator) -> str:
    """Translate into the pivot language and back."""
    for pair in ((src, pivot), (pivot, src)):
        if not translator.supports(*pair):
            raise ValueError(f"unsupported language pair {pair}")
    return translator.translate(translator.translate(text, src, pivot), pivot, src)
