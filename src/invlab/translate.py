"""Cross-lingual rescoring through a word-for-word dictionary translator.

String-matching metrics miss leakage when a reconstruction lands in the
wrong language; translating it into the target language before scoring
exposes how much content actually escaped. Dictionary translation keeps
this verifiable at desk scale; unknown words pass through unchanged so
degradation comes only from genuine coverage gaps.
"""

from dataclasses import dataclass
from pathlib import Path

from .embeddings import BlackBoxEmbedder, InputFormatError, cosine, open_text
from .metrics import MetricReport, pair_report


class DictionaryTranslator:
    """Word-for-word translation over per-language-pair word maps.

    Identical source and target languages are always supported (identity)
    unless ``add_pair`` gives the pair a table.
    """

    def __init__(self) -> None:
        self.tables: dict[tuple[str, str], dict[str, str]] = {}

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
    """Parse a word map from 'src_word<TAB>tgt_word' lines; undecodable
    bytes, another field count or a second line for one source word raise
    InputFormatError citing the path and line."""
    table: dict[str, str] = {}
    for lineno, line in enumerate(open_text(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise InputFormatError(f"{path}:{lineno}: expected 2 tab-separated fields")
        if fields[0] in table:
            raise InputFormatError(f"{path}:{lineno}: duplicate source word {fields[0]!r}")
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
    translator: DictionaryTranslator,
    embedder: BlackBoxEmbedder,
) -> TranslationGain:
    """Score a reconstruction against the target text before and after
    translating it from the attack's language into the target language; an
    unsupported pair raises ValueError before anything is embedded."""
    translated = translator.translate(generated, src, tgt)
    target_emb, generated_emb, translated_emb = embedder.embed_many(
        [target_text, generated, translated]
    )
    pre = pair_report(generated, target_text, cos=cosine(generated_emb, target_emb))
    post = pair_report(translated, target_text, cos=cosine(translated_emb, target_emb))
    return TranslationGain(pre, post, bleu_gain_pct(pre.bleu, post.bleu))
