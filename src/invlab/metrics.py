"""Reconstruction and retrieval metrics with pinned tokenization and smoothing.

Every definition is spelled out exactly so scores are bit-reproducible
without external tooling: BLEU-4 with a fixed zero-precision replacement,
unigram recall, multiset token F1, strict exact match, and exponential-gain
NDCG.
"""

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence


def tokenize(text: str) -> list[str]:
    """Lowercase, NFC-normalize, isolate punctuation, split on whitespace."""
    text = unicodedata.normalize("NFC", text.lower())
    parts: list[str] = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            parts.append(f" {ch} ")
        else:
            parts.append(ch)
    return "".join(parts).split()


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(pred: str, ref: str) -> float:
    """BLEU-4 on a single pair, scaled to [0, 100].

    Modified n-gram precisions with clipping for n = 1..4. Orders where the
    prediction has no n-grams at all are excluded from the mean, so identical
    short strings still score 100; a precision that comes out zero is
    replaced by 1/(2c) with c the prediction token count. Brevity penalty
    exp(1 - r/c) when c < r. Both sides empty scores 100, exactly one empty
    scores 0.
    """
    pred_tok = tokenize(pred)
    ref_tok = tokenize(ref)
    if not pred_tok and not ref_tok:
        return 100.0
    if not pred_tok or not ref_tok:
        return 0.0
    c = len(pred_tok)
    r = len(ref_tok)
    log_sum = 0.0
    orders = 0
    for n in range(1, 5):
        pred_grams = _ngrams(pred_tok, n)
        total = sum(pred_grams.values())
        if total == 0:
            continue
        ref_grams = _ngrams(ref_tok, n)
        matched = sum(min(count, ref_grams[g]) for g, count in pred_grams.items())
        p_n = matched / total if matched > 0 else 1.0 / (2.0 * c)
        log_sum += math.log(p_n)
        orders += 1
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * brevity * math.exp(log_sum / orders)


def rouge1_recall(pred: str, ref: str) -> float:
    """Clipped unigram overlap divided by the reference token count."""
    pred_tok = tokenize(pred)
    ref_tok = tokenize(ref)
    if not ref_tok:
        return 1.0 if not pred_tok else 0.0
    pred_counts = Counter(pred_tok)
    overlap = sum(min(count, pred_counts[tok]) for tok, count in Counter(ref_tok).items())
    return overlap / len(ref_tok)


def token_f1(pred: str, ref: str) -> float:
    """Multiset-overlap F1 between prediction and reference tokens."""
    pred_tok = tokenize(pred)
    ref_tok = tokenize(ref)
    if not pred_tok and not ref_tok:
        return 1.0
    ref_counts = Counter(ref_tok)
    overlap = sum(min(count, ref_counts[tok]) for tok, count in Counter(pred_tok).items())
    precision = overlap / len(pred_tok) if pred_tok else 0.0
    recall = overlap / len(ref_tok) if ref_tok else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def exact_match(pairs: Sequence[tuple[str, str]]) -> float:
    """Percentage of pairs identical after NFC normalization (case-sensitive)."""
    if not pairs:
        raise ValueError("exact_match needs at least one pair")
    hits = sum(1 for pred, ref in pairs if _nfc(pred) == _nfc(ref))
    return 100.0 * hits / len(pairs)


def ndcg_at_k(ranking: Sequence[str], qrels: Mapping[str, int], k: int) -> float:
    """Normalized discounted cumulative gain with exponential relevance gain.

    Returns 0 when no relevant documents exist for the query.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:k], start=1):
        rel = qrels.get(doc_id, 0)
        if rel > 0:
            dcg += (2.0**rel - 1.0) / math.log2(i + 1)
    ideal = sorted((rel for rel in qrels.values() if rel > 0), reverse=True)[:k]
    idcg = sum((2.0**rel - 1.0) / math.log2(i + 1) for i, rel in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


@dataclass(frozen=True)
class MetricReport:
    """One row of reconstruction metrics; aggregates carry their pair count."""

    bleu: float
    rouge1_recall: float
    token_f1: float
    exact_match: float
    cos: float
    num_pairs: int = 1


def pair_report(pred: str, ref: str, cos: float = 0.0) -> MetricReport:
    """All reconstruction metrics for one (prediction, reference) pair."""
    return MetricReport(
        bleu=bleu(pred, ref),
        rouge1_recall=rouge1_recall(pred, ref),
        token_f1=token_f1(pred, ref),
        exact_match=100.0 if _nfc(pred) == _nfc(ref) else 0.0,
        cos=cos,
    )


def aggregate(reports: Sequence[MetricReport]) -> MetricReport:
    """Arithmetic mean of every field; exact match pooled over pair counts."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    n = len(reports)
    pairs = sum(r.num_pairs for r in reports)
    return MetricReport(
        bleu=sum(r.bleu for r in reports) / n,
        rouge1_recall=sum(r.rouge1_recall for r in reports) / n,
        token_f1=sum(r.token_f1 for r in reports) / n,
        exact_match=sum(r.exact_match * r.num_pairs for r in reports) / pairs,
        cos=sum(r.cos for r in reports) / n,
        num_pairs=pairs,
    )
