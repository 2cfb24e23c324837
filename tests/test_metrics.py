import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.metrics import (
    MetricReport,
    aggregate,
    bleu,
    exact_match,
    ndcg_at_k,
    pair_report,
    rouge1_recall,
    token_f1,
    tokenize,
)

words = st.lists(st.sampled_from("a b c d e f g x y z".split()), max_size=8).map(" ".join)


def naive_bleu(pred: str, ref: str) -> float:
    """Brute-force reimplementation with explicit n-gram lists and counting;
    kept independent of the library's Counter-based path."""
    pred_tok = tokenize(pred)
    ref_tok = tokenize(ref)
    if len(pred_tok) == 0 and len(ref_tok) == 0:
        return 100.0
    if len(pred_tok) == 0 or len(ref_tok) == 0:
        return 0.0
    c = len(pred_tok)
    r = len(ref_tok)
    logs = []
    for n in (1, 2, 3, 4):
        pred_grams = [tuple(pred_tok[i : i + n]) for i in range(len(pred_tok) - n + 1)]
        ref_grams = [tuple(ref_tok[i : i + n]) for i in range(len(ref_tok) - n + 1)]
        if len(pred_grams) == 0:
            continue
        clipped = 0
        for gram in set(pred_grams):
            clipped += min(pred_grams.count(gram), ref_grams.count(gram))
        precision = clipped / len(pred_grams) if clipped > 0 else 1.0 / (2.0 * c)
        logs.append(math.log(precision))
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


class TestTokenize:
    def test_punctuation_isolated(self):
        assert tokenize("Ford urged!") == ["ford", "urged", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_inner_punctuation(self):
        assert tokenize("don't") == ["don", "'", "t"]


class TestBleu:
    def test_identical_strings(self):
        assert bleu("the cat sat on the mat", "the cat sat on the mat") == 100.0

    def test_identical_short_strings(self):
        assert bleu("a b c", "a b c") == 100.0

    def test_smoothing_never_zero(self):
        score = bleu("x y", "a b")
        assert score > 0.0
        # every precision smoothed to 1/(2*2): 100 * 1/4
        assert score == pytest.approx(25.0, abs=1e-9)

    def test_hand_derived_value(self):
        # p1=3/4, p2=2/3, p3=1/2, p4 smoothed to 1/8 -> 100*(1/32)^(1/4)
        assert bleu("a b c d", "a b c e") == pytest.approx(42.045, abs=0.01)

    def test_empty_conventions(self):
        assert bleu("", "") == 100.0
        assert bleu("", "a") == 0.0
        assert bleu("a", "") == 0.0

    def test_brevity_penalty(self):
        # pred shorter than ref is penalized by exp(1 - r/c)
        long_ref = "a b c d e f g h"
        assert bleu("a b c d", long_ref) < bleu(long_ref, long_ref)

    @settings(max_examples=100, deadline=None)
    @given(words, words)
    def test_matches_naive_oracle(self, pred, ref):
        assert bleu(pred, ref) == pytest.approx(naive_bleu(pred, ref), abs=1e-9)

    def test_asymmetry_witness(self):
        assert bleu("a a b", "a b") != bleu("a b", "a a b")


class TestRouge1Recall:
    def test_identical(self):
        assert rouge1_recall("x y z", "x y z") == 1.0

    def test_partial_overlap(self):
        assert rouge1_recall("a b", "a c d") == pytest.approx(1 / 3)

    def test_empty_pred(self):
        assert rouge1_recall("", "a") == 0.0

    def test_empty_ref(self):
        assert rouge1_recall("", "") == 1.0
        assert rouge1_recall("a", "") == 0.0

    def test_clipping(self):
        # repeated prediction token matches at most its reference count
        assert rouge1_recall("a a a", "a b") == pytest.approx(0.5)

    def test_asymmetry_witness(self):
        assert rouge1_recall("a b", "a") != rouge1_recall("a", "a b")


class TestTokenF1:
    def test_identical(self):
        assert token_f1("u v", "u v") == 1.0

    def test_disjoint(self):
        assert token_f1("a b", "c d") == 0.0

    def test_hand_derived(self):
        # overlap 1, P=1/3, R=1/2 -> F1=0.4
        assert token_f1("a b b", "a c") == pytest.approx(0.4)

    def test_both_empty(self):
        assert token_f1("", "") == 1.0

    @settings(max_examples=60, deadline=None)
    @given(words, words)
    def test_symmetry(self, pred, ref):
        assert token_f1(pred, ref) == pytest.approx(token_f1(ref, pred), abs=1e-12)


class TestWhitespaceInvariance:
    @settings(max_examples=40, deadline=None)
    @given(words, words)
    def test_leading_trailing_whitespace(self, pred, ref):
        padded = f"  {pred} \t"
        assert bleu(padded, ref) == bleu(pred, ref)
        assert rouge1_recall(padded, ref) == rouge1_recall(pred, ref)
        assert token_f1(padded, ref) == token_f1(pred, ref)


class TestExactMatch:
    def test_all_identical(self):
        assert exact_match([("a", "a"), ("b", "b")]) == 100.0

    def test_none_identical(self):
        assert exact_match([("a", "b")]) == 0.0

    def test_one_of_four(self):
        pairs = [("a", "a"), ("b", "x"), ("c", "x"), ("d", "x")]
        assert exact_match(pairs) == 25.0

    def test_case_sensitive(self):
        assert exact_match([("Ab", "ab")]) == 0.0

    def test_nfc_normalization(self):
        # e + combining acute vs precomposed e-acute
        assert exact_match([("é", "é")]) == 100.0

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            exact_match([])


class TestNdcg:
    def test_perfect_ranking(self):
        qrels = {"a": 2, "b": 1}
        assert ndcg_at_k(["a", "b", "c"], qrels, 10) == 1.0

    def test_single_relevant_at_rank_two(self):
        # 1/log2(3)
        assert ndcg_at_k(["x", "rel"], {"rel": 1}, 10) == pytest.approx(0.6309, abs=1e-4)

    def test_relevant_outside_top_k(self):
        ranking = [f"d{i}" for i in range(10)] + ["rel"]
        assert ndcg_at_k(ranking, {"rel": 1}, 10) == 0.0

    def test_no_relevant_docs_at_all(self):
        assert ndcg_at_k(["a", "b"], {}, 10) == 0.0

    def test_tail_permutation_invariance(self):
        qrels = {"a": 1}
        base = ndcg_at_k(["a", "x", "y", "z"], qrels, 3)
        assert ndcg_at_k(["a", "x", "z", "y"], qrels, 3) == base
        assert ndcg_at_k(["a", "y", "x", "z"], qrels, 3) == base

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k(["a"], {"a": 1}, 0)


class TestReports:
    def test_pair_report_reflexive_maxima(self):
        report = pair_report("same text", "same text", cos=1.0)
        assert report.bleu == 100.0
        assert report.rouge1_recall == 1.0
        assert report.token_f1 == 1.0
        assert report.exact_match == 100.0

    def test_exact_match_implies_maxima(self):
        report = pair_report("q w e r t", "q w e r t")
        assert report.exact_match == 100.0
        assert (report.bleu, report.rouge1_recall, report.token_f1) == (100.0, 1.0, 1.0)

    def test_aggregate_single_is_identity(self):
        report = pair_report("a", "b", cos=0.5)
        agg = aggregate([report])
        assert agg == report

    def test_aggregate_means(self):
        a = MetricReport(0.0, 0.0, 0.0, 0.0, 0.9)
        b = MetricReport(100.0, 1.0, 1.0, 100.0, 0.95)
        agg = aggregate([a, b])
        assert agg.bleu == 50.0
        assert agg.cos == pytest.approx(0.925)
        assert agg.num_pairs == 2

    def test_aggregate_exact_match_pooled_by_pairs(self):
        a = MetricReport(0, 0, 0, 100.0, 0, num_pairs=1)
        b = MetricReport(0, 0, 0, 0.0, 0, num_pairs=3)
        assert aggregate([a, b]).exact_match == 25.0

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
