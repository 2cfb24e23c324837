import logging
import math

import numpy as np
import pytest

from invlab.datagen import synthetic_retrieval_task
from invlab.defenses import DefenseConfig, assign_language_ids
from invlab.embeddings import NgramEmbedder, TextSample
from invlab.metrics import MAX_GRADE, ndcg_at_k
from invlab.retrieval import (
    Index,
    RetrievalTask,
    evaluate_task,
    load_qrels_tsv,
    search,
)

from helpers import save_qrels_tsv


def sample(sid, text, lang="en"):
    return TextSample(id=sid, text=text, lang=lang)


@pytest.fixture
def embedder():
    return NgramEmbedder(n=3, dim=64, seed=21)


def index_of(docs, embedder):
    """An undefended index of ``docs``."""
    return Index([d.id for d in docs], embedder.embed_many([d.text for d in docs]))


class TestRetrievalTask:
    def test_qrels_must_reference_known_ids(self):
        with pytest.raises(ValueError):
            RetrievalTask("t", [sample("q1", "x")], [sample("d1", "y")], {("q2", "d1"): 1})
        with pytest.raises(ValueError):
            RetrievalTask("t", [sample("q1", "x")], [sample("d1", "y")], {("q1", "d9"): 1})

    def test_grades_must_be_positive(self):
        with pytest.raises(ValueError):
            RetrievalTask("t", [sample("q1", "x")], [sample("d1", "y")], {("q1", "d1"): 0})

    def test_second_line_for_a_pair_cites_line(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("q1\td1\t3\nq1\td2\t1\nq1\td1\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="twice.tsv:3: duplicate judgment"):
            load_qrels_tsv(path)

    @pytest.mark.parametrize("grade", [MAX_GRADE + 1, 1023, 1024])
    def test_grades_above_cap_refused(self, grade):
        # 2.0**1024 overflows, and three gains of 2.0**1023 sum to inf/inf.
        docs = [sample(f"d{i}", "y") for i in range(3)]
        qrels = {("q1", d.id): grade for d in docs}
        with pytest.raises(ValueError, match=f"1..{MAX_GRADE}"):
            RetrievalTask("t", [sample("q1", "x")], docs, qrels)

    def test_grades_at_cap_give_finite_ndcg(self):
        docs = [sample(f"d{i}", "y") for i in range(3)]
        task = RetrievalTask("t", [sample("q1", "x")], docs, {("q1", d.id): MAX_GRADE for d in docs})
        assert ndcg_at_k(["d2", "d1", "d0"], task.qrels_by_query()["q1"], k=10) == 1.0

    def test_qrels_by_query_keeps_each_querys_judgments_in_order(self):
        docs = [sample(f"d{i}", "y") for i in range(4)]
        queries = [sample(f"q{i}", "x") for i in range(3)]
        qrels = {("q1", "d3"): 2, ("q0", "d1"): 1, ("q1", "d0"): 5, ("q0", "d2"): 3}
        by_query = RetrievalTask("t", queries, docs, qrels).qrels_by_query()
        assert list(by_query) == ["q1", "q0"]  # q2 has no judgments
        for qid, rels in by_query.items():
            expected = {did: g for (q, did), g in qrels.items() if q == qid}
            assert list(rels.items()) == list(expected.items())


class TestSearch:
    def test_stored_vector_ranks_first(self, embedder):
        docs = [sample(f"d{i}", t) for i, t in enumerate(["red fox", "blue sky", "green tea"])]
        index = index_of(docs, embedder)
        result = search(index, embedder.embed("blue sky"), k=3)
        assert result[0][0] == "d1"
        assert result[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_corpus(self, embedder):
        docs = [sample("d1", "a"), sample("d2", "b")]
        index = index_of(docs, embedder)
        assert len(search(index, embedder.embed("a"), k=10)) == 2

    def test_tie_break_by_id(self, constant_embedder):
        docs = [sample("zz", "x"), sample("aa", "y"), sample("mm", "z")]
        index = index_of(docs, constant_embedder)
        result = search(index, constant_embedder.embed("q"), k=3)
        assert [doc_id for doc_id, _ in result] == ["aa", "mm", "zz"]

    def test_dimension_mismatch(self, embedder):
        index = index_of([sample("d1", "a")], embedder)
        with pytest.raises(ValueError):
            search(index, np.zeros(8), k=1)

    @pytest.mark.parametrize("query", [np.zeros((1, 2)), np.zeros((2, 2)), np.float64(0.0)],
                             ids=["row", "matrix", "scalar"])
    def test_query_not_one_dimensional_refused(self, query):
        with pytest.raises(ValueError, match="finite query"):
            search(Index(["a", "b"], np.eye(2)), query, k=2)

    def test_query_of_other_dimension_refused(self):
        for query in (np.ones(1), np.ones(3)):
            with pytest.raises(ValueError, match="finite query"):
                search(Index(["a", "b"], np.eye(2)), query, k=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_refused(self, bad):
        # Scored, it would rank every document nan in arbitrary order.
        with pytest.raises(ValueError, match="finite query"):
            search(Index(["a", "b"], np.eye(2)), np.array([bad, 1.0]), k=2)

    def test_zero_query_scores_zero(self, embedder):
        index = index_of([sample("d1", "a")], embedder)
        result = search(index, np.zeros(embedder.dimension()), k=1)
        assert result[0][1] == 0.0

    def test_agrees_with_naive_full_scan(self):
        # independent reimplementation: python loops and explicit math
        rng = np.random.default_rng(33)
        vectors = rng.normal(size=(30, 12))
        ids = [f"doc-{i:02d}" for i in rng.permutation(30)]
        index_docs = list(zip(ids, vectors))
        query = rng.normal(size=12)

        def naive_cosine(u, v):
            dot = sum(x * y for x, y in zip(u, v))
            nu = math.sqrt(sum(x * x for x in u))
            nv = math.sqrt(sum(x * x for x in v))
            return 0.0 if nu == 0 or nv == 0 else dot / (nu * nv)

        naive = sorted(
            ((doc_id, naive_cosine(query, vec)) for doc_id, vec in index_docs),
            key=lambda pair: (-pair[1], pair[0]),
        )[:10]

        result = search(Index(ids, vectors), query, k=10)
        assert [doc_id for doc_id, _ in result] == [doc_id for doc_id, _ in naive]
        for (_, got), (_, expected) in zip(result, naive):
            assert got == pytest.approx(expected, abs=1e-9)


class TestEvaluateTask:
    def test_self_consistent_construction_is_perfect(self, embedder):
        docs = [sample(f"d{i}", f"doc number {i}") for i in range(5)]
        queries = [sample(f"q{i}", f"doc number {i}") for i in range(5)]
        qrels = {(f"q{i}", f"d{i}"): 1 for i in range(5)}
        task = RetrievalTask("self", queries, docs, qrels)
        assert evaluate_task(task, embedder) == pytest.approx(1.0)

    def test_single_doc_relevant_to_all(self, embedder):
        docs = [sample("d0", "the only document")]
        queries = [sample(f"q{i}", f"query {i}") for i in range(3)]
        qrels = {(f"q{i}", "d0"): 1 for i in range(3)}
        task = RetrievalTask("one", queries, docs, qrels)
        assert evaluate_task(task, embedder) == pytest.approx(1.0)

    def test_heavy_noise_degrades_ndcg(self):
        # 16-dim toy task, lambda=10 vs lambda=0 with a fixed seed set
        embedder = NgramEmbedder(n=3, dim=16, seed=2)
        task = synthetic_retrieval_task("toy", "en", "en", n_docs=20, vocab_size=12, seed=8)
        clean = evaluate_task(task, embedder, DefenseConfig(noise_lambda=0.0))
        noisy = evaluate_task(task, embedder, DefenseConfig(noise_lambda=10.0, noise_seed=5))
        assert noisy < clean

    def test_query_without_judgments_scores_zero_and_logs(self, embedder, caplog):
        docs = [sample("d0", "content")]
        queries = [sample("q0", "content"), sample("q1", "unjudged")]
        task = RetrievalTask("partial", queries, docs, {("q0", "d0"): 1})
        with caplog.at_level(logging.WARNING):
            score = evaluate_task(task, embedder)
        assert score == pytest.approx(0.5)
        assert any("q1" in record.message for record in caplog.records)

    def test_deterministic(self, embedder):
        task = synthetic_retrieval_task("det", "en", "en", n_docs=10, seed=3)
        defense = DefenseConfig(noise_lambda=0.01, noise_seed=9)
        assert evaluate_task(task, embedder, defense) == evaluate_task(task, embedder, defense)

    def test_small_id_masking_preserves_ndcg(self, embedder):
        # unit-normalized embeddings and ids scaled to 0.05k
        ids = assign_language_ids({"en"}, scale=0.05)
        task = synthetic_retrieval_task("mask", "en", "en", n_docs=30, seed=14)
        raw = evaluate_task(task, embedder)
        masked = evaluate_task(task, embedder, DefenseConfig(masking=ids))
        assert abs(masked - raw) < 0.01

    def test_task_without_documents_refused(self, embedder):
        task = RetrievalTask("empty", [sample("q0", "query")], [], {})
        with pytest.raises(ValueError, match="empty document list"):
            evaluate_task(task, embedder)


class TestQrelsIO:
    def test_round_trip(self, tmp_path):
        qrels = {("q1", "d1"): 2, ("q1", "d2"): 1, ("q2", "d3"): 1}
        path = tmp_path / "qrels.tsv"
        save_qrels_tsv(qrels, path)
        assert load_qrels_tsv(path) == qrels

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\td1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_qrels_tsv(path)

    def test_bad_grade(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\td1\thigh\n", encoding="utf-8")
        with pytest.raises(ValueError, match="grade"):
            load_qrels_tsv(path)

    def test_second_line_for_a_pair_cites_line(self, tmp_path):
        path = tmp_path / "twice.tsv"
        path.write_text("q1\td1\t3\nq1\td2\t1\nq1\td1\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="twice.tsv:3: duplicate judgment"):
            load_qrels_tsv(path)

    @pytest.mark.parametrize("grade", [MAX_GRADE + 1, 1023, 1024])
    def test_grade_above_cap_cites_line(self, tmp_path, grade):
        path = tmp_path / "big.tsv"
        path.write_text(f"q1\td1\t{MAX_GRADE}\nq1\td2\t{grade}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"big.tsv:2: relevance grade {grade} above {MAX_GRADE}"):
            load_qrels_tsv(path)
