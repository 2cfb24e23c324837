"""Brute-force nearest-neighbor retrieval for the defense trade-off study.

Exact cosine scan over the whole document collection: at desk scale the
corpora are small and exactness removes approximate-index noise from the
defense measurements. Tasks are single-language or cross-lingual depending
on the query and document languages.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defenses import DefenseConfig, apply_defense_stack, compute_group_means
from .embeddings import BlackBoxEmbedder, InputFormatError, TextSample, cosine, open_text
from .metrics import MAX_GRADE, ndcg_at_k

log = logging.getLogger(__name__)


@dataclass
class RetrievalTask:
    """Queries, documents, and graded relevance judgments."""

    name: str
    queries: list[TextSample]
    docs: list[TextSample]
    qrels: dict[tuple[str, str], int]

    def __post_init__(self) -> None:
        query_ids = {q.id for q in self.queries}
        doc_ids = {d.id for d in self.docs}
        for (qid, did), grade in self.qrels.items():
            if qid not in query_ids:
                raise ValueError(f"qrel references unknown query id {qid!r}")
            if did not in doc_ids:
                raise ValueError(f"qrel references unknown doc id {did!r}")
            if not 1 <= grade <= MAX_GRADE:
                raise ValueError(f"relevance grade must be in 1..{MAX_GRADE}, got {grade}")

    def qrels_by_query(self) -> dict[str, dict[str, int]]:
        """Each judged query's ``{doc_id: grade}``, in qrels order, from one
        pass over the judgments."""
        by_query: dict[str, dict[str, int]] = {}
        for (qid, did), grade in self.qrels.items():
            by_query.setdefault(qid, {})[did] = grade
        return by_query


@dataclass(eq=False)
class Index:
    """Document ids and their (defended) vectors, in insertion order."""

    ids: list[str]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def search(index: Index, query_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by cosine, descending, ties broken by ascending doc id. A
    query that is not one finite vector of the index's dimension raises
    ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_vec = np.asarray(query_vec, dtype=np.float64)
    shape = index.vectors.shape[1:]
    if query_vec.shape != shape or not np.isfinite(query_vec).all():
        raise ValueError(f"need a finite query of shape {shape}: {query_vec.shape}")
    scores = cosine(index.vectors, query_vec)
    order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))
    return [(index.ids[i], scores[i]) for i in order[:k]]


def embed_task(task: RetrievalTask, embedder: BlackBoxEmbedder) -> np.ndarray:
    """The task's raw embeddings, documents then queries, from one batch; a
    task without documents raises ValueError before any query."""
    if not task.docs:
        raise ValueError("cannot index an empty document list")
    return embedder.embed_many([s.text for s in task.docs + task.queries])


def evaluate_task(
    task: RetrievalTask,
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    k: int = 10,
    rows: np.ndarray | None = None,
) -> float:
    """Mean NDCG@k over the task's queries with a shared defense stack.

    Queries are masked with their own language id. Queries without
    judgments score 0 and are logged; a task without documents raises
    ValueError. ``rows`` are the task's ``embed_task`` rows when the caller
    already has them, as a sweep over several defenses does; otherwise the
    task is embedded here.
    """
    if rows is None:
        rows = embed_task(task, embedder)
    samples = task.docs + task.queries
    n_docs = len(task.docs)
    langs = [s.lang for s in samples]
    # The language-agnostic stage takes its group means from the raw rows.
    means = None
    if defense is not None and defense.language_agnostic:
        means = compute_group_means(rows, langs)
    defended = apply_defense_stack(rows, langs, [s.text for s in samples], defense, means)
    index = Index([d.id for d in task.docs], defended[:n_docs])
    judged = task.qrels_by_query()
    total = 0.0
    for query, qvec in zip(task.queries, defended[n_docs:]):
        ranking = [doc_id for doc_id, _ in search(index, qvec, k)]
        rels = judged.get(query.id)
        if not rels:
            log.warning("query %s in task %s has no judgments; scored 0", query.id, task.name)
            continue
        total += ndcg_at_k(ranking, rels, k)
    return total / len(task.queries) if task.queries else 0.0


def load_qrels_tsv(path: str | Path) -> dict[tuple[str, str], int]:
    """Parse judgments from 'query_id<TAB>doc_id<TAB>grade' lines;
    undecodable bytes, another field count, a grade that is not an integer
    in 1..``MAX_GRADE``, or a second line for one (query id, doc id)
    pair raises InputFormatError citing the path and line."""
    qrels: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(open_text(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InputFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        qid, did, grade = fields
        if (qid, did) in qrels:
            raise InputFormatError(f"{path}:{lineno}: duplicate judgment for ({qid!r}, {did!r})")
        try:
            value = int(grade)
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: bad relevance grade {grade!r}") from exc
        if value > MAX_GRADE:
            raise InputFormatError(f"{path}:{lineno}: relevance grade {value} above {MAX_GRADE}")
        if value < 1:
            raise InputFormatError(f"{path}:{lineno}: relevance grade {value} below 1")
        qrels[(qid, did)] = value
    return qrels
