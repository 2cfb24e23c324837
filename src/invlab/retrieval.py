"""Brute-force nearest-neighbor retrieval for the defense trade-off study.

Exact cosine scan over the whole document collection: at desk scale the
corpora are small and exactness removes approximate-index noise from the
defense measurements. Tasks are monolingual or cross-lingual depending on
the query and document languages.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .defenses import (
    DefenseConfig,
    DefenseContext,
    _group_means,
    apply_defense_stack,
    embed_many_with_defense,
)
from .embeddings import BlackBoxEmbedder, Embedding, TextSample, cosine
from .metrics import ndcg_at_k

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
            if grade < 1:
                raise ValueError(f"relevance grade must be >= 1, got {grade}")

    def qrels_for(self, query_id: str) -> dict[str, int]:
        return {did: g for (qid, did), g in self.qrels.items() if qid == query_id}

    @property
    def monolingual(self) -> bool:
        langs = {q.lang for q in self.queries} | {d.lang for d in self.docs}
        return len(langs) == 1


@dataclass(eq=False)
class Index:
    """Document ids and their (defended) vectors, in insertion order."""

    ids: list[str]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    docs: list[TextSample],
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    context: DefenseContext | None = None,
) -> Index:
    """Embed every document, apply the defense stack, and stack the vectors."""
    if not docs:
        raise ValueError("cannot index an empty document list")
    vectors = embed_many_with_defense(
        embedder, [d.text for d in docs], [d.lang for d in docs], defense, context
    )
    return Index([d.id for d in docs], vectors)


def search(index: Index, query_vec: Embedding | np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by cosine, descending, ties broken by ascending doc id; a
    query whose dimension is not the index's raises ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = cosine(index.vectors, query_vec)
    order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))
    return [(index.ids[i], scores[i]) for i in order[:k]]


def evaluate_task(
    task: RetrievalTask,
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    k: int = 10,
) -> float:
    """Mean NDCG@k over the task's queries with a shared defense stack.

    Queries are masked with their own language id. Queries without
    judgments score 0 and are logged; a task without documents raises
    ValueError.
    """
    if not task.docs:
        raise ValueError("cannot index an empty document list")
    samples = task.docs + task.queries
    n_docs = len(task.docs)
    # Undefended first: the language-agnostic stage needs the raw group means.
    rows = embedder.embed_many([s.text for s in samples])
    langs = [s.lang for s in samples]
    context = None
    if defense is not None and defense.language_agnostic:
        context = DefenseContext(_group_means(rows, langs))
    defended = apply_defense_stack(rows, langs, [s.text for s in samples], defense, context)
    index = Index([d.id for d in task.docs], defended[:n_docs])
    total = 0.0
    for query, qvec in zip(task.queries, defended[n_docs:]):
        ranking = [doc_id for doc_id, _ in search(index, qvec, k)]
        rels = task.qrels_for(query.id)
        if not rels:
            log.warning("query %s in task %s has no judgments; scored 0", query.id, task.name)
            continue
        total += ndcg_at_k(ranking, rels, k)
    return total / len(task.queries) if task.queries else 0.0


def load_qrels_tsv(path: str | Path) -> dict[tuple[str, str], int]:
    """Parse judgments from 'query_id<TAB>doc_id<TAB>grade' lines."""
    qrels: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            qid, did, grade = fields
            try:
                qrels[(qid, did)] = int(grade)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad relevance grade {grade!r}") from exc
    return qrels


def save_qrels_tsv(qrels: dict[tuple[str, str], int], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, did), grade in qrels.items():
            fh.write(f"{qid}\t{did}\t{grade}\n")
