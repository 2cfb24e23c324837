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

from .defenses import DefenseConfig, DefenseContext, apply_defense_stack, compute_group_means
from .embeddings import BlackBoxEmbedder, Embedding, TextSample
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


def _defended(
    sample: TextSample,
    raw: Embedding,
    defense: DefenseConfig | None,
    context: DefenseContext | None,
    lang_override: str | None = None,
) -> Embedding:
    tagged = raw.with_lang(lang_override if lang_override is not None else sample.lang)
    if defense is None:
        return tagged
    return apply_defense_stack(tagged, defense, context, key=sample.text)


def build_index(
    docs: list[TextSample],
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    context: DefenseContext | None = None,
) -> Index:
    """Embed every document, apply the defense stack, and stack the vectors."""
    if not docs:
        raise ValueError("cannot index an empty document list")
    raws = embedder.embed_many([d.text for d in docs])
    vectors = [_defended(doc, raw, defense, context).values for doc, raw in zip(docs, raws)]
    return Index([d.id for d in docs], np.stack(vectors))


def search(index: Index, query_vec: Embedding | np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by cosine, descending, ties broken by ascending doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = query_vec.values if isinstance(query_vec, Embedding) else np.asarray(query_vec, float)
    if q.shape[0] != index.vectors.shape[1]:
        raise ValueError(
            f"query dimension {q.shape[0]} != index dimension {index.vectors.shape[1]}"
        )
    qnorm = float(np.linalg.norm(q))
    doc_norms = np.linalg.norm(index.vectors, axis=1)
    if qnorm == 0.0:
        scores = np.zeros(len(index.ids))
    else:
        dots = index.vectors @ q
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(doc_norms > 0.0, dots / (doc_norms * qnorm), 0.0)
        scores = np.clip(scores, -1.0, 1.0)
    order = sorted(range(len(index.ids)), key=lambda i: (-scores[i], index.ids[i]))
    return [(index.ids[i], float(scores[i])) for i in order[:k]]


def evaluate_task(
    task: RetrievalTask,
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    k: int = 10,
    query_mask_lang: str | None = None,
) -> float:
    """Mean NDCG@k over the task's queries with a shared defense stack.

    Queries are masked with their own language id unless ``query_mask_lang``
    overrides it. Queries without judgments score 0 and are logged.
    """
    samples = task.docs + task.queries
    embs = embedder.embed_many([s.text for s in samples])
    raws = [e.with_lang(s.lang) for e, s in zip(embs, samples)]
    raw_docs, raw_queries = raws[: len(task.docs)], raws[len(task.docs) :]
    context = None
    if defense is not None and defense.language_agnostic:
        context = DefenseContext(compute_group_means(raws))
    doc_vectors = [
        _defended(doc, raw, defense, context).values
        for doc, raw in zip(task.docs, raw_docs)
    ]
    index = Index([d.id for d in task.docs], np.stack(doc_vectors))
    total = 0.0
    for query, raw in zip(task.queries, raw_queries):
        qvec = _defended(query, raw, defense, context, lang_override=query_mask_lang)
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
