"""Synthetic corpora, dictionaries, and retrieval tasks.

Real multilingual benchmarks are out of scope at desk scale, so experiments
run on generated data instead. Token i of language L is rendered as
``letter_i + L + letter_i`` ("aena", "bfrb", ...): the outer letters make
tokens distinctive at both ends, so boundary n-grams encode token order;
translations of each other share their outer letters, the toy analogue of a
multilingual encoder aligning translations; and the language code in the
middle gives every language a strong shared component.
"""

import string

from .corpus import Corpus
from .embeddings import TextSample
from .retrieval import RetrievalTask
from .seeding import derive_rng

_LETTERS = string.ascii_lowercase

MAX_VOCAB = len(_LETTERS)


def language_tokens(lang: str, size: int) -> list[str]:
    """Vocabulary of ``size`` tokens rendered in one language."""
    if size > MAX_VOCAB:
        raise ValueError(f"at most {MAX_VOCAB} tokens per language")
    return [f"{_LETTERS[i]}{lang}{_LETTERS[i]}" for i in range(size)]


def parallel_corpora(
    langs: list[str],
    size: int,
    vocab_size: int = 20,
    min_len: int = 3,
    max_len: int = 6,
    seed: int = 0,
) -> dict[str, Corpus]:
    """Token-aligned corpora: sample i uses the same token indices in every
    language, so a word-for-word dictionary translates one into the other."""
    rng = derive_rng("parallel", ",".join(sorted(langs)), size, vocab_size, min_len, max_len, seed)
    sequences = []
    for _ in range(size):
        length = int(rng.integers(min_len, max_len + 1))
        sequences.append([int(j) for j in rng.integers(0, vocab_size, size=length)])
    out = {}
    for lang in langs:
        pool = language_tokens(lang, vocab_size)
        samples = [
            TextSample(
                id=f"{lang}-{i:04d}",
                text=" ".join(pool[j] for j in seq),
                lang=lang,
            )
            for i, seq in enumerate(sequences)
        ]
        out[lang] = Corpus(tuple(samples))
    return out


def bijective_dictionary(src: str, tgt: str, vocab_size: int) -> dict[str, str]:
    """Word map sending token i of ``src`` to token i of ``tgt``."""
    return dict(zip(language_tokens(src, vocab_size), language_tokens(tgt, vocab_size)))


def synthetic_retrieval_task(
    name: str,
    query_lang: str,
    doc_lang: str,
    n_docs: int = 40,
    vocab_size: int = 24,
    length: int = 6,
    seed: int = 0,
) -> RetrievalTask:
    """One task with identity qrels: query i is a lightly perturbed rendering
    of document i in the query language (one token replaced), so the correct
    document is close but not trivially identical."""
    rng = derive_rng("task", name, query_lang, doc_lang, n_docs, vocab_size, length, seed)
    doc_pool = language_tokens(doc_lang, vocab_size)
    query_pool = language_tokens(query_lang, vocab_size)
    docs = []
    queries = []
    qrels = {}
    for i in range(n_docs):
        seq = [int(j) for j in rng.integers(0, vocab_size, size=length)]
        perturbed = list(seq)
        perturbed[int(rng.integers(0, length))] = int(rng.integers(0, vocab_size))
        doc_id = f"d-{i:04d}"
        query_id = f"q-{i:04d}"
        docs.append(
            TextSample(id=doc_id, text=" ".join(doc_pool[j] for j in seq), lang=doc_lang)
        )
        queries.append(
            TextSample(
                id=query_id,
                text=" ".join(query_pool[j] for j in perturbed),
                lang=query_lang,
            )
        )
        qrels[(query_id, doc_id)] = 1
    return RetrievalTask(name=name, queries=queries, docs=docs, qrels=qrels)
