"""Data builders and readers that only the tests use."""

import csv
from pathlib import Path

from invlab.corpus import Corpus
from invlab.datagen import language_tokens
from invlab.embeddings import TextSample
from invlab.seeding import derive_rng


def synthetic_corpus(
    lang: str,
    size: int,
    vocab_size: int = 20,
    min_len: int = 3,
    max_len: int = 6,
    seed: int = 0,
) -> Corpus:
    """Random token sequences in one language."""
    rng = derive_rng("corpus", lang, size, vocab_size, min_len, max_len, seed)
    pool = language_tokens(lang, vocab_size)
    samples = []
    for i in range(size):
        length = int(rng.integers(min_len, max_len + 1))
        words = [pool[int(j)] for j in rng.integers(0, vocab_size, size=length)]
        samples.append(TextSample(id=f"{lang}-{i:04d}", text=" ".join(words), lang=lang))
    return Corpus(tuple(samples))


def save_qrels_tsv(qrels: dict[tuple[str, str], int], path: str | Path) -> None:
    """Write judgments as the 'query_id<TAB>doc_id<TAB>grade' lines that
    ``load_qrels_tsv`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, did), grade in qrels.items():
            fh.write(f"{qid}\t{did}\t{grade}\n")


def csv_rows_without_wall(path: str | Path) -> list[list[str]]:
    """All CSV cells except the wall-clock column, for determinism checks."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        return [row[:-1] for row in reader]
