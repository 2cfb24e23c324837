"""Corpus ingestion from JSONL files."""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .embeddings import InputFormatError, TextSample, open_text


class CorpusFormatError(InputFormatError):
    """A corpus file violates the one-object-per-line schema."""


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of text samples with unique ids."""

    samples: tuple[TextSample, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for sample in self.samples:
            if sample.id in seen:
                raise ValueError(f"duplicate sample id {sample.id!r}")
            seen.add(sample.id)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TextSample]:
        return iter(self.samples)

    def __getitem__(self, i: int) -> TextSample:
        return self.samples[i]


def load_jsonl_corpus(path: str | Path) -> Corpus:
    """One TextSample per line from {"id":…,"text":…,"lang":…} objects.

    Rejects bytes that are not UTF-8, malformed lines, missing or non-string
    fields and duplicate ids, citing the line number; preserves file order.
    Blank lines are ignored.
    """
    samples: list[TextSample] = []
    seen: set[str] = set()
    for lineno, line in enumerate(open_text(path), start=1):
        if not line.strip():
            continue
        # ValueError: bad JSON or an over-long integer; RecursionError: too deep nesting
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        for key in ("id", "text", "lang"):
            if not isinstance(obj.get(key), str):
                raise CorpusFormatError(f"{path}:{lineno}: {key!r} missing or not a string")
        sample = TextSample(id=obj["id"], text=obj["text"], lang=obj["lang"])
        if sample.id in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate id {sample.id!r}")
        seen.add(sample.id)
        samples.append(sample)
    return Corpus(tuple(samples))


def save_jsonl_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in corpus:
            fh.write(json.dumps({"id": s.id, "text": s.text, "lang": s.lang}) + "\n")
