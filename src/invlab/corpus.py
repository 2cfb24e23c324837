"""Corpus ingestion from JSONL files."""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .embeddings import TextSample


class CorpusFormatError(ValueError):
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

    @property
    def languages(self) -> list[str]:
        return sorted({s.lang for s in self.samples})

    def by_lang(self, lang: str) -> list[TextSample]:
        return [s for s in self.samples if s.lang == lang]


def load_jsonl_corpus(path: str | Path) -> Corpus:
    """One TextSample per line from {"id":…,"text":…,"lang":…} objects.

    Rejects malformed lines, missing or non-string fields and duplicate ids,
    citing the line number; preserves file order. Blank lines are ignored.
    """
    samples: list[TextSample] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
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
