"""Embedding-release defenses, composable into a deterministic stack.

Three transforms a provider can apply before releasing vectors: additive
seeded Gaussian noise, overwriting dimension 0 with a per-language
identifier, and subtracting the per-language mean so only the
language-agnostic component survives. The stack applies them to a whole
``(n, dim)`` batch in the fixed order agnostic -> noise -> mask (-> optional
renormalize) so the masked dimension-0 value always survives composition.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .embeddings import BlackBoxEmbedder, ConfigError, Embedding, from_json
from .seeding import derive_rng


class UnknownLanguageError(ValueError):
    """An embedding's language is missing from the configured id map."""


@dataclass
class DefenseConfig:
    """Declarative description of a defense stack.

    ``masking`` maps language codes to the value written into dimension 0;
    ``None`` disables masking entirely. ``noise_lambda`` of 0 disables noise.
    Non-finite noise levels and language ids are refused.
    """

    noise_lambda: float = 0.0
    noise_seed: int = 0
    masking: dict[str, float] | None = None
    language_agnostic: bool = False
    renormalize_after: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.noise_lambda) or self.noise_lambda < 0:
            raise ConfigError("noise_lambda must be finite and non-negative")
        if self.masking is not None:
            ids = list(self.masking.values())
            if not all(math.isfinite(i) for i in ids):
                raise ConfigError("language ids must be finite")
            if len(set(ids)) != len(ids):
                raise ConfigError("language ids must be pairwise distinct")

    def enabled(self) -> bool:
        on = self.masking is not None or self.language_agnostic or self.renormalize_after
        return bool(on or self.noise_lambda > 0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DefenseConfig":
        """Build a validated config from outside input (such as decoded
        JSON), as ``from_json`` decodes it: ``noise_seed`` must be a JSON
        integer, ``noise_lambda`` and the language ids JSON numbers, and the
        two switches JSON booleans. An unknown key or any malformed value
        raises ConfigError."""
        return from_json(cls, data, "defense")


@dataclass
class DefenseContext:
    """Data-dependent inputs the stack cannot derive from config alone."""

    group_means: dict[str | None, np.ndarray] = field(default_factory=dict)


def derive_noise_rng(noise_seed: int, key: str) -> np.random.Generator:
    """Noise stream for one embedding, keyed by (seed, sample key).

    Keying on the embedded text keeps the transform a pure function, so the
    same text always receives the same perturbation regardless of where or
    in what order it is embedded.
    """
    return derive_rng("noise", noise_seed, key)


def assign_language_ids(langs: Iterable[str], scale: float = 1.0) -> dict[str, float]:
    """Assign 1.0, 2.0, ... to language codes in sorted order.

    ``scale`` shrinks the ids uniformly; small ids relative to the embedding
    norm trade security for retrieval fidelity.
    """
    ordered = sorted(set(langs))
    if not ordered:
        raise ValueError("language set must be non-empty")
    return {code: scale * float(i + 1) for i, code in enumerate(ordered)}


def _group_means(rows: np.ndarray, langs: Sequence[str | None]) -> dict[str | None, np.ndarray]:
    """Component-wise mean of the rows of each language group."""
    groups: dict[str | None, list[int]] = {}
    for i, lang in enumerate(langs):
        groups.setdefault(lang, []).append(i)
    return {lang: np.mean(rows[idx], axis=0) for lang, idx in groups.items()}


def compute_group_means(batch: Sequence[Embedding]) -> dict[str | None, np.ndarray]:
    """Component-wise mean embedding per language group."""
    if not batch:
        raise ValueError("batch must be non-empty")
    # np.stack refuses mixed dimensions with ValueError.
    return _group_means(np.stack([e.values for e in batch]), [e.lang for e in batch])


def language_agnostic(batch: Sequence[Embedding]) -> list[Embedding]:
    """Subtract each language group's mean, leaving zero-mean groups."""
    means = compute_group_means(batch)
    return [e.with_values(e.values - means[e.lang]) for e in batch]


def apply_defense_stack(
    rows: np.ndarray,
    langs: Sequence[str | None],
    keys: Sequence[str],
    config: DefenseConfig | None,
    context: DefenseContext | None = None,
) -> np.ndarray:
    """Apply the configured stages in fixed order to an ``(n, dim)`` batch;
    returns ``rows`` itself when no stage is on or the batch is empty, and
    never writes it. Row ``i`` is centred and masked by ``langs[i]``; its
    noise stream is keyed by ``keys[i]`` (conventionally the embedded text).

    Every row's language is checked before any arithmetic: no group mean or
    masking id raises UnknownLanguageError, a mean of the wrong shape
    ValueError. A row the agnostic or noise stage leaves non-finite, or
    whose norm overflows under ``renormalize_after``, then raises ValueError.
    """
    if config is None or not config.enabled() or not len(rows):
        return rows
    dim = rows.shape[1]
    means = context.group_means if context is not None else None
    if config.language_agnostic and not means:
        raise ConfigError("language-agnostic stage needs group means in context")
    for lang in dict.fromkeys(langs):
        if config.language_agnostic:
            if lang not in means:
                raise UnknownLanguageError(f"no group mean for language {lang!r}")
            if np.shape(means[lang]) != (dim,):
                raise ValueError(f"group mean shape {np.shape(means[lang])} != row shape {(dim,)}")
        if config.masking is not None and lang not in config.masking:
            raise UnknownLanguageError(f"language {lang!r} has no masking id")
    out = rows
    with np.errstate(over="ignore"):  # the finite check below refuses overflow
        if config.language_agnostic:
            out = out - np.stack([means[lang] for lang in langs])
        if config.noise_lambda > 0:
            rngs = [derive_noise_rng(config.noise_seed, key) for key in keys]
            out = out + config.noise_lambda * np.stack([rng.standard_normal(dim) for rng in rngs])
    if not np.isfinite(out).all():
        raise ValueError("defended embedding components must be finite")
    if config.masking is not None:
        out = out.copy() if out is rows else out
        out[:, 0] = [config.masking[lang] for lang in langs]
    if config.renormalize_after:
        # np.vecdot runs the per-row BLAS dot that np.linalg.norm of one row
        # runs, so each row is scaled bitwise as it would be alone.
        with np.errstate(over="ignore"):  # refused below, not released as zeros
            norms = np.sqrt(np.vecdot(out, out))
        if not np.isfinite(norms).all():
            raise ValueError("defended embedding norms must be finite")
        out = out / np.where(norms > 0.0, norms, 1.0)[:, None]
    return out


def embed_many_with_defense(
    embedder: BlackBoxEmbedder,
    texts: Sequence[str],
    langs: Sequence[str | None],
    config: DefenseConfig | None = None,
    context: DefenseContext | None = None,
) -> np.ndarray:
    """Embed texts in one batch and return the ``(len(texts), dim)`` matrix,
    passed through the defense stack with each row tagged by its language
    and keyed by its text."""
    return apply_defense_stack(embedder.embed_many(texts), langs, texts, config, context)
