"""Embedding-release defenses, composable into a deterministic stack.

Three transforms a provider can apply before releasing vectors: additive
seeded Gaussian noise, overwriting dimension 0 with a per-language
identifier, and subtracting the per-language mean so only the
language-agnostic component survives. The stack applies them in the fixed
order agnostic -> noise -> mask (-> optional renormalize) so the masked
dimension-0 value always survives composition.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import BlackBoxEmbedder, ConfigError, Embedding
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
        return bool(self.noise_lambda > 0 or self.masking is not None or self.language_agnostic)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "DefenseConfig":
        """Build a validated config from outside input (such as decoded
        JSON); any malformed value raises ConfigError."""
        try:
            masking = data.get("masking")
            return cls(
                noise_lambda=float(data.get("noise_lambda", 0.0)),
                noise_seed=int(data.get("noise_seed", 0)),
                masking={str(k): float(v) for k, v in masking.items()} if masking is not None else None,
                language_agnostic=bool(data.get("language_agnostic", False)),
                renormalize_after=bool(data.get("renormalize_after", False)),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            # Wrong container types, unparsable or out-of-range numbers
            # (int(inf), float(10**400), digit-limit strings).
            raise ConfigError(f"malformed defense config: {exc}") from exc


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


def noise_insert(e: Embedding, lam: float, rng: np.random.Generator) -> Embedding:
    """Add lam-scaled standard-normal noise; lam == 0 returns e unchanged.
    A result that overflows to non-finite values raises ValueError."""
    if lam < 0:
        raise ConfigError("noise scale must be non-negative")
    if lam == 0:
        return e
    with np.errstate(over="ignore"):  # Embedding refuses a non-finite result
        values = e.values + lam * rng.standard_normal(e.dim)
    return e.with_values(values)


def assign_language_ids(langs: Iterable[str], scale: float = 1.0) -> dict[str, float]:
    """Assign 1.0, 2.0, ... to language codes in sorted order.

    ``scale`` shrinks the ids uniformly; small ids relative to the embedding
    norm trade security for retrieval fidelity.
    """
    ordered = sorted(set(langs))
    if not ordered:
        raise ValueError("language set must be non-empty")
    return {code: scale * float(i + 1) for i, code in enumerate(ordered)}


def mask_language(e: Embedding, lang_id: float) -> Embedding:
    """Overwrite dimension 0 with the language identifier."""
    if e.dim < 2:
        raise ValueError("masking needs dimension >= 2")
    out = e.values.copy()
    out[0] = lang_id
    return e.with_values(out)


def compute_group_means(batch: Sequence[Embedding]) -> dict[str | None, np.ndarray]:
    """Component-wise mean embedding per language group."""
    if not batch:
        raise ValueError("batch must be non-empty")
    dim = batch[0].dim
    groups: dict[str | None, list[np.ndarray]] = {}
    for e in batch:
        if e.dim != dim:
            raise ValueError("mixed embedding dimensions in batch")
        groups.setdefault(e.lang, []).append(e.values)
    return {lang: np.mean(vecs, axis=0) for lang, vecs in groups.items()}


def language_agnostic(batch: Sequence[Embedding]) -> list[Embedding]:
    """Subtract each language group's mean, leaving zero-mean groups."""
    means = compute_group_means(batch)
    return [e.with_values(e.values - means[e.lang]) for e in batch]


def apply_defense_stack(
    e: Embedding,
    config: DefenseConfig | None,
    context: DefenseContext | None = None,
    key: str = "",
) -> Embedding:
    """Apply the configured stages in fixed order; disabled stages are skipped.

    ``key`` seeds the per-embedding noise stream (conventionally the embedded
    text). Masking and mean subtraction read the embedding's own ``lang`` tag.
    """
    if config is None:
        return e
    out = e
    if config.language_agnostic:
        means = context.group_means if context is not None else None
        if not means:
            raise ConfigError("language-agnostic stage needs group means in context")
        if out.lang not in means:
            raise UnknownLanguageError(f"no group mean for language {out.lang!r}")
        mean = means[out.lang]
        if np.shape(mean) != out.values.shape:
            raise ValueError(f"group mean shape {np.shape(mean)} != embedding shape {out.values.shape}")
        out = out.with_values(out.values - mean)
    if config.noise_lambda > 0:
        rng = derive_noise_rng(config.noise_seed, key)
        out = noise_insert(out, config.noise_lambda, rng)
    if config.masking is not None:
        if out.lang is None or out.lang not in config.masking:
            raise UnknownLanguageError(f"language {out.lang!r} has no masking id")
        out = mask_language(out, config.masking[out.lang])
    if config.renormalize_after:
        norm = float(np.linalg.norm(out.values))
        if norm > 0.0:
            out = out.with_values(out.values / norm)
    return out


def embed_many_with_defense(
    embedder: BlackBoxEmbedder,
    texts: Sequence[str],
    langs: Sequence[str | None],
    config: DefenseConfig | None = None,
    context: DefenseContext | None = None,
) -> list[Embedding]:
    """Embed texts in one batch, tag each with its language, and pass each
    through the defense stack keyed by its text."""
    tagged = [e.with_lang(lang) for e, lang in zip(embedder.embed_many(texts), langs)]
    if config is None:
        return tagged
    return [apply_defense_stack(e, config, context, key=t) for e, t in zip(tagged, texts)]
