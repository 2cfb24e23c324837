"""Embedding value type, cosine geometry, and a deterministic toy embedder.

The embedder maps text to a fixed-dimension vector by hashing character
n-grams into seeded signed slots. It is cheap, deterministic across
processes, and invertible by exhaustive search at small scale, which makes
ground truth computable for every attack experiment. Callers only ever see
the black-box surface: text in, vector out, one query counted per text.
"""

import functools
import hashlib
import math
import threading
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from types import NoneType, UnionType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration value."""


def from_json(cls: type, data: Any, name: str) -> Any:
    """An instance of the dataclass ``cls`` decoded from JSON ``data``, which
    must be an object whose keys all name fields of ``cls``; missing fields
    take their defaults, and ``cls`` runs its own range checks.

    Each value must match its field's annotation: ``bool``, ``int`` and
    ``str`` need exactly that JSON type (so ``true`` is no integer and
    ``"false"`` no boolean), ``float`` takes any JSON number, and ``list[T]``,
    ``dict[str, T]``, ``T | None`` and nested dataclasses are decoded in
    turn. Anything else raises ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(map(str, unknown))}")
    hints = _type_hints(cls)
    return cls(**{key: _decode(hints[key], value, key) for key, value in data.items()})


_type_hints = functools.cache(get_type_hints)  # resolving them costs more than a decode


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string"}


def _decode(hint: Any, value: Any, name: str) -> Any:
    """``value`` checked against the type ``hint``, as ``from_json`` says."""
    if hint is float:
        if type(value) not in (int, float):
            raise ConfigError(f"{name} must be a JSON number, not {type(value).__name__}")
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is past the float range") from None
    if hint in _JSON_TYPES:
        if type(value) is not hint:
            raise ConfigError(f"{name} must be a JSON {_JSON_TYPES[hint]}, not {type(value).__name__}")
        return value
    if is_dataclass(hint):
        return from_json(hint, value, name)
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # T | None
        (inner,) = [a for a in args if a is not NoneType]
        return None if value is None else _decode(inner, value, name)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a JSON array, not {type(value).__name__}")
        return [_decode(args[0], v, name) for v in value]
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object, not {type(value).__name__}")
        return {
            _decode(str, k, f"{name} key"): _decode(args[1], v, f"{name} value")
            for k, v in value.items()
        }
    raise TypeError(f"from_json cannot decode a field of type {hint}")


@dataclass(frozen=True, eq=False)
class Embedding:
    """Fixed-dimension real vector with an optional language tag."""

    values: np.ndarray
    lang: str | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("embedding values must be one-dimensional")
        if values.size < 2:
            raise ValueError("embedding dimension must be at least 2")
        if not np.isfinite(values).all():
            raise ValueError("embedding components must be finite")

    @classmethod
    def _trusted(cls, values: np.ndarray, lang: str | None = None) -> "Embedding":
        """Wrap values already known to pass the checks above, such as a row
        of an embedder's matrix, without repeating them."""
        e = object.__new__(cls)
        object.__setattr__(e, "values", values)
        object.__setattr__(e, "lang", lang)
        return e

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "Embedding":
        return Embedding(values, lang=self.lang)

    def with_lang(self, lang: str | None) -> "Embedding":
        """This embedding tagged ``lang``: itself when the tag is unchanged."""
        return self if lang == self.lang else Embedding._trusted(self.values, lang)


@dataclass(frozen=True)
class TextSample:
    """Identified, language-tagged text record."""

    id: str
    text: str
    lang: str


def cosine(a: "Embedding | np.ndarray", b: "Embedding | np.ndarray") -> "float | list[float]":
    """Cosine similarity in [-1, 1] of ``a`` and the vector ``b``; a 2-D
    ``a`` is a block of rows and gives one float per row, each bitwise equal
    to ``cosine(row, b)``.

    Dimension mismatch raises ValueError; an all-zero vector on either side
    (or norms whose product underflows to 0) yields 0.0 by convention so
    metric aggregation never aborts on degenerate inputs.
    """
    va = a.values if isinstance(a, Embedding) else np.asarray(a, dtype=np.float64)
    vb = b.values if isinstance(b, Embedding) else np.asarray(b, dtype=np.float64)
    if vb.ndim != 1 or va.ndim not in (1, 2) or va.shape[-1] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape} vs {vb.shape}")
    # np.vecdot takes each row's dot product with the BLAS call ndarray.dot
    # makes for that row alone, so every score is bitwise equal to the
    # np.linalg.norm / np.clip formulation; a matrix product (rows @ vb) or
    # einsum would sum in another order.
    rows = va if va.ndim == 2 else va[None]
    den = np.sqrt(np.vecdot(rows, rows)) * math.sqrt(vb.dot(vb))
    cos = np.divide(np.vecdot(rows, vb), den, out=np.zeros(len(rows)), where=den != 0.0)
    out = np.minimum(np.maximum(cos, -1.0), 1.0).tolist()
    return out if va.ndim == 2 else out[0]


@dataclass(frozen=True)
class NgramConfig:
    """Configuration of the hashed character n-gram embedder.

    ``n`` is the maximum gram order; all orders 1..n contribute, so partial
    texts still land near their completions and greedy search has a usable
    score landscape.
    """

    n: int = 3
    dim: int = 256
    seed: int = 0
    unit_norm: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n-gram order must be >= 1")
        if self.dim < 2:
            raise ConfigError("embedding dimension must be >= 2")


def _gram_slot(gram: str, seed: int, dim: int) -> tuple[int, float]:
    """Seeded (slot index, sign) of one gram."""
    salt = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(gram.encode("utf-8"), key=salt, digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    return h % dim, 1.0 if (h >> 63) == 0 else -1.0


def embed_ngram(text: str, config: NgramConfig) -> Embedding:
    """Hashed character n-gram embedding; a pure function of (text, config).

    This is the plain-Python reference implementation: ``NgramEmbedder``
    computes the same vectors in batches and must stay bytewise equal to it.
    """
    vec = np.zeros(config.dim, dtype=np.float64)
    grams: Counter[str] = Counter()
    for order in range(1, config.n + 1):
        for i in range(len(text) - order + 1):
            grams[text[i : i + order]] += 1
    for gram, count in grams.items():
        idx, sign = _gram_slot(gram, config.seed, config.dim)
        vec[idx] += sign * count
    if config.unit_norm:
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
    return Embedding(vec)


class BlackBoxEmbedder(ABC):
    """Encoder reachable only through embed queries.

    Implementations provide ``embed_many``, which returns one finite row per
    text as a ``(len(texts), dimension())`` float64 matrix, must be deterministic
    per text and counts exactly one query per text; ``embed`` is a batch of
    one, wrapped as an ``Embedding``. The counter must be safe under
    concurrent use.
    """

    @abstractmethod
    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...

    @abstractmethod
    def dimension(self) -> int: ...

    @abstractmethod
    def queries_used(self) -> int: ...

    def embed(self, text: str) -> Embedding:
        return Embedding(self.embed_many([text])[0])


# Most slot codes the chunk memo of one ``NgramEmbedder`` holds; every gram
# in its gram dict belongs to a held chunk, so this bounds both. Filled to
# the cap with adversarial texts (random CJK and non-BMP characters, as
# one- and two-character tokens or as one spaceless chunk, n = 1..5), the
# two dicts hold at most about 9 MiB; the benchmark workloads peak near 13k.
_MEMO_CAP = 1 << 16


class NgramEmbedder(BlackBoxEmbedder):
    """The toy embedder behind the black-box interface.

    ``embed_many`` is the kernel: grams of every text map to signed slot
    codes, one ``bincount`` scatters the whole batch, and the rows are
    normalised together and returned as one matrix. Before normalisation
    every component is a sum of +-1, an exact integer in float64, and so is
    its sum of squares; any summation order therefore gives the bits of
    ``embed_ngram``.

    Slot codes come from a per-chunk memo. A text splits into chunks that
    each run from a token start through the space after it, or to the end
    of the text. The grams starting in a chunk depend only on its key, the
    chunk plus the next ``n - 1`` characters, whose first space marks where
    the chunk ends; the memo maps each key to the codes of those grams, so a
    text costs one slice and one lookup per chunk, not per gram. Misses are
    filled from a gram -> code dict, one ``blake2b`` per distinct gram. The
    chunks never hold more than ``_MEMO_CAP`` codes: a miss that would pass
    the cap first replaces both dicts with empty ones. Codes are a pure
    function of the gram, so a reset changes no vector.
    """

    def __init__(self, config: NgramConfig | None = None, **kwargs):
        if config is not None and kwargs:
            raise ConfigError("pass either a config object or keyword fields, not both")
        self.config = config or NgramConfig(**kwargs)
        self._lock = threading.Lock()
        self._queries = 0
        # chunk key -> slot codes of the grams starting in the chunk; gram ->
        # signed slot code (the slot index for a positive sign, dim + the
        # index for a negative one); and the codes the chunks hold. Misses
        # update them under _memo_lock and a reset rebinds them, so a batch
        # reading the old dicts keeps a consistent view.
        self._memo_lock = threading.Lock()
        self._chunks: dict[str, list[int]] = {}
        self._codes: dict[str, int] = {}
        self._held = 0

    def _slot_codes(self, texts: Sequence[str]) -> list[int]:
        """Slot codes of every gram of every text, text after text."""
        chunks, look = self._chunks, self.config.n - 1
        out: list[int] = []
        extend = out.extend
        for text in texts:
            start = 0
            for token in text.split(" "):
                end = start + len(token) + 1  # past the space, or the text
                key = text[start : end + look]
                try:
                    extend(chunks[key])
                except KeyError:
                    extend(self._chunk_codes(key))
                start = end
        return out

    def _chunk_codes(self, key: str) -> list[int]:
        """Slot codes of the grams starting in the chunk that ``key`` opens,
        memoised; a chunk with more codes than the cap is not kept."""
        codes, n, seed, dim = self._codes, self.config.n, self.config.seed, self.config.dim
        space = key.find(" ")
        stop = space + 1 if space >= 0 else len(key)
        found: list[int] = []
        fresh: dict[str, int] = {}
        for order in range(1, n + 1):
            for i in range(min(stop, len(key) - order + 1)):
                gram = key[i : i + order]
                code = codes.get(gram)
                if code is None:
                    code = fresh.get(gram)
                    if code is None:
                        idx, sign = _gram_slot(gram, seed, dim)
                        code = fresh[gram] = idx if sign > 0 else dim + idx
                found.append(code)
        if len(found) <= _MEMO_CAP:
            with self._memo_lock:
                if key not in self._chunks:
                    if self._held + len(found) > _MEMO_CAP:
                        self._chunks, self._codes, self._held = {}, {}, 0
                    self._codes.update(fresh)
                    self._chunks[key] = found
                    self._held += len(found)
        return found

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        with self._lock:
            self._queries += len(texts)
        n, dim = self.config.n, self.config.dim
        # A text of length m has k * m - k * (k - 1) / 2 grams, k = min(n, m).
        sizes = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
        k = np.minimum(sizes, n)
        rows = len(texts)
        negative, slots = np.divmod(np.asarray(self._slot_codes(texts), dtype=np.int64), dim)
        slots += np.repeat(np.arange(0, rows * dim, dim), k * sizes - k * (k - 1) // 2)
        # Sums of +-1.0 are exact, so the scatter order does not matter. An
        # all-empty batch scatters nothing and comes back as int64 zeros.
        vecs = np.bincount(slots, weights=1.0 - 2.0 * negative, minlength=rows * dim)
        vecs = vecs.astype(np.float64, copy=False).reshape(rows, dim)
        if self.config.unit_norm:
            norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
            norms[norms == 0.0] = 1.0  # zero rows stay zero
            vecs /= norms[:, None]
        return vecs

    def dimension(self) -> int:
        return self.config.dim

    def queries_used(self) -> int:
        with self._lock:
            return self._queries
