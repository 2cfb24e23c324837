"""Black-box inversion engine.

Reconstructs text from a target embedding using only embed queries: a greedy
token-by-token builder produces the initial hypothesis, then sequence-level
beam search repeatedly mutates the beam and keeps the candidates whose
re-embeddings lie closest to the target under cosine similarity. Every text
ever scored feeds a best-so-far tracker, so reported quality is monotone in
the number of correction steps even though the beam itself is rebuilt from
scratch each step. An exhaustive-search oracle provides ground truth on
vocabularies small enough to enumerate.
"""

import itertools
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import BlackBoxEmbedder, ConfigError, Embedding, cosine
from .seeding import derive_rng

COMPLETED = "completed"
BUDGET_EXHAUSTED = "budget_exhausted"
CONVERGED = "converged"

_CONVERGENCE = 1.0 - 1e-9
ORACLE_GUARD = 1_000_000
_ORACLE_BATCH = 4096


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """Candidate reconstruction with its re-embedding and cosine score."""

    text: str
    embedding: Embedding
    score: float
    step: int


@dataclass(frozen=True)
class AttackConfig:
    vocab: tuple[str, ...]
    steps: int = 50
    beam_width: int = 8
    max_tokens: int = 32
    query_budget: int | None = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.beam_width < 1:
            raise ConfigError("beam width must be >= 1")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if not self.vocab:
            raise ConfigError("vocabulary must be non-empty")
        if len(set(self.vocab)) != len(self.vocab):
            raise ConfigError("vocabulary must be duplicate-free")
        for tok in self.vocab:
            if not tok or any(ch.isspace() for ch in tok):
                raise ConfigError(f"vocabulary token {tok!r} must be non-empty and whitespace-free")
        if self.query_budget is not None and self.query_budget < 1:
            raise ConfigError("query budget must be positive when set")


@dataclass(eq=False)
class AttackResult:
    best: Hypothesis
    beam_history: list[float]
    queries_used: int
    wall_time: float
    terminated: str


class MutationGenerator(ABC):
    """Proposes candidate texts derived from a hypothesis.

    Stands in for a learned corrector; any generator can be plugged into the
    search as long as proposals respect the vocabulary and token limit and
    are deterministic given (hypothesis, k, seed).
    """

    @abstractmethod
    def propose(self, hypothesis: Hypothesis, k: int) -> list[str]:
        """Up to k candidate texts."""


def _sorted_unique(edits: list[str], text: str) -> list[str]:
    """Sorted distinct edits other than ``text``; sorts in place."""
    edits.sort()
    return [e for e, prev in zip(edits, [None] + edits) if e != prev and e != text]


class EditMutationGenerator(MutationGenerator):
    """Token-level edits over a fixed vocabulary: swaps of two positions,
    insertions, substitutions, and deletions.

    Proposals interleave the four edit families round-robin so a small k
    still covers every repair mode (a transposition is two coordinated
    substitutions and would almost never be sampled from the flat
    neighborhood). Order within each family is a seeded permutation keyed
    on (seed, text, step); k only truncates, so narrower requests are
    prefixes of wider ones, and revisiting a text at a later step explores
    a different slice of its neighborhood.
    """

    def __init__(self, vocab: Sequence[str], max_tokens: int = 32, seed: int = 0):
        if not vocab:
            raise ConfigError("vocabulary must be non-empty")
        self.vocab = tuple(vocab)
        self.max_tokens = max_tokens
        self.seed = seed

    def _families(self, text: str) -> list[list[str]]:
        tokens = text.split()
        n = len(tokens)
        # Edits are spliced from precomputed joins: head[i] is tokens[:i]
        # joined with its trailing separator and tail[i] is tokens[i:] with
        # its leading one, so no candidate re-joins a token list.
        head = [""] + [" ".join(tokens[:i]) + " " for i in range(1, n + 1)]
        tail = [" " + " ".join(tokens[i:]) for i in range(n)] + [""]
        swaps = []
        for i in range(n):
            for j in range(i + 1, n):
                if tokens[i] != tokens[j]:
                    middle = " ".join([""] + tokens[i + 1 : j] + [""])
                    swaps.append(f"{head[i]}{tokens[j]}{middle}{tokens[i]}{tail[j + 1]}")
        inserts = (
            [f"{h}{v}{t}" for h, t in zip(head, tail) for v in self.vocab]
            if n < self.max_tokens
            else []
        )
        substitutions = [
            f"{head[i]}{v}{tail[i + 1]}"
            for i, tok in enumerate(tokens)
            for v in self.vocab
            if v != tok
        ]
        deletions = [
            f"{head[i]}{tail[i + 1][1:]}" if i + 1 < n else head[i][:-1] for i in range(n)
        ]
        return [
            _sorted_unique(family, text)
            for family in (swaps, inserts, substitutions, deletions)
        ]

    def propose(self, hypothesis: Hypothesis, k: int) -> list[str]:
        rng = derive_rng("mutate", self.seed, hypothesis.text, hypothesis.step)
        families = self._families(hypothesis.text)
        # Every family draws its permutation, in order, so the stream matches
        # the full shuffle; members are looked up only to the depth reached.
        orders = [rng.permutation(len(f)).tolist() if f else [] for f in families]
        deepest = max(len(f) for f in families)
        out: list[str] = []
        seen: set[str] = set()
        depth = 0
        while len(out) < k and depth < deepest:
            for family, order in zip(families, orders):
                if depth < len(family):
                    candidate = family[order[depth]]
                    if candidate not in seen:
                        seen.add(candidate)
                        out.append(candidate)
                        if len(out) == k:
                            break
            depth += 1
        return out


class _BudgetExhausted(Exception):
    pass


class _Scorer:
    """Embeds candidates through the black box with caching, budget
    enforcement, and global best-so-far tracking.

    Fresh texts are embedded in sorted order so results are independent of
    scheduling; ties on score break toward the lexicographically smaller text.
    """

    def __init__(self, target: Embedding, embedder: BlackBoxEmbedder, budget: int | None):
        self.target = target
        self.embedder = embedder
        self.budget = budget
        self.queries = 0
        self.cache: dict[str, tuple[Embedding, float]] = {}
        self.best: Hypothesis | None = None

    def _consider(self, text: str, emb: Embedding, score: float, step: int) -> None:
        if (
            self.best is None
            or score > self.best.score
            or (score == self.best.score and text < self.best.text)
        ):
            self.best = Hypothesis(text, emb, score, step)

    def score_batch(self, texts: Sequence[str], step: int) -> list[Hypothesis]:
        fresh = sorted({t for t in texts if t not in self.cache})
        exhausted = False
        if self.budget is not None:
            remaining = self.budget - self.queries
            if len(fresh) > remaining:
                fresh = fresh[:remaining]
                exhausted = True
        if fresh:
            embs = self.embedder.embed_many(fresh)
            self.queries += len(fresh)
            for text, emb in zip(fresh, embs):
                score = cosine(emb, self.target)
                self.cache[text] = (emb, score)
                self._consider(text, emb, score, step)
        if exhausted:
            raise _BudgetExhausted
        out = []
        for text in dict.fromkeys(texts):
            emb, score = self.cache[text]
            out.append(Hypothesis(text, emb, score, step))
        return out


def _empty_hypothesis(target: Embedding) -> Hypothesis:
    return Hypothesis("", Embedding(np.zeros(target.dim)), 0.0, 0)


def _check_dimensions(target: Embedding, embedder: BlackBoxEmbedder) -> None:
    if embedder.dimension() != target.dim:
        raise ValueError(
            f"embedder dimension {embedder.dimension()} != target dimension {target.dim}"
        )


def _greedy_base(scorer: _Scorer, config: AttackConfig) -> Hypothesis:
    current = scorer.score_batch([""], step=0)[0]
    tokens: list[str] = []
    while len(tokens) < config.max_tokens:
        candidates = [" ".join(tokens + [v]) for v in config.vocab]
        scored = scorer.score_batch(candidates, step=0)
        nxt = min(scored, key=lambda h: (-h.score, h.text))
        if nxt.score <= current.score:
            break
        current = nxt
        tokens = nxt.text.split()
    return current


def base_hypothesis(
    target: Embedding, embedder: BlackBoxEmbedder, config: AttackConfig
) -> Hypothesis:
    """Greedy initial hypothesis: append the best-scoring token until no
    token improves the score or the token limit is reached.

    On budget exhaustion the best hypothesis scored so far is returned.
    """
    _check_dimensions(target, embedder)
    scorer = _Scorer(target, embedder, config.query_budget)
    try:
        return _greedy_base(scorer, config)
    except _BudgetExhausted:
        return scorer.best if scorer.best is not None else _empty_hypothesis(target)


def _correction_step(
    beam: Sequence[Hypothesis],
    gen: MutationGenerator,
    scorer: _Scorer,
    b: int,
    step: int,
) -> list[Hypothesis]:
    proposals: list[str] = []
    for h in beam:
        proposals.extend(gen.propose(h, b))
    unique = sorted(set(proposals))
    if not unique:
        return list(beam)
    scored = scorer.score_batch(unique, step)
    scored.sort(key=lambda h: (-h.score, h.text))
    return scored[:b]


def correction_step(
    beam: Sequence[Hypothesis],
    target: Embedding,
    gen: MutationGenerator,
    embedder: BlackBoxEmbedder,
    b: int,
    step: int | None = None,
) -> list[Hypothesis]:
    """One refinement round: pool up to b proposals per beam member, embed
    and score the unique texts, and keep the top b by cosine to the target.

    A generator that proposes nothing for every member leaves the beam
    unchanged.
    """
    if not beam:
        raise ValueError("beam must be non-empty")
    if b < 1:
        raise ValueError("beam width must be >= 1")
    _check_dimensions(target, embedder)
    if step is None:
        step = max(h.step for h in beam) + 1
    scorer = _Scorer(target, embedder, None)
    return _correction_step(beam, gen, scorer, b, step)


def invert(
    target: Embedding,
    embedder: BlackBoxEmbedder,
    gen: MutationGenerator,
    config: AttackConfig,
) -> AttackResult:
    """Run the full attack: greedy base, then ``config.steps`` correction
    rounds of beam search, tracking the best hypothesis ever scored.

    Terminates early once the best score reaches 1 - 1e-9 (converged) or the
    query budget runs out mid-step (budget_exhausted). ``beam_history``
    records the best-so-far score after the base pass and after each
    correction step, so it is non-decreasing by construction.
    """
    _check_dimensions(target, embedder)
    scorer = _Scorer(target, embedder, config.query_budget)
    start = time.perf_counter()
    terminated = COMPLETED
    history: list[float] = []
    try:
        base = _greedy_base(scorer, config)
        history.append(scorer.best.score)
        if scorer.best.score >= _CONVERGENCE:
            terminated = CONVERGED
        else:
            beam = [base]
            for step in range(1, config.steps + 1):
                beam = _correction_step(beam, gen, scorer, config.beam_width, step)
                history.append(scorer.best.score)
                if scorer.best.score >= _CONVERGENCE:
                    terminated = CONVERGED
                    break
    except _BudgetExhausted:
        terminated = BUDGET_EXHAUSTED
        if not history and scorer.best is not None:
            history.append(scorer.best.score)
    best = scorer.best if scorer.best is not None else _empty_hypothesis(target)
    if not history:
        history.append(best.score)
    wall = max(time.perf_counter() - start, 1e-9)
    return AttackResult(best, history, scorer.queries, wall, terminated)


def exhaustive_oracle(
    target: Embedding,
    embedder: BlackBoxEmbedder,
    vocab: Sequence[str],
    max_len: int,
    guard: int = ORACLE_GUARD,
) -> Hypothesis:
    """Global cosine argmax over every token sequence of length 0..max_len.

    Independent of the search path: enumerates, embeds, and ranks everything,
    refusing when the candidate count exceeds ``guard``.
    """
    if not vocab:
        raise ValueError("vocabulary must be non-empty")
    _check_dimensions(target, embedder)
    total = sum(len(vocab) ** length for length in range(max_len + 1))
    if total > guard:
        raise ValueError(f"{total} candidates exceed the enumeration guard of {guard}")
    best: Hypothesis | None = None
    for length in range(max_len + 1):
        combos = itertools.product(vocab, repeat=length)
        # Batches of bounded size keep memory flat up to the guard.
        while texts := [" ".join(c) for c in itertools.islice(combos, _ORACLE_BATCH)]:
            for text, emb in zip(texts, embedder.embed_many(texts)):
                score = cosine(emb, target)
                if (
                    best is None
                    or score > best.score
                    or (score == best.score and text < best.text)
                ):
                    best = Hypothesis(text, emb, score, 0)
    assert best is not None
    return best
