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

import copy
import itertools
import time
from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Generator, Sequence

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
    """Candidate reconstruction with its cosine score to the target."""

    text: str
    score: float
    step: int


def check_vocab(vocab: Sequence[str]) -> None:
    """Raise ConfigError unless ``vocab`` is a sequence of at least one token
    and its tokens are distinct, non-empty, whitespace-free strings."""
    if isinstance(vocab, str):
        raise ConfigError("vocabulary must be a sequence of tokens, not a string")
    if not vocab:
        raise ConfigError("vocabulary must be non-empty")
    for tok in vocab:
        if not isinstance(tok, str):
            raise ConfigError(f"vocabulary token {tok!r} must be a string")
        if not tok or any(ch.isspace() for ch in tok):
            raise ConfigError(f"vocabulary token {tok!r} must be non-empty and whitespace-free")
    if len(set(vocab)) != len(vocab):
        raise ConfigError("vocabulary must be duplicate-free")


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
        check_vocab(self.vocab)
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


class EditMutationGenerator(MutationGenerator):
    """Token-level edits over a fixed vocabulary: swaps of two positions,
    insertions, substitutions, and deletions.

    Proposals interleave the four edit families round-robin so a small k
    still covers every repair mode (a transposition is two coordinated
    substitutions and would almost never be sampled from the flat
    neighborhood). Order within each family is a seeded permutation, keyed
    on (seed, text, step), of its distinct members in string order; k only
    truncates, so narrower requests are prefixes of wider ones, and
    revisiting a text at a later step explores a different slice of its
    neighborhood. The families are disjoint, and only returned members are
    built: insertions and substitutions are counted, and a drawn rank is
    turned into its edit by walking the positions. At position i of tokens
    t, the family sorts as the edits there whose token v has key(v) <
    key(t[i]), then every edit at a later position, then those with
    key(v) > key(t[i]). key(v) is ``v + " "`` when a space follows v
    (whitespace-free tokens make these keys prefix-free, so they order the
    strings) and plain ``v`` for a text's last token. Inserting t[i] before
    position i equals inserting it after, so only the latter is a member.
    """

    def __init__(self, vocab: Sequence[str], max_tokens: int = 32, seed: int = 0):
        if max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        check_vocab(vocab)
        self.vocab = tuple(vocab)
        self.max_tokens = max_tokens
        self.seed = seed
        self._spaced = sorted(self.vocab, key=lambda v: v + " ")
        self._keys = [v + " " for v in self._spaced]
        self._plain = sorted(self.vocab)

    def _edit(
        self, tokens: list[str], below: list[int], hits: list[bool], rank: int, insert: bool
    ) -> str:
        """The insertion (``insert``) or substitution of ``tokens`` at
        ``rank`` in string order; ``below[i]`` counts the vocabulary tokens
        keyed before tokens[i], and ``hits[i]`` is tokens[i] in the vocabulary."""
        last = len(tokens) if insert else len(tokens) - 1
        size = len(self._spaced) * (last + 1) - sum(hits)
        for i in range(last):
            if rank < below[i]:
                token = self._spaced[rank]
                break
            rank -= below[i]
            size -= len(self._spaced) - hits[i]  # now the edits after position i
            if rank >= size:
                token = self._spaced[below[i] + hits[i] + rank - size]
                break
        else:
            i = last
            if not insert and hits[i] and self._plain[rank] >= tokens[i]:
                rank += 1  # step over tokens[i], which is no substitution
            token = self._plain[rank]
        return " ".join(tokens[:i] + [token] + tokens[i + (not insert) :])

    def propose(self, hypothesis: Hypothesis, k: int) -> list[str]:
        rng = derive_rng("mutate", self.seed, hypothesis.text, hypothesis.step)
        tokens = hypothesis.text.split()
        n = len(tokens)
        # A swap changes exactly positions i and j, so swaps are distinct;
        # deleting any token of a run of equal tokens gives the same text.
        swaps = []
        for i, j in itertools.combinations(range(n), 2):
            if tokens[i] != tokens[j]:
                swapped = tokens.copy()
                swapped[i], swapped[j] = tokens[j], tokens[i]
                swaps.append(" ".join(swapped))
        swaps.sort()
        deletions = sorted({" ".join(tokens[:i] + tokens[i + 1 :]) for i in range(n)})
        below = [bisect_left(self._keys, t + " ") for t in tokens]
        hits = [b < len(self._keys) and self._keys[b] == t + " " for b, t in zip(below, tokens)]
        n_subs = n * len(self.vocab) - sum(hits)
        n_ins = n_subs + len(self.vocab) if n < self.max_tokens else 0
        build = (
            swaps.__getitem__,
            lambda rank: self._edit(tokens, below, hits, rank, True),
            lambda rank: self._edit(tokens, below, hits, rank, False),
            deletions.__getitem__,
        )
        # Every family draws its whole permutation, in order, so the random
        # stream is that of shuffling every family; only k ranks of each are read.
        orders = [
            rng.permutation(size)[:k].tolist() if size else []
            for size in (len(swaps), n_ins, n_subs, len(deletions))
        ]
        picks = (
            (family, rank)
            for row in itertools.zip_longest(*orders)
            for family, rank in enumerate(row)
            if rank is not None
        )
        return [build[family](rank) for family, rank in itertools.islice(picks, max(k, 0))]


class _BudgetExhausted(Exception):
    pass


# Most texts in one embed_many call of a lockstep round. A larger cap saves
# few calls for more peak memory; it stays below eaas.MAX_TEXTS.
_ROUND_TEXTS = 64

# An attack step: a generator that yields the fresh texts it needs embedded,
# in sorted order, receives their rows as one (len(texts), dim) matrix in
# that order, and returns its result.
_Step = Generator[list[str], np.ndarray, object]


class _Scorer:
    """Scores candidates for one attack with caching, budget enforcement,
    and global best-so-far tracking.

    Fresh texts are requested in sorted order so results are independent of
    scheduling; ties on score break toward the lexicographically smaller text.
    The cache keeps scores only, so no vector outlives its scoring.
    """

    def __init__(self, target: Embedding, budget: int | None):
        self.target = target.values
        self.budget = budget
        self.queries = 0
        self.cache: dict[str, float] = {}
        self.best: Hypothesis | None = None

    def fork(self) -> "_Scorer":
        """A scorer that goes on from this one's cache, best and queries."""
        twin = copy.copy(self)
        twin.cache = dict(self.cache)
        return twin

    def score_batch(self, texts: Sequence[str], step: int) -> _Step:
        fresh = sorted({t for t in texts if t not in self.cache})
        exhausted = False
        if self.budget is not None:
            remaining = self.budget - self.queries
            if len(fresh) > remaining:
                fresh = fresh[:remaining]
                exhausted = True
        if fresh:
            rows = yield fresh
            self.queries += len(fresh)
            for text, score in zip(fresh, cosine(rows, self.target)):
                self.cache[text] = score
                best = self.best
                if best is None or score > best.score or (score == best.score and text < best.text):
                    self.best = Hypothesis(text, score, step)
        if exhausted:
            raise _BudgetExhausted
        return [Hypothesis(text, self.cache[text], step) for text in dict.fromkeys(texts)]


def _drive(attacks: list[_Step], embedder: BlackBoxEmbedder) -> list:
    """Run attack steps in lockstep rounds; returns their results in order.

    Each round joins every live step's request, in step order, into
    ``embed_many`` calls of at most ``_ROUND_TEXTS`` texts, and hands each
    step its own block of rows as soon as the block is complete, so a
    round's vectors are never all alive at once. The step then makes its
    request for the next round. Vectors do not depend on their batch, so
    only the grouping into calls differs from running steps one at a time.
    """
    results: list = [None] * len(attacks)
    requests: list[tuple[int, list[str]]] = []

    def advance(i: int, rows: np.ndarray | None) -> None:
        try:
            requests.append((i, attacks[i].send(rows)))
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(attacks)):
        advance(i, None)
    while requests:
        batch, requests = requests, []
        texts = [t for _, fresh in batch for t in fresh]
        held: list[np.ndarray] = []  # embedded rows not yet handed out
        count = 0
        for lo in range(0, len(texts), _ROUND_TEXTS):
            held.append(embedder.embed_many(texts[lo : lo + _ROUND_TEXTS]))
            count += len(held[-1])
            while batch and len(batch[0][1]) <= count:
                i, fresh = batch.pop(0)
                rows = held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [rows[len(fresh) :]], count - len(fresh)
                advance(i, rows[: len(fresh)])
    return results


def _check_dimensions(target: Embedding, embedder: BlackBoxEmbedder) -> None:
    if embedder.dimension() != target.dim:
        raise ValueError(
            f"embedder dimension {embedder.dimension()} != target dimension {target.dim}"
        )


def _greedy_base(scorer: _Scorer, config: AttackConfig) -> _Step:
    """Append the best-scoring token until none improves the score; False if
    the budget ran out first. The kept text ends as ``scorer.best`` (set by
    the first query, "", which any budget fits): it beats every earlier
    round's score and wins later ties, as every later text extends it."""
    try:
        current = (yield from scorer.score_batch([""], step=0))[0]
        tokens: list[str] = []
        while len(tokens) < config.max_tokens:
            candidates = [" ".join(tokens + [v]) for v in config.vocab]
            scored = yield from scorer.score_batch(candidates, step=0)
            nxt = min(scored, key=lambda h: (-h.score, h.text))
            if nxt.score <= current.score:
                break
            current = nxt
            tokens = nxt.text.split()
    except _BudgetExhausted:
        return False
    return True


def base_hypothesis(
    target: Embedding, embedder: BlackBoxEmbedder, config: AttackConfig
) -> Hypothesis:
    """Greedy initial hypothesis: append the best-scoring token until no
    token improves the score or the token limit is reached.

    On budget exhaustion the best hypothesis scored so far is returned.
    """
    # With no correction steps the attack never calls its generator.
    return invert(target, embedder, None, replace(config, steps=0)).best


def _correction_step(
    beam: Sequence[Hypothesis], gen: MutationGenerator, scorer: _Scorer, b: int, step: int
) -> _Step:
    proposals: list[str] = []
    for h in beam:
        proposals.extend(gen.propose(h, b))
    unique = sorted(set(proposals))
    if not unique:
        return list(beam)
    scored = yield from scorer.score_batch(unique, step)
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
    scorer = _Scorer(target, None)
    return _drive([_correction_step(beam, gen, scorer, b, step)], embedder)[0]


def _corrections(
    scorer: _Scorer, gen: MutationGenerator, width: int, stops: list[int], based: bool
) -> _Step:
    """Correction steps at beam ``width`` from the greedy base that ``scorer``
    holds (``based`` is False if the base ran out of budget), up to the last
    of the ascending ``stops``. Returns, per stop, the result of the attack
    that runs that many steps alone (``wall_time`` 0) and the clock when it
    was reached; after convergence or budget exhaustion that state is final.
    """
    history = [scorer.best.score]
    beam, step, ended = [scorer.best], 0, None if based else BUDGET_EXHAUSTED
    reached = {}
    for stop in stops:
        try:
            while ended is None and scorer.best.score < _CONVERGENCE and step < stop:
                step += 1
                beam = yield from _correction_step(beam, gen, scorer, width, step)
                history.append(scorer.best.score)
        except _BudgetExhausted:
            ended = BUDGET_EXHAUSTED
        terminated = ended or (CONVERGED if scorer.best.score >= _CONVERGENCE else COMPLETED)
        result = AttackResult(scorer.best, history.copy(), scorer.queries, 0.0, terminated)
        reached[stop] = (result, time.perf_counter())
    return reached


def invert_grid(
    targets: Sequence[Embedding],
    embedder: BlackBoxEmbedder,
    gens: Sequence[MutationGenerator],
    configs: Sequence[AttackConfig],
) -> list[list[AttackResult]]:
    """Run one attack per (target, generator) pair and config, all in lockstep
    rounds; returns one result list per config. The configs may differ only
    in ``steps`` and ``beam_width``.

    Each sample's greedy base runs once; its scorer is then forked per beam
    width, and each branch runs to its width's deepest ``steps``, reading
    shallower cells off on the way. So every result equals ``invert`` on its
    pair and config alone, yet a prefix that cells share is embedded once.
    A cell's ``wall_time`` is the time from the grid's start until the last
    of its attacks reached its step count, over the number of attacks."""
    pairs = list(zip(targets, gens, strict=True))
    if not configs:
        return []
    base = configs[0]
    if any(replace(c, steps=base.steps, beam_width=base.beam_width) != base for c in configs):
        raise ValueError("grid configs may differ only in steps and beam_width")
    for target in targets:
        _check_dimensions(target, embedder)
    widths: dict[int, set[int]] = {}  # each beam width's step counts
    for c in configs:
        widths.setdefault(c.beam_width, set()).add(c.steps)
    start = time.perf_counter()
    scorers = [_Scorer(target, base.query_budget) for target in targets]
    based = _drive([_greedy_base(scorer, base) for scorer in scorers], embedder)
    branches = [
        # The last branch goes on with the sample's own scorer.
        _corrections(scorer if i == len(widths) - 1 else scorer.fork(), gen, w, sorted(stops), ok)
        for scorer, (_, gen), ok in zip(scorers, pairs, based)
        for i, (w, stops) in enumerate(widths.items())
    ]
    del scorers  # so each cache is freed when its sample's last branch ends
    reached = iter(_drive(branches, embedder))
    by_sample = [{w: next(reached) for w in widths} for _ in pairs]
    grid = []
    for c in configs:
        cells = [sample[c.beam_width][c.steps] for sample in by_sample]
        wall = max(max((t for _, t in cells), default=start) - start, 1e-9) / max(len(cells), 1)
        grid.append([replace(result, wall_time=wall) for result, _ in cells])
    return grid


def invert_many(
    targets: Sequence[Embedding],
    embedder: BlackBoxEmbedder,
    gens: Sequence[MutationGenerator],
    config: AttackConfig,
) -> list[AttackResult]:
    """One attack per (target, generator) pair: ``invert_grid`` with one config."""
    return invert_grid(targets, embedder, gens, [config])[0]


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
    return invert_many([target], embedder, [gen], config)[0]


def exhaustive_oracle(
    target: Embedding,
    embedder: BlackBoxEmbedder,
    vocab: Sequence[str],
    max_len: int,
    guard: int = ORACLE_GUARD,
) -> Hypothesis:
    """Global cosine argmax over every token sequence of length 0..max_len.

    Independent of the search path: enumerates, embeds, and ranks everything.
    Raises ValueError, before any query, for a vocabulary ``check_vocab``
    refuses (ConfigError), a negative ``max_len`` or a candidate count above
    ``guard``.
    """
    check_vocab(vocab)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    _check_dimensions(target, embedder)
    total = sum(len(vocab) ** length for length in range(max_len + 1))
    if total > guard:
        raise ValueError(f"{total} candidates exceed the enumeration guard of {guard}")
    best: Hypothesis | None = None
    for length in range(max_len + 1):
        combos = itertools.product(vocab, repeat=length)
        # Batches of bounded size keep memory flat up to the guard.
        while texts := [" ".join(c) for c in itertools.islice(combos, _ORACLE_BATCH)]:
            for text, score in zip(texts, cosine(embedder.embed_many(texts), target)):
                if (
                    best is None
                    or score > best.score
                    or (score == best.score and text < best.text)
                ):
                    best = Hypothesis(text, score, 0)
    return best
