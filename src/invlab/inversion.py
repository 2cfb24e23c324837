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
from typing import Generator, Hashable, Sequence

import numpy as np

from .embeddings import BlackBoxEmbedder, ConfigError, cosine
from .seeding import default_rngs, derive_rng, stable_seed

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
        # A list would leave the frozen config unhashable and unequal to its
        # tuple twin.
        object.__setattr__(self, "vocab", tuple(self.vocab))
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
    search as long as proposals respect the vocabulary and token limit, are
    deterministic given (hypothesis.text, hypothesis.step, seed), never read
    the hypothesis's score, and nest: for k < K, ``propose(h, k) ==
    propose(h, K)[:k]``. So one sample's attacks, whatever their beam
    widths, can share each proposal list (see ``invert_grid``).
    """

    @abstractmethod
    def propose(self, hypothesis: Hypothesis, k: int) -> list[str]:
        """Up to k candidate texts."""

    def stream_seed(self, hypothesis: Hypothesis) -> int | None:
        """The seed of the one ``np.random.default_rng`` stream that
        ``propose(hypothesis, k)`` draws from, if it draws one; then
        ``propose(hypothesis, k, rng)``, given that stream unused, returns
        the same list, and ``invert_grid`` seeds a round's streams together.
        None (the default) means ``propose`` takes no stream."""
        return None


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
    neighborhood. That stream is ``stream_seed``'s: ``propose`` seeds it
    unless handed it already seeded. The families are disjoint, and only
    returned members are built: insertions and substitutions are counted,
    and a drawn rank is turned into its edit by walking the positions. At
    position i of tokens t, the family sorts as the edits there whose token
    v has key(v) < key(t[i]), then every edit at a later position, then
    those with key(v) > key(t[i]). key(v) is ``v + " "`` when a space
    follows v (whitespace-free tokens make these keys prefix-free, so they
    order the strings) and plain ``v`` for a text's last token. Inserting
    t[i] before position i equals inserting it after, so only the latter is
    a member.
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

    def _labels(self, hypothesis: Hypothesis) -> tuple:
        return ("mutate", self.seed, hypothesis.text, hypothesis.step)

    def stream_seed(self, hypothesis: Hypothesis) -> int:
        return stable_seed(*self._labels(hypothesis))

    def propose(
        self, hypothesis: Hypothesis, k: int, rng: np.random.Generator | None = None
    ) -> list[str]:
        if rng is None:
            rng = derive_rng(*self._labels(hypothesis))
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


class _SharedProposals:
    """One sample's proposals from one generator, shared by its attacks:
    each (text, step) is proposed once, at ``width``, the widest beam among
    them, and an attack of beam k <= width takes the first k (a prefix, by
    the nesting contract). A sample's attacks can sit at adjacent steps in
    one round, so when a later step than any before is asked for, the memo
    keeps the previous latest step and drops only older ones; it holds about
    two rounds' proposals."""

    def __init__(self, gen: MutationGenerator, width: int):
        self.gen = gen
        self.width = width
        self.latest = 0
        self.memo: dict[tuple[str, int], list[str]] = {}

    def get(self, hypothesis: Hypothesis, missing: list) -> list[str]:
        """The proposal list of the hypothesis's (text, step). One not yet
        made is a new empty list, appended with the memo and hypothesis to
        ``missing`` for ``_propose`` to fill; the caller holds the list, so
        a later eviction cannot take it away."""
        if hypothesis.step > self.latest:
            self.memo = {key: p for key, p in self.memo.items() if key[1] >= self.latest}
            self.latest = hypothesis.step
        key = (hypothesis.text, hypothesis.step)
        if key not in self.memo:
            self.memo[key] = []
            missing.append((self, hypothesis, self.memo[key]))
        return self.memo[key]


def _propose(wants: list[tuple[_SharedProposals, Sequence[Hypothesis]]]) -> list[list[list[str]]]:
    """Per ``(memo, beam)`` want, the proposal list of each beam member at
    the memo's width. The streams of every proposal not yet made are seeded
    in one ``default_rngs`` call."""
    missing: list[tuple[_SharedProposals, Hypothesis, list[str]]] = []
    lists = [[memo.get(h, missing) for h in beam] for memo, beam in wants]
    seeds = [memo.gen.stream_seed(h) for memo, h, _ in missing]
    rngs = default_rngs([seed for seed in seeds if seed is not None])
    for (memo, h, out), seed in zip(missing, seeds):
        if seed is None:
            out += memo.gen.propose(h, memo.width)
        else:
            out += memo.gen.propose(h, memo.width, next(rngs))
    return lists


# The texts at which an embed_many call of a lockstep round closes, at the
# next sample boundary. A higher floor saves few calls for more peak memory.
_ROUND_TEXTS = 64

# An attack step: a generator that yields the fresh texts it needs embedded,
# in sorted order, receives their rows as one (len(texts), dim) matrix in
# that order, and returns its result. Before texts it may yield a (memo,
# beam) pair and receive each beam member's proposals (see ``_propose``).
_Step = Generator[list[str] | tuple, np.ndarray | list, object]


class _Scorer:
    """Scores candidates for one attack with caching, budget enforcement,
    and global best-so-far tracking.

    Fresh texts are requested in sorted order so results are independent of
    scheduling; ties on score break toward the lexicographically smaller text.
    A batch the budget cannot pay for in full is scored up to its affordable
    sorted prefix and sets ``exhausted``, which ends the attack. The cache
    keeps scores only, so no vector outlives its scoring.
    """

    def __init__(self, target: np.ndarray, budget: int | None):
        self.target = target
        self.budget = budget
        self.queries = 0
        self.exhausted = False
        self.cache: dict[str, float] = {}
        self.best: Hypothesis | None = None

    def fork(self) -> "_Scorer":
        """A scorer that goes on from this one's cache, best, queries and
        exhaustion."""
        twin = copy.copy(self)
        twin.cache = dict(self.cache)
        return twin

    def score_batch(self, texts: Sequence[str], step: int, k: int) -> _Step:
        """The top ``k`` scored distinct ``texts`` by (-score, text), as
        hypotheses at ``step``; the same order keeps the best-so-far."""
        distinct = set(texts)
        fresh = sorted(distinct.difference(self.cache))
        paid = len(fresh) if self.budget is None else self.budget - self.queries
        if len(fresh) > paid:
            self.exhausted = True
            distinct.difference_update(fresh[paid:])
            fresh = fresh[:paid]
        if fresh:
            rows = yield fresh
            self.queries += len(fresh)
            self.cache.update(zip(fresh, cosine(rows, self.target)))
        rank = lambda text: (-self.cache[text], text)
        top = [Hypothesis(t, self.cache[t], step) for t in sorted(distinct, key=rank)[:k]]
        if top and (self.best is None or rank(top[0].text) < rank(self.best.text)):
            self.best = top[0]
        return top


def _drive(attacks: list[_Step], embedder: BlackBoxEmbedder, samples: Sequence[int]) -> list:
    """Run attack steps in lockstep rounds; returns their results in order.

    ``samples[i]`` is the sample step ``i`` attacks, and a sample's steps
    must sit next to each other in ``attacks`` (``_attack_group`` lists
    them so). A round first hands every step that asks for proposals its
    lists, the round's missing ones made in one ``_propose`` call, and runs
    it on to its next request, in its place; it repeats while any step asks
    again. It then embeds the texts the live steps request in
    ``embed_many`` calls that take whole samples, in step order, and close
    at the first sample boundary at or past ``_ROUND_TEXTS`` texts. A
    sample with one request reads a slice of its call's rows; one with
    several embeds each distinct text once and each request reads its rows
    by index. Each step gets its rows once its call returns and makes its
    request for the next round; no rows are kept across calls. Vectors do
    not depend on their batch, so only the calls differ from running steps
    one at a time. Sharing never reaches across samples or rounds, and a
    step never asks for a text twice (its scorer requests only unscored
    texts), so with one step per sample every requested text is embedded.
    """
    results: list = [None] * len(attacks)
    requests: list[tuple[int, list[str] | tuple]] = []

    def advance(i: int, sent: np.ndarray | list | None) -> None:
        try:
            requests.append((i, attacks[i].send(sent)))
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(attacks)):
        advance(i, None)
    while requests:
        while any(isinstance(request, tuple) for _, request in requests):
            batch, requests = requests, []
            lists = iter(_propose([want for _, want in batch if isinstance(want, tuple)]))
            for i, request in batch:
                if isinstance(request, tuple):
                    advance(i, next(lists))
                else:
                    requests.append((i, request))
        batch, requests = requests, []
        calls: list[tuple[list[str], list]] = []  # per call, its texts and (step, rows) readers
        for _, run in itertools.groupby(batch, lambda request: samples[request[0]]):
            if not calls or len(calls[-1][0]) >= _ROUND_TEXTS:
                calls.append(([], []))
            texts, readers = calls[-1]
            lo = len(texts)
            run = list(run)
            if len(run) == 1:
                (i, fresh), = run
                texts += fresh
                readers.append((i, slice(lo, len(texts))))
            else:
                row: dict[str, int] = {}  # the sample's text -> its row in the call
                for i, fresh in run:
                    readers.append((i, [row.setdefault(t, lo + len(row)) for t in fresh]))
                texts += row
        for texts, readers in calls:
            rows = embedder.embed_many(texts)
            for i, wanted in readers:
                advance(i, rows[wanted])
    return results


def _check_targets(rows: np.ndarray, n: int, embedder: BlackBoxEmbedder) -> np.ndarray:
    """``rows`` as float64, once checked to be ``n`` finite targets of the
    embedder's dimension, which must be at least 2; ValueError otherwise."""
    rows = np.asarray(rows, dtype=np.float64)
    dim = embedder.dimension()
    if rows.shape != (n, dim) or dim < 2 or not np.isfinite(rows).all():
        raise ValueError(f"need a finite {(n, dim)} target matrix, dim >= 2: {rows.shape}")
    return rows


def _greedy_base(scorer: _Scorer, config: AttackConfig) -> _Step:
    """Append the best-scoring token until none improves the score or the
    budget runs out. The kept text ends as ``scorer.best`` (set by the first
    query, "", which any budget fits): it beats every earlier round's score
    and wins later ties, as every later text extends it."""
    (current,) = yield from scorer.score_batch([""], step=0, k=1)
    tokens: list[str] = []
    while len(tokens) < config.max_tokens:
        candidates = [" ".join(tokens + [v]) for v in config.vocab]
        top = yield from scorer.score_batch(candidates, step=0, k=1)
        if scorer.exhausted or top[0].score <= current.score:
            break
        (current,) = top
        tokens = current.text.split()


def _correction_step(
    beam: Sequence[Hypothesis], memo: _SharedProposals, scorer: _Scorer, b: int, step: int
) -> _Step:
    lists = yield memo, beam
    proposals = [text for made in lists for text in made[:b]]
    if not proposals:
        return list(beam)
    return (yield from scorer.score_batch(proposals, step, b))


def correction_step(
    beam: Sequence[Hypothesis],
    target: np.ndarray,
    gen: MutationGenerator,
    embedder: BlackBoxEmbedder,
    b: int,
    step: int | None = None,
) -> list[Hypothesis]:
    """One refinement round: pool up to b proposals per beam member, embed
    and score the unique texts, and keep the top b by cosine to the target.

    A generator that proposes nothing for every member leaves the beam
    unchanged. A target that is not one finite vector of the embedder's
    dimension raises ValueError before any query.
    """
    if not beam:
        raise ValueError("beam must be non-empty")
    if b < 1:
        raise ValueError("beam width must be >= 1")
    (target,) = _check_targets(np.asarray(target)[None], 1, embedder)
    if step is None:
        step = max(h.step for h in beam) + 1
    attack = _correction_step(beam, _SharedProposals(gen, b), _Scorer(target, None), b, step)
    return _drive([attack], embedder, [0])[0]


def _corrections(
    scorer: _Scorer, memo: _SharedProposals, width: int, stops: list[int], start: float
) -> _Step:
    """Correction steps at beam ``width`` from the greedy base that ``scorer``
    holds, up to the last of the ascending ``stops``. Returns, per stop, the
    result of the attack that runs that many steps alone, with the time from
    ``start`` until the stop was reached as its ``wall_time``; after
    convergence or budget exhaustion that state is final.
    """
    history = [scorer.best.score]
    beam, step = [scorer.best], 0
    reached = {}
    for stop in stops:
        while not scorer.exhausted and scorer.best.score < _CONVERGENCE and step < stop:
            step += 1
            beam = yield from _correction_step(beam, memo, scorer, width, step)
            if not scorer.exhausted:
                history.append(scorer.best.score)
        terminated = BUDGET_EXHAUSTED if scorer.exhausted else (
            CONVERGED if scorer.best.score >= _CONVERGENCE else COMPLETED)
        reached[stop] = AttackResult(
            scorer.best, history.copy(), scorer.queries, time.perf_counter() - start, terminated
        )
    return reached


def _attack_group(
    plans: list[dict[tuple, tuple[np.ndarray, MutationGenerator, AttackConfig, dict]]],
    embedder: BlackBoxEmbedder,
    start: float,
) -> None:
    """Run the attacks of a group of samples, given per sample its chains,
    each a target, generator, config and a map of beam widths to step
    counts, timed from ``start``. Each width's step counts are replaced by
    what ``_corrections`` returns for them."""
    chains = [(i, *chain) for i, plan in enumerate(plans) for chain in plan.values()]
    scorers = [_Scorer(target, config.query_budget) for _, target, _, config, _ in chains]
    _drive([_greedy_base(scorer, chain[3]) for scorer, chain in zip(scorers, chains)], embedder,
           [i for i, *_ in chains])
    shared: dict[tuple[int, int], _SharedProposals] = {}  # per (sample, generator)
    for i, _, gen, _, widths in chains:
        memo = shared.setdefault((i, id(gen)), _SharedProposals(gen, 0))
        memo.width = max(memo.width, *widths)
    names = [(i, widths, w) for i, _, _, _, widths in chains for w in widths]
    branches = [
        # The last branch goes on with the chain's own scorer.
        _corrections(scorer if n == len(widths) - 1 else scorer.fork(), shared[i, id(gen)], w,
                     sorted(stops), start)
        for (i, _, gen, _, widths), scorer in zip(chains, scorers)
        for n, (w, stops) in enumerate(widths.items())
    ]
    del scorers  # so each cache is freed when its chain's last branch ends
    for (_, widths, w), stops in zip(names, _drive(branches, embedder, [i for i, *_ in names])):
        widths[w] = stops


Cell = tuple[Sequence[Hashable], np.ndarray, Sequence[MutationGenerator], AttackConfig]


def invert_grid(cells: Sequence[Cell], embedder: BlackBoxEmbedder) -> list[list[AttackResult]]:
    """Run every attack of every cell in lockstep rounds; returns one result
    list per cell, in row order. A cell is ``(samples, targets, gens,
    config)``: row ``i`` of the ``(len(gens), dim)`` matrix ``targets`` is
    attacked by ``gens[i]`` under ``config``, for the sample with hashable
    key ``samples[i]``. Cells may differ in every field of their configs.
    Before any query, a target matrix of another shape or with a non-finite
    component, or a cell with more or fewer sample keys than generators,
    raises ValueError.

    A sample's attacks with equal target bytes, one generator object and
    configs equal but for ``steps`` and ``beam_width`` form a chain: the
    greedy base runs once, its scorer is then forked per beam width, and
    each branch runs to its width's deepest ``steps``, reading shallower
    attacks off on the way. A sample's branches with one generator share a
    memo that proposes each (text, step) once, at their widest beam, and
    hands a branch of width k the first k proposals (the nesting contract
    of ``MutationGenerator``); each round embeds every text a sample's
    attacks ask for once (see ``_drive``). So every result, ``queries_used``
    included, equals ``invert`` on its target, generator and config alone,
    yet what the attacks share is embedded once. Samples run in groups of
    ceil(r / t), r the most rows a cell has and t the most chains a sample
    has, so about as many chains are live at once as in a one-cell grid.

    An attack's ``wall_time`` is the time from the grid's start until it
    reached its step count, so attacks share the time of the work they
    share and a cell's time is its results' largest."""
    matrices = [_check_targets(targets, len(gens), embedder) for _, targets, gens, _ in cells]
    if any(len(samples) != len(gens) for samples, _, gens, _ in cells):
        raise ValueError("need one sample key per generator in every cell")
    plans: dict[Hashable, dict[tuple, tuple]] = {}  # per sample, its chains by key
    cell_widths = []  # per cell, each row's chain's map of beam widths to steps
    for (samples, _, gens, config), targets in zip(cells, matrices):
        base = replace(config, steps=0, beam_width=1)  # per cell: it checks the config
        row_widths = []
        for sample, target, gen in zip(samples, targets, gens):
            chain = plans.setdefault(sample, {}).setdefault(
                (target.tobytes(), id(gen), base), (target, gen, config, {}))
            chain[3].setdefault(config.beam_width, set()).add(config.steps)
            row_widths.append(chain[3])
        cell_widths.append(row_widths)
    groups = list(plans.values())
    size = max(-(-max(map(len, matrices), default=0) // max(map(len, groups), default=1)), 1)
    start = time.perf_counter()
    for lo in range(0, len(groups), size):
        _attack_group(groups[lo : lo + size], embedder, start)
    return [
        [widths[c.beam_width][c.steps] for widths in row_widths]
        for row_widths, (_, _, _, c) in zip(cell_widths, cells)
    ]


def invert(
    target: np.ndarray,
    embedder: BlackBoxEmbedder,
    gen: MutationGenerator,
    config: AttackConfig,
) -> AttackResult:
    """Run the full attack: greedy base, then ``config.steps`` correction
    rounds of beam search, tracking the best hypothesis ever scored.

    Terminates early once the best score reaches 1 - 1e-9 (converged) or the
    query budget runs out mid-step (budget_exhausted). ``beam_history``
    records the best-so-far score after the base pass and after each
    correction step, so it is non-decreasing by construction. A target that
    is not one finite vector of the embedder's dimension raises ValueError
    before any query.
    """
    return invert_grid([((0,), np.asarray(target)[None], (gen,), config)], embedder)[0][0]


def exhaustive_oracle(
    target: np.ndarray,
    embedder: BlackBoxEmbedder,
    vocab: Sequence[str],
    max_len: int,
    guard: int = ORACLE_GUARD,
) -> Hypothesis:
    """Global cosine argmax over every token sequence of length 0..max_len.

    Independent of the search path: enumerates, embeds, and ranks everything.
    Raises ValueError, before any query, for a vocabulary ``check_vocab``
    refuses (ConfigError), a negative ``max_len``, a target that is not one
    finite vector of the embedder's dimension, or a candidate count above
    ``guard``.
    """
    check_vocab(vocab)
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    (target,) = _check_targets(np.asarray(target)[None], 1, embedder)
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
