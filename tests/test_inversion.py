import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invlab.inversion
from invlab.eaas import MAX_TEXTS, EaasClient, RemoteEmbedder, eaas_serve
from invlab.embeddings import BlackBoxEmbedder, ConfigError, NgramEmbedder, cosine
from invlab.inversion import (
    BUDGET_EXHAUSTED,
    COMPLETED,
    CONVERGED,
    AttackConfig,
    EditMutationGenerator,
    Hypothesis,
    MutationGenerator,
    correction_step,
    exhaustive_oracle,
    invert,
    invert_grid,
)
from invlab.seeding import derive_rng


class IdentityGenerator(MutationGenerator):
    def propose(self, hypothesis, k):
        return [hypothesis.text]


class SilentGenerator(MutationGenerator):
    def propose(self, hypothesis, k):
        return []


class SubstitutionGenerator(MutationGenerator):
    """All single-token substitutions, unsampled."""

    def __init__(self, vocab):
        self.vocab = vocab

    def propose(self, hypothesis, k):
        tokens = hypothesis.text.split()
        out = []
        for i, tok in enumerate(tokens):
            for v in self.vocab:
                if v != tok:
                    out.append(" ".join(tokens[:i] + [v] + tokens[i + 1 :]))
        return out[:k]


class ListGenerator(MutationGenerator):
    def __init__(self, texts):
        self.texts = texts

    def propose(self, hypothesis, k):
        return list(self.texts)[:k]


class TableGenerator(MutationGenerator):
    """Proposes a fixed list per hypothesis text."""

    def __init__(self, table):
        self.table = table

    def propose(self, hypothesis, k):
        return self.table[hypothesis.text][:k]


class BucketEmbedder(BlackBoxEmbedder):
    """Maps a text to one of three vectors by its length, so most scores tie."""

    def embed_many(self, texts):
        return np.array([[1.0, len(t) % 3, 0.5] for t in texts])

    def dimension(self):
        return 3

    def queries_used(self):
        return 0


@pytest.fixture
def embedder():
    return NgramEmbedder(n=3, dim=256, seed=7)


def greedy_base(target, embedder, config):
    """The greedy base hypothesis: the best of an attack with no correction steps."""
    return invert(target, embedder, SilentGenerator(), dataclasses.replace(config, steps=0)).best


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AttackConfig(vocab=())
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a", "a"))
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a b",))
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a",), beam_width=0)
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a",), steps=-1)
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a",), max_tokens=0)
        with pytest.raises(ConfigError):
            AttackConfig(vocab=("a",), query_budget=0)

    def test_list_vocab_stored_as_tuple(self):
        listed = AttackConfig(vocab=["a", "b"], steps=2)
        tupled = AttackConfig(vocab=("a", "b"), steps=2)
        assert listed.vocab == ("a", "b")
        assert hash(listed) == hash(tupled)
        assert listed == tupled

    def test_string_vocab_still_refused(self):
        with pytest.raises(ConfigError, match="not a string"):
            AttackConfig(vocab="ab")


class TestBaseHypothesis:
    def test_recovers_single_token_target(self, embedder):
        # compare both candidate embeddings directly: "a" must win
        target = embedder.embed("a")
        assert cosine(embedder.embed("a"), target) > cosine(embedder.embed("b"), target)
        hyp = greedy_base(target, embedder, AttackConfig(vocab=("a", "b"), max_tokens=1))
        assert hyp.text == "a"
        assert hyp.score == pytest.approx(1.0, abs=1e-9)
        assert hyp.step == 0

    def test_single_candidate_vocab(self, embedder):
        target = embedder.embed("whatever text")
        hyp = greedy_base(target, embedder, AttackConfig(vocab=("a",), max_tokens=1))
        assert hyp.text in ("", "a")  # the only candidates of length <= 1
        # with only token "a" available, the builder either keeps it or stops empty
        direct = cosine(embedder.embed("a"), target)
        assert hyp.text == ("a" if direct > 0 else "")

    def test_deterministic(self, embedder):
        target = embedder.embed("b a")
        config = AttackConfig(vocab=("a", "b"), max_tokens=4)
        first = greedy_base(target, embedder, config)
        second = greedy_base(target, embedder, config)
        assert first.text == second.text
        assert first.score == second.score

    def test_dimension_mismatch(self, embedder):
        target = np.zeros(8)
        with pytest.raises(ValueError):
            greedy_base(target, embedder, AttackConfig(vocab=("a",)))

    def test_respects_max_tokens(self, embedder):
        target = embedder.embed("a a a a a a")
        hyp = greedy_base(target, embedder, AttackConfig(vocab=("a",), max_tokens=3))
        assert len(hyp.text.split()) <= 3


class TestCorrectionStep:
    def test_identity_generator_fixed_point(self, embedder):
        target = embedder.embed("a")
        hyp = greedy_base(target, embedder, AttackConfig(vocab=("a", "b"), max_tokens=1))
        beam = correction_step([hyp], target, IdentityGenerator(), embedder, b=1)
        assert [h.text for h in beam] == [hyp.text]

    def test_silent_generator_returns_beam_unchanged(self, embedder):
        target = embedder.embed("a b")
        hyp = Hypothesis("b b", 0.0, 0)
        beam = correction_step([hyp], target, SilentGenerator(), embedder, b=4)
        assert beam == [hyp]

    def test_substitution_recovers_target(self, embedder):
        # independent enumeration: rank all single-token substitutions of "b b"
        target = embedder.embed("a b")
        substitutions = ["a b", "b a"]
        ranked = sorted(
            substitutions, key=lambda t: -cosine(embedder.embed(t), target)
        )
        assert ranked[0] == "a b"

        start = Hypothesis("b b", cosine(embedder.embed("b b"), target), 0)
        beam = correction_step(
            [start], target, SubstitutionGenerator(("a", "b")), embedder, b=4
        )
        texts = [h.text for h in beam]
        assert "a b" in texts
        assert beam[0].text == "a b"
        assert beam[0].score == pytest.approx(1.0, abs=1e-9)

    def test_lexicographic_tie_break(self, constant_embedder):
        # every candidate scores identically, so order must be lexicographic
        target = constant_embedder.embed("anything")
        start = Hypothesis("seed", 1.0, 0)
        beam = correction_step(
            [start], target, ListGenerator(["delta", "alpha", "casa"]),
            constant_embedder, b=3,
        )
        assert [h.text for h in beam] == ["alpha", "casa", "delta"]

    @settings(max_examples=80, deadline=None)
    @given(
        table=st.dictionaries(
            st.sampled_from(["", "a", "b c"]),
            st.lists(st.text("abc ", max_size=4), max_size=6),
            min_size=1,
        ),
        b=st.integers(1, 6),
        target=st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any),
    )
    def test_keeps_first_b_distinct_proposals_by_score_then_text(self, table, b, target):
        # An independent ranking of the pooled proposals under shared vectors.
        embedder, target = BucketEmbedder(), np.array(target, dtype=float)
        beam = [Hypothesis(text, 0.0, 0) for text in table]
        kept = correction_step(beam, target, TableGenerator(table), embedder, b)
        pool = sorted({p for text in table for p in table[text][:b]})
        if not pool:
            assert kept == beam
            return
        scores = dict(zip(pool, cosine(embedder.embed_many(pool), target)))
        ranked = sorted(pool, key=lambda t: (-scores[t], t))[:b]
        assert [(h.text, h.score, h.step) for h in kept] == [(t, scores[t], 1) for t in ranked]

    def test_no_duplicate_texts_in_beam(self, embedder):
        target = embedder.embed("a b")
        start = Hypothesis("b b", 0.0, 0)
        beam = correction_step(
            [start, start], target, SubstitutionGenerator(("a", "b")), embedder, b=8
        )
        texts = [h.text for h in beam]
        assert len(texts) == len(set(texts))

    def test_scheduling_independence(self, embedder):
        # same candidate set in different proposal orders yields identical beams
        target = embedder.embed("c a")
        start = Hypothesis("", 0.0, 0)
        forward = correction_step(
            [start], target, ListGenerator(["a", "b", "c", "c a"]), embedder, b=4
        )
        backward = correction_step(
            [start], target, ListGenerator(["c a", "c", "b", "a"]), embedder, b=4
        )
        assert [(h.text, h.score) for h in forward] == [(h.text, h.score) for h in backward]

    def test_empty_beam_rejected(self, embedder):
        with pytest.raises(ValueError):
            correction_step([], embedder.embed("a"), IdentityGenerator(), embedder, b=1)


class TestInvert:
    def test_recovers_derived_target(self, embedder):
        # the oracle confirms "c a b" is the unique global argmax first
        vocab = ("a", "b", "c")
        target = embedder.embed("c a b")
        oracle = exhaustive_oracle(target, embedder, vocab, max_len=3)
        assert oracle.text == "c a b"
        assert oracle.score == pytest.approx(1.0, abs=1e-12)

        gen = EditMutationGenerator(vocab, max_tokens=3, seed=5)
        config = AttackConfig(vocab=vocab, steps=50, beam_width=8, max_tokens=3)
        result = invert(target, embedder, gen, config)
        assert result.best.text == "c a b"
        assert result.best.score == pytest.approx(1.0, abs=1e-9)
        assert result.terminated == CONVERGED

    def test_history_non_decreasing(self, embedder):
        target = embedder.embed("b c a c")
        vocab = ("a", "b", "c")
        gen = EditMutationGenerator(vocab, max_tokens=4, seed=2)
        result = invert(
            target, embedder, gen, AttackConfig(vocab=vocab, steps=12, beam_width=2, max_tokens=4)
        )
        assert all(x <= y for x, y in zip(result.beam_history, result.beam_history[1:]))

    def test_monotone_improvement_over_base(self, embedder):
        target = embedder.embed("c b a")
        vocab = ("a", "b", "c")
        config = AttackConfig(vocab=vocab, steps=20, beam_width=4, max_tokens=3)
        base = greedy_base(target, embedder, config)
        result = invert(target, embedder, EditMutationGenerator(vocab, 3, seed=1), config)
        assert result.best.score >= base.score

    def test_query_accounting_matches_embedder_counter(self):
        embedder = NgramEmbedder(n=3, dim=128, seed=3)
        target_text = "b a c"
        target = embedder.embed(target_text)
        before = embedder.queries_used()
        vocab = ("a", "b", "c")
        result = invert(
            target,
            embedder,
            EditMutationGenerator(vocab, 3, seed=9),
            AttackConfig(vocab=vocab, steps=10, beam_width=4, max_tokens=3),
        )
        assert embedder.queries_used() - before == result.queries_used

    def test_budget_exhaustion_flagged(self, embedder):
        target = embedder.embed("c a b c")
        vocab = ("a", "b", "c")
        config = AttackConfig(
            vocab=vocab, steps=50, beam_width=8, max_tokens=4, query_budget=8
        )
        result = invert(target, embedder, EditMutationGenerator(vocab, 4, seed=0), config)
        assert result.terminated == BUDGET_EXHAUSTED
        assert result.queries_used <= 8
        assert result.best is not None

    def test_budget_smaller_than_base_pass(self, embedder):
        target = embedder.embed("a b")
        vocab = ("a", "b")
        config = AttackConfig(vocab=vocab, steps=5, beam_width=2, max_tokens=2, query_budget=2)
        result = invert(target, embedder, IdentityGenerator(), config)
        assert result.terminated == BUDGET_EXHAUSTED
        assert result.queries_used == 2
        assert result.beam_history  # whatever was scored is reported

    @pytest.mark.parametrize("text", ["c a b", "cab ba c"])
    def test_best_text_re_embeds_to_its_score(self, embedder, text):
        # The best keeps no vector: its score must be its text's, bit for bit.
        target = embedder.embed(text)
        vocab = ("a", "b", "c")
        config = AttackConfig(vocab=vocab, steps=3, beam_width=4, max_tokens=3)
        result = invert(target, embedder, EditMutationGenerator(vocab, 3, seed=5), config)
        assert_re_embeds(result.best, target, embedder)

    def test_wall_time_positive(self, embedder):
        target = embedder.embed("a")
        result = invert(
            target, embedder, IdentityGenerator(), AttackConfig(vocab=("a",), steps=0)
        )
        assert result.wall_time > 0

    def test_oracle_equivalence_sample(self, embedder):
        # statistical mini-batch; the full 100-trial criterion runs in acceptance
        vocab = ("a", "b", "c")
        hits = 0
        for trial in range(20):
            rng = derive_rng("mini-oracle", trial)
            length = int(rng.integers(0, 5))
            text = " ".join(vocab[int(i)] for i in rng.integers(0, 3, size=length))
            target = embedder.embed(text)
            oracle = exhaustive_oracle(target, embedder, vocab, max_len=4)
            gen = EditMutationGenerator(vocab, max_tokens=4, seed=trial)
            result = invert(
                target, embedder, gen,
                AttackConfig(vocab=vocab, steps=50, beam_width=8, max_tokens=4),
            )
            if result.best.score >= oracle.score - 1e-9:
                hits += 1
        assert hits >= 19


class CountingEmbedder(NgramEmbedder):
    """Records the size and the texts of every embed_many call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[int] = []
        self.texts: list[list[str]] = []

    def embed_many(self, texts):
        self.calls.append(len(texts))
        self.texts.append(list(texts))
        return super().embed_many(texts)


def assert_re_embeds(best: Hypothesis, target: np.ndarray, embedder) -> None:
    assert best.score.hex() == cosine(embedder.embed(best.text), target).hex()


def assert_same_attack(lockstep, alone, target, embedder):
    assert lockstep.best.text == alone.best.text
    assert lockstep.best.score.hex() == alone.best.score.hex()
    assert lockstep.best.step == alone.best.step
    assert_re_embeds(lockstep.best, target, embedder)
    assert [x.hex() for x in lockstep.beam_history] == [x.hex() for x in alone.beam_history]
    assert lockstep.queries_used == alone.queries_used
    assert lockstep.terminated == alone.terminated


def grid_cells(targets, gens, configs):
    """``invert_grid`` cells in which row ``i`` of every target matrix is
    sample ``i``'s, attacked by ``gens[i]``."""
    return [(range(len(gens)), rows, gens, config) for rows, config in zip(targets, configs)]


LOCKSTEP_VOCAB = ("a", "b", "c", "d")


def lockstep_generator(kind: str, seed: int) -> MutationGenerator:
    if kind == "identity":
        return IdentityGenerator()
    if kind == "silent":
        return SilentGenerator()
    return EditMutationGenerator(LOCKSTEP_VOCAB, max_tokens=4, seed=seed)


class TestLockstep:
    """A one-config ``invert_grid`` gives every attack exactly what ``invert``
    gives it alone."""

    @settings(max_examples=60, deadline=None)
    @given(
        attacks=st.lists(
            st.tuples(
                # Target texts over the vocabulary: short ones converge in the
                # greedy pass while longer ones keep running.
                st.lists(st.sampled_from(LOCKSTEP_VOCAB), max_size=4),
                st.sampled_from(["edit", "edit", "identity", "silent"]),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=6,
        ),
        steps=st.integers(0, 8),
        beam=st.integers(1, 4),
        budget=st.one_of(st.none(), st.integers(1, 60)),
    )
    def test_equals_one_at_a_time(self, attacks, steps, beam, budget):
        embedder = NgramEmbedder(n=3, dim=64, seed=11)
        config = AttackConfig(
            vocab=LOCKSTEP_VOCAB, steps=steps, beam_width=beam, max_tokens=4, query_budget=budget
        )
        targets = [embedder.embed(" ".join(tokens)) for tokens, _, _ in attacks]
        gens = [lockstep_generator(kind, seed) for _, kind, seed in attacks]
        results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), embedder)[0]
        assert len(results) == len(attacks)
        for target, gen, result in zip(targets, gens, results):
            assert_same_attack(result, invert(target, embedder, gen, config), target, embedder)
            assert result.wall_time > 0

    def test_attacks_stop_in_different_rounds(self, embedder):
        # Converged in the greedy pass, converged mid-search, out of budget
        # mid-search, and every step run: the lockstep rounds lose attacks
        # one at a time.
        vocab = ("a", "b", "c")
        texts = ["a", "b c a c", "zebra quokka", "yak"]
        targets = [embedder.embed(t) for t in texts]
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=2) for _ in texts[:3]]
        gens.append(SilentGenerator())
        config = AttackConfig(vocab=vocab, steps=6, beam_width=4, max_tokens=4, query_budget=30)
        results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), embedder)[0]
        assert [r.terminated for r in results] == [
            CONVERGED, CONVERGED, BUDGET_EXHAUSTED, COMPLETED
        ]
        assert len(results[0].beam_history) == 1 < len(results[1].beam_history)
        for target, gen, result in zip(targets, gens, results):
            assert_same_attack(result, invert(target, embedder, gen, config), target, embedder)

    def test_no_call_exceeds_round_cap(self):
        embedder = CountingEmbedder(n=3, dim=64, seed=11)
        vocab = tuple("abcdefgh")
        targets = [embedder.embed(" ".join(vocab[i : i + 3])) for i in range(6)]
        embedder.calls.clear()
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=i) for i in range(6)]
        config = AttackConfig(vocab=vocab, steps=4, beam_width=8, max_tokens=4)
        results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), embedder)[0]
        cap = invlab.inversion._ROUND_TEXTS
        assert max(embedder.calls) == cap  # rounds were long enough to be cut
        assert sum(embedder.calls) == sum(r.queries_used for r in results)

    def test_round_cap_below_service_text_cap(self):
        assert invlab.inversion._ROUND_TEXTS < MAX_TEXTS

    def test_mismatched_generators_refused(self, embedder):
        with pytest.raises(ValueError):
            cells = grid_cells([embedder.embed_many(["a"])], [], [AttackConfig(vocab=("a",))])
            invert_grid(cells, embedder)

    def test_remote_bill_equals_summed_queries(self):
        local = NgramEmbedder(n=3, dim=32, seed=17)
        vocab = ("a", "b", "c")
        targets = [local.embed(t) for t in ("a b", "c a b", "b b c a", "c")]
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=s) for s in range(4)]
        config = AttackConfig(vocab=vocab, steps=5, beam_width=4, max_tokens=4)
        server = eaas_serve(NgramEmbedder(n=3, dim=32, seed=17))
        try:
            with EaasClient(*server.address) as client:
                remote = RemoteEmbedder(client, dim=32)
                results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), remote)[0]
            assert server.queries_used() == sum(r.queries_used for r in results)
        finally:
            server.stop()
        for target, gen, result in zip(targets, gens, results):
            assert_same_attack(result, invert(target, local, gen, config), target, local)


GRID_TOKENS = ("a", "b", "c", "d", "e")


class TestGrid:
    """Every cell of ``invert_grid`` equals its attack run alone."""

    @settings(max_examples=50, deadline=None)
    @given(
        vocab=st.lists(st.sampled_from(GRID_TOKENS), min_size=1, max_size=4, unique=True),
        attacks=st.lists(
            st.tuples(
                # Target tokens may lie outside the vocabulary, so some
                # attacks never converge and run every step.
                st.lists(st.sampled_from(GRID_TOKENS), max_size=4),
                st.sampled_from(["edit", "edit", "identity", "silent"]),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=4,
        ),
        steps=st.lists(st.integers(0, 6), min_size=1, max_size=4),
        beams=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        budget=st.one_of(st.none(), st.integers(1, 120)),
    )
    def test_each_cell_equals_its_attack_alone(self, vocab, attacks, steps, beams, budget):
        vocab = tuple(vocab)

        def gens():
            return [
                EditMutationGenerator(vocab, max_tokens=4, seed=seed)
                if kind == "edit"
                else lockstep_generator(kind, seed)
                for _, kind, seed in attacks
            ]

        configs = [
            AttackConfig(vocab, s, b, max_tokens=4, query_budget=budget)
            for s, b in itertools.product(steps, beams)
        ]
        embedder = NgramEmbedder(n=3, dim=64, seed=11)
        targets = [embedder.embed(" ".join(tokens)) for tokens, _, _ in attacks]
        grid = invert_grid(
            grid_cells([np.stack(targets)] * len(configs), gens(), configs), embedder
        )
        assert len(grid) == len(configs)
        for config, results in zip(configs, grid):
            fresh = NgramEmbedder(n=3, dim=64, seed=11)
            alone = invert_grid(grid_cells([np.stack(targets)], gens(), [config]), fresh)[0]
            assert len(results) == len(alone)
            for target, result, expected in zip(targets, results, alone):
                assert_same_attack(result, expected, target, fresh)
                assert result.wall_time > 0

    def test_bill_counts_each_shared_prefix_once(self):
        vocab = ("a", "b", "c", "d")
        texts = ["b c a e", "d d b", "e e", "c a b d"]
        beams = (1, 3, 5)
        configs = [AttackConfig(vocab, s, b, max_tokens=4) for s in (1, 4, 8) for b in beams]
        embedder = CountingEmbedder(n=3, dim=64, seed=11)
        targets = [embedder.embed(t) for t in texts]
        embedder.calls.clear()
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=s) for s in range(4)]
        grid = invert_grid(grid_cells([np.stack(targets)] * len(configs), gens, configs),
                           embedder)
        # Reference: each sample's deepest attack per beam width, run alone.
        # A lone attack asks for under _ROUND_TEXTS texts a round, so each of
        # its calls is one round, and a sample's branches run in the same
        # rounds: the bill is, per sample and round, the union of what its
        # branches asked for.
        expected = 0
        for target, gen in zip(targets, gens):
            branches = []
            for b in beams:
                alone = CountingEmbedder(n=3, dim=64, seed=11)
                deepest = AttackConfig(vocab, 8, b, max_tokens=4)
                invert_grid(grid_cells([np.stack([target])], [gen], [deepest]), alone)
                assert max(alone.calls) < invlab.inversion._ROUND_TEXTS
                branches.append(alone.texts)
            rounds = itertools.zip_longest(*branches, fillvalue=[])
            expected += sum(len(set().union(*requests)) for requests in rounds)
        assert sum(embedder.calls) == expected
        assert expected < sum(r.queries_used for results in grid for r in results)

    def test_scorer_forked_once_per_extra_beam_width(self, monkeypatch, embedder):
        forks = []
        real_fork = invlab.inversion._Scorer.fork

        def counting_fork(scorer):
            forks.append(scorer)
            return real_fork(scorer)

        monkeypatch.setattr(invlab.inversion._Scorer, "fork", counting_fork)
        vocab = ("a", "b", "c")
        targets = [embedder.embed(t) for t in ("a b", "c c a")]
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=s) for s in range(2)]
        config = AttackConfig(vocab, steps=2, beam_width=2, max_tokens=4)
        invert_grid(grid_cells([np.stack(targets)], gens, [config]), embedder)
        assert forks == []  # a one-config grid copies nothing
        grid = [dataclasses.replace(config, beam_width=b, steps=s) for b in (1, 2, 3) for s in (0, 2)]
        invert_grid(grid_cells([np.stack(targets)] * len(grid), gens, grid), embedder)
        assert len(forks) == 2 * 2

    def test_beam_widths_share_proposals(self, monkeypatch, embedder):
        # Branches of widths 1, 4 and 8 take their proposals from one memo
        # filled at width 8, and each cell still equals its config alone.
        proposed = []
        real_propose = EditMutationGenerator.propose

        def counting_propose(gen, hypothesis, k):
            proposed.append(k)
            return real_propose(gen, hypothesis, k)

        monkeypatch.setattr(EditMutationGenerator, "propose", counting_propose)
        vocab = ("a", "b", "c", "d")
        # "e" lies outside the vocabulary, so no attack converges.
        targets = np.stack([embedder.embed(t) for t in ("b c a e", "d e b")])
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=s) for s in range(2)]
        configs = [AttackConfig(vocab, s, b, max_tokens=4) for b in (1, 4, 8) for s in (1, 3)]
        grid = invert_grid(grid_cells([targets] * len(configs), gens, configs), embedder)
        shared = len(proposed)
        assert set(proposed) == {8}
        for config, results in zip(configs, grid):
            alone = invert_grid(grid_cells([targets], gens, [config]), embedder)[0]
            for target, result, expected in zip(targets, results, alone):
                assert_same_attack(result, expected, target, embedder)
        proposed.clear()
        for b in (1, 4, 8):
            config = AttackConfig(vocab, 3, b, max_tokens=4)
            invert_grid(grid_cells([targets], gens, [config]), embedder)
        assert 0 < shared < len(proposed)

    @pytest.mark.parametrize(
        "change",
        [
            {"max_tokens": 3},
            {"query_budget": 50},
            {"vocab": ("a", "b")},
            {"vocab": ("b", "a", "c")},
        ],
    )
    def test_configs_differing_beyond_steps_and_beam_equal_alone(self, embedder, change):
        # Such configs run separate chains of one sample, sharing its memo
        # and each round's embeds.
        config = AttackConfig(("a", "b", "c"), steps=2, beam_width=2, max_tokens=4)
        other = dataclasses.replace(config, steps=3, beam_width=1, **change)
        target = embedder.embed("c a d b")  # "d" is out of vocabulary: no convergence
        gen = EditMutationGenerator(("a", "b", "c"), 4, seed=3)
        grid = invert_grid(grid_cells([np.stack([target])] * 2, [gen], [config, other]), embedder)
        for c, (result,) in zip([config, other], grid):
            fresh = NgramEmbedder(n=3, dim=256, seed=7)
            assert_same_attack(result, invert(target, fresh, gen, c), target, fresh)

    def test_list_and_tuple_vocabularies_share_a_grid(self, embedder):
        listed = AttackConfig(["a", "b", "c"], steps=1, beam_width=2, max_tokens=4)
        tupled = AttackConfig(("a", "b", "c"), steps=3, beam_width=2, max_tokens=4)
        target = embedder.embed("c a b")
        gen = EditMutationGenerator(("a", "b", "c"), 4, seed=3)
        cells = invert_grid(grid_cells([np.stack([target])] * 2, [gen], [listed, tupled]),
                            embedder)
        for config, (result,) in zip([listed, tupled], cells):
            fresh = NgramEmbedder(n=3, dim=256, seed=7)
            assert_same_attack(result, invert(target, fresh, gen, config), target, fresh)

    def test_mismatched_generators_refused_and_empty_grid(self, embedder):
        config = AttackConfig(vocab=("a",))
        with pytest.raises(ValueError):
            invert_grid(grid_cells([embedder.embed_many(["a"])], [], [config]), embedder)
        assert invert_grid([], embedder) == []


class TestCellTargets:
    """Cells of one ``invert_grid`` call may carry their own targets: each
    sample's attacks then share its generator and each round's embeds, and
    every cell still equals its attack alone."""

    @settings(max_examples=50, deadline=None)
    @given(
        vocab=st.lists(st.sampled_from(GRID_TOKENS), min_size=1, max_size=4, unique=True),
        kinds=st.lists(
            st.tuples(
                st.sampled_from(["edit", "edit", "identity", "silent"]), st.integers(0, 1000)
            ),
            min_size=1,
            max_size=3,
        ),
        budget=st.one_of(st.none(), st.integers(1, 120)),
        data=st.data(),
    )
    def test_each_cell_equals_its_cell_alone(self, vocab, kinds, budget, data):
        vocab = tuple(vocab)
        texts = st.lists(st.sampled_from(GRID_TOKENS), max_size=4).map(" ".join)
        # Target sets may repeat a text, so cells over equal targets share a
        # sample's scorer as well.
        target_sets = data.draw(
            st.lists(st.lists(texts, min_size=len(kinds), max_size=len(kinds)),
                     min_size=1, max_size=3)
        )
        cells = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(target_sets) - 1), st.integers(0, 6),
                          st.integers(1, 4)),
                min_size=1,
                max_size=5,
            )
        )

        def gens():
            return [
                EditMutationGenerator(vocab, max_tokens=4, seed=seed)
                if kind == "edit"
                else lockstep_generator(kind, seed)
                for kind, seed in kinds
            ]

        embedder = NgramEmbedder(n=3, dim=64, seed=11)
        embedded = [[embedder.embed(text) for text in texts] for texts in target_sets]
        targets = [embedded[t] for t, _, _ in cells]
        configs = [
            AttackConfig(vocab, s, b, max_tokens=4, query_budget=budget) for _, s, b in cells
        ]
        grid = invert_grid(grid_cells([np.stack(t) for t in targets], gens(), configs),
                           embedder)
        assert len(grid) == len(configs)
        for cell_targets, config, results in zip(targets, configs, grid):
            fresh = NgramEmbedder(n=3, dim=64, seed=11)
            alone = invert_grid(grid_cells([np.stack(cell_targets)], gens(), [config]), fresh)[0]
            assert len(results) == len(alone)
            for target, result, expected in zip(cell_targets, results, alone):
                assert_same_attack(result, expected, target, fresh)
                assert result.wall_time > 0

    @settings(max_examples=50, deadline=None)
    @given(
        # Few vocabularies and budgets, so that cells often differ in only
        # one of vocabulary, generator and budget.
        families=st.lists(
            st.tuples(
                st.sampled_from([("a", "b", "c"), ("a", "b", "c", "d")]),
                st.sampled_from(["edit", "edit", "identity", "silent"]),
                st.integers(0, 1000),
            ),
            min_size=1,
            max_size=3,
        ),
        n_samples=st.integers(1, 2),
        data=st.data(),
    )
    def test_cells_with_own_vocab_and_generators_equal_each_alone(
        self, families, n_samples, data
    ):
        # A family is a vocabulary with one generator per sample, as a
        # (language, condition) split has; cells of different families share
        # only their samples' rounds, cells of one family also their chains.
        # Two target texts per sample, so cells often share a target.
        texts = st.lists(st.sampled_from(GRID_TOKENS), max_size=4).map(" ".join)
        pool = data.draw(st.lists(st.tuples(texts, texts), min_size=n_samples,
                                  max_size=n_samples))
        cells = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(families) - 1),
                    st.integers(0, 1),
                    st.lists(st.integers(0, n_samples - 1), min_size=1, unique=True),
                    st.integers(0, 6),
                    st.integers(1, 4),
                    st.sampled_from([None, 6, 30]),
                ),
                min_size=1,
                max_size=5,
            )
        )
        gens = [
            [
                EditMutationGenerator(vocab, max_tokens=4, seed=seed + i)
                if kind == "edit"
                else lockstep_generator(kind, seed)
                for i in range(n_samples)
            ]
            for vocab, kind, seed in families
        ]
        embedder = NgramEmbedder(n=3, dim=64, seed=11)
        grid = []
        for f, t, keys, steps, beam, budget in cells:
            rows = np.stack([embedder.embed(pool[i][t]) for i in keys])
            config = AttackConfig(families[f][0], steps, beam, 4, budget)
            grid.append((keys, rows, [gens[f][i] for i in keys], config))
        for cell, results in zip(grid, invert_grid(grid, embedder)):
            fresh = NgramEmbedder(n=3, dim=64, seed=11)
            alone = invert_grid([cell], fresh)[0]
            assert len(results) == len(alone) == len(cell[0])
            for target, result, expected in zip(cell[1], results, alone):
                assert_same_attack(result, expected, target, fresh)
                assert result.wall_time > 0

    def test_no_round_embeds_a_text_twice(self):
        # One sample, so every (sample, text) pair is a text; every round
        # stays below the cap, so each call is one round.
        embedder = CountingEmbedder(n=3, dim=64, seed=11)
        vocab = ("a", "b", "c", "d")
        targets = [[embedder.embed(t)] for t in ("b c a", "b c a d", "d a", "c c b a")]
        embedder.calls.clear()
        embedder.texts.clear()
        configs = [AttackConfig(vocab, 6, b, max_tokens=4) for b in (2, 3, 3, 2)]
        gen = EditMutationGenerator(vocab, max_tokens=4, seed=5)
        grid = invert_grid(grid_cells([np.stack(t) for t in targets], [gen], configs), embedder)
        assert max(embedder.calls) < invlab.inversion._ROUND_TEXTS
        assert all(len(set(texts)) == len(texts) for texts in embedder.texts)
        assert sum(embedder.calls) < sum(r.queries_used for results in grid for r in results)

    def test_rounds_cut_into_calls_equal_cells_alone(self):
        # Rounds of several hundred texts, cut into calls at the cap, with
        # each sample's rows shared between calls.
        embedder = CountingEmbedder(n=3, dim=64, seed=11)
        vocab = tuple("abcdefgh")
        cells = [
            [embedder.embed(" ".join(vocab[i + shift : i + 3 + shift])) for i in range(4)]
            for shift in (0, 1, 2)
        ]
        embedder.calls.clear()
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=i) for i in range(4)]
        config = AttackConfig(vocab=vocab, steps=3, beam_width=8, max_tokens=4)
        grid = invert_grid(grid_cells([np.stack(t) for t in cells], gens, [config] * 3),
                           embedder)
        assert embedder.calls.count(invlab.inversion._ROUND_TEXTS) > 1
        for targets, results in zip(cells, grid):
            fresh = NgramEmbedder(n=3, dim=64, seed=11)
            for target, result, alone in zip(
                targets,
                results,
                invert_grid(grid_cells([np.stack(targets)], gens, [config]), fresh)[0],
            ):
                assert_same_attack(result, alone, target, fresh)

    def test_proposals_shared_across_cells(self, monkeypatch, embedder):
        proposed = []
        real_propose = EditMutationGenerator.propose

        def counting_propose(gen, hypothesis, k):
            proposed.append((hypothesis.text, hypothesis.step, k))
            return real_propose(gen, hypothesis, k)

        monkeypatch.setattr(EditMutationGenerator, "propose", counting_propose)
        vocab = ("a", "b", "c")
        gen = EditMutationGenerator(vocab, max_tokens=4, seed=1)
        config = AttackConfig(vocab, 4, 2, max_tokens=4)
        # A slightly noised twin of a target: the two attacks make the same
        # greedy base and early beams, so the same proposals, made once.
        target = embedder.embed("c a b")
        twin = target + 1e-6 * np.sin(np.arange(target.size))
        targets = [[target], [twin]]
        invert_grid(grid_cells([np.stack(t) for t in targets], [gen], [config, config]),
                    embedder)
        shared = len(proposed)
        assert shared == len(set(proposed)) > 0
        proposed.clear()
        for cell in targets:
            invert_grid(grid_cells([np.stack(cell)], [gen], [config]), embedder)
        assert shared < len(proposed)

    def test_memo_proposes_each_key_once_across_steps(self, monkeypatch):
        # Noised twins of each target, as in a defense sweep: a sample's
        # attacks drift apart and can sit at adjacent steps in one round,
        # where a memo emptied on every change of step proposed twice.
        proposed = []
        real_propose = EditMutationGenerator.propose

        def counting_propose(gen, hypothesis, k):
            proposed.append((gen.seed, hypothesis.text, hypothesis.step, k))
            return real_propose(gen, hypothesis, k)

        monkeypatch.setattr(EditMutationGenerator, "propose", counting_propose)
        embedder = NgramEmbedder(n=3, dim=64, seed=5)
        vocab = ("a", "b", "c", "d", "e")
        raw = embedder.embed_many(["c a b", "e d", "b b a d", "d c e a"])
        config = AttackConfig(vocab, 8, 3, max_tokens=4)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            cells = [raw] + [raw + lam * rng.standard_normal(raw.shape) for lam in (1e-3, 1e-2, 1e-1)]

            def gens():
                return [EditMutationGenerator(vocab, 4, seed=seed * 10 + i) for i in range(len(raw))]

            proposed.clear()
            grid = invert_grid(grid_cells(cells, gens(), [config] * len(cells)), embedder)
            assert len(proposed) == len(set(proposed)), seed
            for targets, results in zip(cells, grid):
                fresh = NgramEmbedder(n=3, dim=64, seed=5)
                alone = invert_grid(grid_cells([targets], gens(), [config]), fresh)
                for target, result, one in zip(targets, results, alone[0]):
                    assert_same_attack(result, one, target, embedder)

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
    def test_one_config_bill_equals_summed_queries(self, remote):
        # Samples with equal targets and generators ask for the same texts
        # in the same rounds; sharing across samples would bill them once.
        local = CountingEmbedder(n=3, dim=32, seed=17)
        vocab = ("a", "b", "c")
        targets = [local.embed(t) for t in ("a b", "a b", "c a b", "c a b")]
        local.calls.clear()
        gens = [EditMutationGenerator(vocab, max_tokens=4, seed=s // 2) for s in range(4)]
        config = AttackConfig(vocab=vocab, steps=5, beam_width=4, max_tokens=4)
        if not remote:
            results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), local)[0]
            assert sum(local.calls) == sum(r.queries_used for r in results)
            return
        with eaas_serve(NgramEmbedder(n=3, dim=32, seed=17)) as server:
            with EaasClient(*server.address) as client:
                remote = RemoteEmbedder(client, dim=32)
                results = invert_grid(grid_cells([np.stack(targets)], gens, [config]), remote)[0]
            assert server.queries_used() == sum(r.queries_used for r in results)

    @pytest.mark.parametrize(
        "cells, match",
        [
            (lambda rows: [((0, 1), rows)], "one sample key per generator"),
            (lambda rows: [((0,), rows), ((0,), rows[:0])], "target matrix"),
            (lambda rows: [((0,), rows), ((0,), np.vstack([rows, rows]))], "target matrix"),
            (lambda rows: [((0,), rows), ((0,), rows[:, :-1])], "target matrix"),
            (lambda rows: [((0,), rows), ((0,), rows.ravel())], "target matrix"),
            (lambda rows: [((0,), np.where(np.arange(rows.shape[1]) == 3, np.nan, rows))],
             "finite"),
            (lambda rows: [((0,), np.where(np.arange(rows.shape[1]) == 3, -np.inf, rows))],
             "finite"),
        ],
        ids=["sample_keys_not_generators", "no_rows", "rows_not_generators", "width",
             "one_dimensional", "nan", "inf"],
    )
    def test_targets_per_config_must_match_configs_and_generators(self, embedder, cells, match):
        # Refused before any query: per cell, one sample key per generator
        # and a target matrix of (len(gens), dim) finite components.
        config = AttackConfig(vocab=("a", "b"))
        rows = embedder.embed_many(["a"])
        before = embedder.queries_used()
        with pytest.raises(ValueError, match=match):
            invert_grid(
                [(keys, targets, [SilentGenerator()], config) for keys, targets in cells(rows)],
                embedder,
            )
        assert embedder.queries_used() == before


class TestExhaustiveOracle:
    def test_enumerates_exact_candidate_count(self):
        # vocab {a, b}, max_len 2: "", a, b, a a, a b, b a, b b = 7 embeds
        embedder = NgramEmbedder(n=2, dim=32, seed=0)
        target = embedder.embed("a b")
        before = embedder.queries_used()
        exhaustive_oracle(target, embedder, ("a", "b"), max_len=2)
        assert embedder.queries_used() - before == 7

    def test_finds_target(self, embedder):
        target = embedder.embed("b a")
        oracle = exhaustive_oracle(target, embedder, ("a", "b"), max_len=2)
        assert oracle.text == "b a"
        assert oracle.score == pytest.approx(1.0, abs=1e-12)

    def test_max_len_zero(self, embedder):
        oracle = exhaustive_oracle(embedder.embed("a"), embedder, ("a", "b"), max_len=0)
        assert oracle.text == ""

    @pytest.mark.parametrize("text", ["b a", "ba cc"])
    def test_best_text_re_embeds_to_its_score(self, embedder, text):
        target = embedder.embed(text)
        oracle = exhaustive_oracle(target, embedder, ("a", "b", "c"), max_len=3)
        assert_re_embeds(oracle, target, embedder)

    def test_negative_max_len_refused_before_any_query(self, embedder):
        target = embedder.embed("a")
        before = embedder.queries_used()
        with pytest.raises(ValueError, match="max_len"):
            exhaustive_oracle(target, embedder, ("a", "b"), max_len=-1)
        assert embedder.queries_used() == before

    def test_guard_refuses_large_enumerations(self, embedder):
        with pytest.raises(ValueError, match="guard"):
            exhaustive_oracle(embedder.embed("a"), embedder, tuple("abcdefghij"), max_len=7)

    def test_empty_vocab_rejected(self, embedder):
        with pytest.raises(ValueError):
            exhaustive_oracle(embedder.embed("a"), embedder, (), max_len=1)

    @pytest.mark.parametrize("vocab", [["a", "a", "b"], "ab", ["a b"], [""], ["", "a"], [1]])
    def test_vocabulary_refused_like_attack_config_before_any_query(self, embedder, vocab):
        target = embedder.embed("a b")
        before = embedder.queries_used()
        with pytest.raises(ConfigError) as from_oracle:
            exhaustive_oracle(target, embedder, vocab, max_len=2)
        assert embedder.queries_used() == before
        with pytest.raises(ConfigError) as from_config:
            AttackConfig(vocab=vocab)
        assert str(from_oracle.value) == str(from_config.value)

    def test_lexicographic_tie_break(self, constant_embedder):
        # all candidates score identically; the empty string wins ties
        target = constant_embedder.embed("x")
        oracle = exhaustive_oracle(target, constant_embedder, ("a", "b"), max_len=1)
        assert oracle.text == ""


class TestEditMutationGenerator:
    def test_respects_vocab_and_max_tokens(self):
        gen = EditMutationGenerator(("a", "b"), max_tokens=2, seed=0)
        hyp = Hypothesis("a b", 0.0, 1)
        for text in gen.propose(hyp, 50):
            tokens = text.split()
            assert len(tokens) <= 2
            assert all(t in ("a", "b") for t in tokens)

    @settings(max_examples=200, deadline=None)
    @given(
        vocab=st.lists(st.text("ab!\x01\u00e9", min_size=1, max_size=3), min_size=1,
                       max_size=8, unique=True),
        # Indices into the vocabulary, or tokens that may fall outside it.
        picks=st.lists(st.integers(0, 7) | st.text("abz!", min_size=1, max_size=2), max_size=6),
        max_tokens=st.integers(1, 6),
        at_limit=st.booleans(),
        seed=st.integers(0, 1000),
        step=st.integers(0, 60),
        widths=st.lists(st.integers(0, 80), min_size=2, max_size=2),
    )
    @example(vocab=["a", "b", "c"], picks=[0, 2], max_tokens=4, at_limit=False, seed=3, step=2,
             widths=[4, 8])
    @example(vocab=["a", "b"], picks=[], max_tokens=1, at_limit=False, seed=0, step=0,
             widths=[1, 2])
    @example(vocab=["a", "b"], picks=[0, 1], max_tokens=2, at_limit=True, seed=0, step=1,
             widths=[1, 100])
    def test_deterministic_and_nested(self, vocab, picks, max_tokens, at_limit, seed, step, widths):
        """The contract ``_SharedProposals`` relies on: for k <= K,
        ``propose(h, k) == propose(h, K)[:k]``, whatever the score; a text at
        its token limit (``at_limit``) allows no insertion."""
        tokens = [vocab[p % len(vocab)] if isinstance(p, int) else p for p in picks][:max_tokens]
        if at_limit:
            max_tokens = max(len(tokens), 1)
        gen = EditMutationGenerator(vocab, max_tokens=max_tokens, seed=seed)
        k, wide = sorted(widths)
        hyp = Hypothesis(" ".join(tokens), 0.0, step)
        proposals = gen.propose(hyp, wide)
        assert gen.propose(hyp, k) == proposals[:k]
        assert gen.propose(Hypothesis(hyp.text, 0.75, step), wide) == proposals

    def test_never_proposes_input(self):
        gen = EditMutationGenerator(("a", "b"), max_tokens=3, seed=1)
        hyp = Hypothesis("a b", 0.0, 0)
        assert "a b" not in gen.propose(hyp, 100)

    def test_step_varies_proposals(self):
        gen = EditMutationGenerator(tuple("abcdef"), max_tokens=6, seed=1)
        h1 = Hypothesis("a b c", 0.0, 1)
        h2 = Hypothesis("a b c", 0.0, 2)
        assert gen.propose(h1, 4) != gen.propose(h2, 4)

    def test_includes_swaps(self):
        gen = EditMutationGenerator(("a", "b"), max_tokens=2, seed=0)
        hyp = Hypothesis("a b", 0.0, 0)
        assert "b a" in gen.propose(hyp, 100)

    def test_empty_text_proposes_insertions(self):
        gen = EditMutationGenerator(("a", "b"), max_tokens=2, seed=0)
        hyp = Hypothesis("", 0.0, 0)
        assert set(gen.propose(hyp, 10)) == {"a", "b"}

    @pytest.mark.parametrize(
        "vocab, message, max_tokens",
        [
            ((), "non-empty", 32),
            (("a", "a", "b"), "duplicate-free", 32),
            (("a b", "c"), "whitespace-free", 32),
            (("", "c"), "whitespace-free", 32),
            (("c", "a\tb"), "whitespace-free", 32),
            ((1,), "must be a string", 32),
            (("a", ["b"]), "must be a string", 32),
            ("ab", "not a string", 32),
            (("a", "b"), "max_tokens", 0),
            (("a", "b"), "max_tokens", -3),
        ],
    )
    def test_vocabulary_refused_like_attack_config(self, vocab, message, max_tokens):
        with pytest.raises(ConfigError, match=message) as from_config:
            AttackConfig(vocab=vocab, max_tokens=max_tokens)
        with pytest.raises(ConfigError, match=message) as from_generator:
            EditMutationGenerator(vocab, max_tokens=max_tokens)
        assert str(from_generator.value) == str(from_config.value)


def reference_propose(gen: EditMutationGenerator, hypothesis: Hypothesis, k: int) -> list[str]:
    """The plain formulation of ``EditMutationGenerator.propose``: every
    family built by re-joining token lists, then shuffled in full."""
    text = hypothesis.text
    tokens = text.split()
    swaps, inserts, substitutions = set(), set(), set()
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if tokens[i] != tokens[j]:
                swapped = list(tokens)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                swaps.add(" ".join(swapped))
    if len(tokens) < gen.max_tokens:
        for i in range(len(tokens) + 1):
            for v in gen.vocab:
                inserts.add(" ".join(tokens[:i] + [v] + tokens[i:]))
    for i, tok in enumerate(tokens):
        for v in gen.vocab:
            if v != tok:
                substitutions.add(" ".join(tokens[:i] + [v] + tokens[i + 1 :]))
    deletions = {" ".join(tokens[:i] + tokens[i + 1 :]) for i in range(len(tokens))}
    rng = derive_rng("mutate", gen.seed, text, hypothesis.step)
    shuffled = []
    for family in (swaps, inserts, substitutions, deletions):
        family.discard(text)
        family = sorted(family)
        order = rng.permutation(len(family)) if family else []
        shuffled.append([family[i] for i in order])
    out, seen, depth = [], set(), 0
    while len(out) < k and any(depth < len(f) for f in shuffled):
        for family in shuffled:
            if depth < len(family) and family[depth] not in seen:
                seen.add(family[depth])
                out.append(family[depth])
                if len(out) == k:
                    break
        depth += 1
    return out


# Tokens for the reference property: prefix chains ("a", "a!", "a\x01",
# "ab") and characters below the space make "v" and "v " sort differently.
PROPOSE_POOL = [
    "a", "b", "ab", "ba", "c", "aena", "\u00e9t\u00e9", "a\x01", "\x02", "a!",
    "a\x01b", "b!", "aa", "z", "~", "A", "0", "ab!", "b\x01", "\x7f", "\u00e9",
]
# Text tokens that may fall outside the vocabulary.
FOREIGN = ["x", "a\x01", "q!", "\x02\x02", "ab\x01", "\u00e9"]


class TestProposeMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(
        vocab=st.lists(st.sampled_from(PROPOSE_POOL), min_size=1, max_size=20, unique=True),
        runs=st.lists(
            st.tuples(st.integers(0, 19) | st.sampled_from(FOREIGN), st.integers(1, 3)),
            max_size=5,
        ),
        spacing=st.sampled_from([" ", "  ", "\t"]),
        max_tokens=st.none() | st.integers(1, 8),
        seed=st.integers(0, 1000),
        step=st.integers(0, 60),
        k=st.sampled_from([0, 1, 3, 8, 1000]),
    )
    @example(
        vocab=PROPOSE_POOL[:20],
        runs=[(0, 1), (3, 1), (7, 1), (9, 1), (12, 1), (19, 1)],
        spacing=" ",
        max_tokens=32,
        seed=19,
        step=4,
        k=8,
    )
    @example(
        vocab=["a", "a!", "a\x01"], runs=[(0, 3), ("x", 1)], spacing=" ",
        max_tokens=None, seed=0, step=0, k=1000,
    )
    def test_equal_output(self, vocab, runs, spacing, max_tokens, seed, step, k):
        """``runs`` repeats each token (an index into ``vocab`` or a foreign
        token) up to three times; ``max_tokens=None`` puts the text at its
        token limit, where no insertion is allowed."""
        tokens = [
            tok if isinstance(tok, str) else vocab[tok % len(vocab)]
            for tok, count in runs
            for _ in range(count)
        ]
        text = spacing.join(tokens)
        limit = max_tokens if max_tokens is not None else max(len(tokens), 1)
        gen = EditMutationGenerator(vocab, max_tokens=limit, seed=seed)
        hyp = Hypothesis(text, 0.0, step)
        assert gen.propose(hyp, k) == reference_propose(gen, hyp, k)
