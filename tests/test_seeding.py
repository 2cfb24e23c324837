import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.seeding import default_rngs, derive_rng, stable_seed

seeds64 = st.integers(min_value=0, max_value=2**64 - 1)


def assert_same_stream(bulk: np.random.Generator, seed: int) -> None:
    alone = np.random.default_rng(seed)
    assert bulk.bit_generator.state == alone.bit_generator.state
    assert bulk.permutation(40).tolist() == alone.permutation(40).tolist()
    assert bulk.standard_normal(3).tobytes() == alone.standard_normal(3).tobytes()


class TestDefaultRngs:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_word_boundaries_match_default_rng(self, seed):
        # A seed below 2**32 is one 32-bit word to SeedSequence, a larger one two.
        (rng,) = default_rngs([seed])
        assert_same_stream(rng, seed)

    def test_batch_at_the_boundaries(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0]
        for rng, seed in zip(default_rngs(seeds), seeds, strict=True):
            assert_same_stream(rng, seed)

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(seeds64, min_size=1, max_size=200))
    def test_any_batch_matches_default_rng(self, seeds):
        rngs = list(default_rngs(seeds))
        assert len(rngs) == len(seeds)
        for rng, seed in zip(rngs, seeds):
            assert_same_stream(rng, seed)

    def test_generators_are_independent(self):
        # Drawing from one stream leaves the next one at its start.
        seeds = [stable_seed("a"), stable_seed("a"), stable_seed("b")]
        first, second, third = default_rngs(seeds)
        first.random(5)
        assert_same_stream(second, seeds[1])
        assert_same_stream(third, seeds[2])

    def test_labels_match_derive_rng(self):
        labels = [("mutate", 3, "a b", 2), ("noise", 0, "")]
        rngs = default_rngs([stable_seed(*parts) for parts in labels])
        for rng, parts in zip(rngs, labels):
            assert rng.bit_generator.state == derive_rng(*parts).bit_generator.state

    def test_empty_batch(self):
        assert list(default_rngs([])) == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(OverflowError):
            default_rngs([seed])
