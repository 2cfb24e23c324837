import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invlab.embeddings
from invlab.embeddings import (
    ConfigError,
    Embedding,
    NgramConfig,
    NgramEmbedder,
    cosine,
    embed_ngram,
)


class TestEmbeddingType:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Embedding(np.array([1.0, float("nan")]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Embedding(np.array([1.0, float("inf")]))

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValueError):
            Embedding(np.array([1.0]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            Embedding(np.zeros((2, 2)))

    def test_lang_tag_preserved(self):
        e = Embedding(np.array([1.0, 2.0]), lang="en")
        assert e.with_values(np.array([3.0, 4.0])).lang == "en"
        assert e.with_lang("fr").lang == "fr"

    @pytest.mark.parametrize("lang", [None, "en"])
    def test_unchanged_lang_tag_returns_self(self, lang):
        e = Embedding(np.array([1.0, 2.0]), lang=lang)
        assert e.with_lang(e.lang) is e

    def test_changed_lang_tag_is_new_object_over_same_values(self):
        e = Embedding(np.array([1.0, 2.0]))
        tagged = e.with_lang("en")
        assert tagged is not e and tagged.lang == "en" and e.lang is None
        assert tagged.values is e.values


class TestCosine:
    def test_identical_direction(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        # closed form: 1/sqrt(2) = 0.70710678...
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            math.sqrt(0.5), abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        assert cosine(np.zeros(3), np.zeros(3)) == 0.0

    def test_underflowing_norms_score_zero(self):
        # Each norm is positive, but their product underflows to 0.
        tiny = np.array([1e-170, 0.0, 1e-170])
        assert cosine(tiny, tiny) == 0.0
        assert cosine(np.stack([tiny, np.ones(3)]), tiny) == [0.0, 0.0]

    def test_accepts_embedding_objects(self):
        a = Embedding(np.array([1.0, 1.0]))
        assert cosine(a, a) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
    def test_self_similarity_is_one(self, values):
        vec = np.asarray(values)
        if np.linalg.norm(vec) == 0:
            return
        assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.floats(0.001, 1000),
    )
    def test_positive_scale_invariance(self, a, b, c):
        va, vb = np.asarray(a), np.asarray(b)
        assert cosine(c * va, vb) == pytest.approx(cosine(va, vb), abs=1e-9)


class TestEmbedNgram:
    def test_empty_text_is_zero_vector(self):
        e = embed_ngram("", NgramConfig(n=2, dim=16, seed=0))
        assert not e.values.any()

    def test_determinism_bitwise(self):
        config = NgramConfig(n=1, dim=64, seed=7)
        a = embed_ngram("ab", config)
        b = embed_ngram("ab", config)
        assert a.values.tobytes() == b.values.tobytes()

    def test_order_sensitivity(self):
        # bigram multisets of "ab" and "ba" differ, so the vectors must too
        config = NgramConfig(n=2, dim=256, seed=7)
        a = embed_ngram("ab", config)
        b = embed_ngram("ba", config)
        assert not np.array_equal(a.values, b.values)
        assert cosine(a, b) < 1.0

    def test_unit_norm(self):
        e = embed_ngram("hello", NgramConfig(n=3, dim=64, seed=0, unit_norm=True))
        assert np.linalg.norm(e.values) == pytest.approx(1.0, abs=1e-12)

    def test_no_unit_norm_counts(self):
        # "aa" with n=1: gram "a" twice lands in one slot with magnitude 2
        e = embed_ngram("aa", NgramConfig(n=1, dim=8, seed=3, unit_norm=False))
        assert sorted(np.abs(e.values))[-1] == 2.0

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            NgramConfig(n=0, dim=16)
        with pytest.raises(ConfigError):
            NgramConfig(n=2, dim=1)

    @settings(max_examples=40, deadline=None)
    @given(st.text(max_size=24))
    def test_purity(self, text):
        config = NgramConfig(n=3, dim=32, seed=13)
        assert embed_ngram(text, config).values.tobytes() == embed_ngram(
            text, config
        ).values.tobytes()

    def test_cross_process_determinism(self):
        config = NgramConfig(n=3, dim=64, seed=99)
        local = embed_ngram("der die das", config).values.tobytes().hex()
        script = (
            "from invlab.embeddings import NgramConfig, embed_ngram;"
            "print(embed_ngram('der die das', NgramConfig(n=3, dim=64, seed=99))"
            ".values.tobytes().hex())"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert remote == local


class TestNgramEmbedder:
    def test_query_counter_exact(self):
        embedder = NgramEmbedder(n=2, dim=16, seed=0)
        for _ in range(5):
            embedder.embed("x")
        assert embedder.queries_used() == 5

    def test_embed_many_counts_each(self):
        embedder = NgramEmbedder(n=2, dim=16, seed=0)
        embedder.embed_many(["a", "b", "c"])
        assert embedder.queries_used() == 3

    def test_counter_safe_under_concurrency(self):
        embedder = NgramEmbedder(n=2, dim=32, seed=1)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(embedder.embed, ["text"] * 400))
        assert embedder.queries_used() == 400

    def test_concurrent_embeds_deterministic(self):
        embedder = NgramEmbedder(n=3, dim=32, seed=1)
        reference = embedder.embed("parallel determinism").values.tobytes()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(embedder.embed, ["parallel determinism"] * 64))
        assert all(e.values.tobytes() == reference for e in results)

    def test_shared_dimension(self):
        embedder = NgramEmbedder(n=2, dim=24, seed=0)
        assert {embedder.embed(t).dim for t in ["a", "bb", ""]} == {24}
        assert embedder.dimension() == 24

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(ConfigError):
            NgramEmbedder(NgramConfig(), dim=8)


def reference_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The original formulation of ``cosine``: norms and clip through numpy."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


class TestCosineMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 24).flatmap(
            lambda d: st.tuples(
                st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
                st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d),
            )
        )
    )
    def test_bitwise_equal(self, pair):
        a, b = (np.asarray(v, dtype=np.float64) for v in pair)
        assert cosine(a, b) == reference_cosine(a, b)

    def test_random_and_embedded_pairs(self):
        rng = np.random.default_rng(3)
        for a, b in rng.standard_normal((2000, 2, 64)):
            assert cosine(a, b) == reference_cosine(a, b)
        embedder = NgramEmbedder(n=3, dim=64, seed=2)
        rows = embedder.embed_many(["abc", "abd", "a b c", "", "xyz xyz"])
        for x in rows:
            for y in rows:
                assert cosine(x, y) == reference_cosine(x, y)


# Rows of a block: Gaussian, embedder-like rows with small noise, and zeros.
block_rows = st.sampled_from(["random", "noisy", "zero"])


class TestBlockCosine:
    """``cosine(block, target)`` scores every row of a block at once."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 64),
        kinds=st.lists(block_rows, min_size=1, max_size=12),
        target_kind=block_rows,
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-9, 1e-3, 1.0]),
    )
    def test_rows_bitwise_equal_to_pairs(self, dim, kinds, target_kind, seed, scale):
        rng = np.random.default_rng(seed)
        embedder = NgramEmbedder(n=3, dim=dim, seed=seed)

        def row(kind: str) -> np.ndarray:
            if kind == "random":
                return rng.standard_normal(dim)
            if kind == "zero":
                return np.zeros(dim)
            text = "".join(rng.choice(list("ab c"), size=int(rng.integers(0, 9))))
            return embedder.embed(text).values + scale * rng.standard_normal(dim)

        block = np.stack([row(k) for k in kinds])
        target = row(target_kind)
        got = cosine(block, target)
        assert [x.hex() for x in got] == [cosine(r, target).hex() for r in block]
        assert got == [reference_cosine(r, target) for r in block]
        assert got == cosine(block, Embedding._trusted(target))

    def test_embedded_block_equals_pairs(self):
        embedder = NgramEmbedder(n=3, dim=64, seed=2)
        rows = embedder.embed_many(["abc", "abd", "a b c", "", "xyz xyz"])
        for target in rows:
            assert cosine(rows, target) == [reference_cosine(r, target) for r in rows]

    @pytest.mark.parametrize(
        "block, target",
        [
            (np.zeros((3, 4)), np.zeros(5)),
            (np.zeros((3, 4)), np.zeros((1, 4))),
            (np.zeros((2, 3, 4)), np.zeros(4)),
            (np.zeros((0, 4)), np.zeros(3)),
        ],
    )
    def test_dimension_mismatch(self, block, target):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine(block, target)

    def test_empty_block(self):
        assert cosine(np.zeros((0, 4)), np.ones(4)) == []


# Empty, whitespace-only, ASCII and non-ASCII texts, mixed in one batch.
batch_texts = st.lists(
    st.one_of(
        st.just(""),
        st.text(alphabet=" \t\n", max_size=6),
        st.text(alphabet="ab c", max_size=20),
        st.text(max_size=20),
    ),
    max_size=12,
)
configs = st.builds(
    NgramConfig,
    n=st.integers(1, 4),
    dim=st.sampled_from([2, 3, 16, 64]),
    seed=st.integers(0, 2**64),
    unit_norm=st.booleans(),
)


class TestEmbedManyMatchesReference:
    """``NgramEmbedder.embed_many`` is bytewise equal to ``embed_ngram``."""

    @settings(max_examples=300, deadline=None)
    @given(configs, batch_texts)
    def test_bytewise_equal_and_counted(self, config, texts):
        embedder = NgramEmbedder(config)
        embedder.embed("warm")
        before = embedder.queries_used()
        got = embedder.embed_many(texts)
        assert embedder.queries_used() == before + len(texts)
        assert got.shape == (len(texts), config.dim) and got.dtype == np.float64
        assert [row.tobytes() for row in got] == [
            embed_ngram(t, config).values.tobytes() for t in texts
        ]

    @pytest.mark.parametrize("unit_norm", [True, False])
    def test_all_empty_batch_is_float_zero(self, unit_norm):
        embedder = NgramEmbedder(n=2, dim=2, seed=1, unit_norm=unit_norm)
        got = embedder.embed_many(["", ""])
        assert got.shape == (2, 2) and got.dtype == np.float64
        assert not got.any()

    def test_empty_batch_charges_nothing(self):
        embedder = NgramEmbedder(n=2, dim=8, seed=1)
        got = embedder.embed_many([])
        assert got.shape == (0, 8) and got.dtype == np.float64
        assert embedder.queries_used() == 0

    def test_embed_is_a_batch_of_one(self):
        config = NgramConfig(n=3, dim=32, seed=4)
        embedder = NgramEmbedder(config)
        for text in ["", " ", "héllo wörld", "a a a"]:
            assert embedder.embed(text).values.tobytes() == embed_ngram(text, config).values.tobytes()
        assert embedder.queries_used() == 4

    def test_shared_slot_codes_under_thread_stress(self):
        # Threads share one embedder, so its chunk memo and gram -> code dict
        # fill from several threads at once; a lost or wrong code would
        # change a vector.
        embed_under_thread_stress(NgramEmbedder(NgramConfig(n=3, dim=32, seed=9)))

    def test_memo_reset_under_thread_stress(self, monkeypatch):
        # With a small cap the memo is replaced while other threads read it.
        monkeypatch.setattr(invlab.embeddings, "_MEMO_CAP", 64)
        embedder = NgramEmbedder(NgramConfig(n=3, dim=32, seed=9))
        first = embedder._chunks
        embed_under_thread_stress(embedder)
        assert embedder._chunks is not first


def embed_under_thread_stress(embedder: NgramEmbedder) -> None:
    """Eight threads embed eight batches through one embedder at a tiny
    switch interval; every vector must equal ``embed_ngram``."""
    batches = [[f"t{w} {i} é{w * i}" for i in range(40)] for w in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(embedder.embed_many, batches, timeout=60))
    finally:
        sys.setswitchinterval(old)
    assert embedder.queries_used() == 8 * 40
    for batch, got in zip(batches, results):
        assert [row.tobytes() for row in got] == [
            embed_ngram(t, embedder.config).values.tobytes() for t in batch
        ]
    assert_memo_bounded(embedder)


def assert_memo_bounded(embedder: NgramEmbedder) -> None:
    cap = invlab.embeddings._MEMO_CAP
    assert embedder._held == sum(map(len, embedder._chunks.values())) <= cap
    assert len(embedder._codes) <= cap
    assert len(embedder._chunks) <= cap + 1  # "" is the only key with no codes


# Pieces whose joins put spaces at the start, end and in runs, next to tabs,
# NUL and non-BMP characters, so one chunk recurs before many lookaheads.
memo_texts = st.lists(
    st.sampled_from([" ", "  ", "a", "ab", "ba", "\t", "\0", "é", "\U0001f600", "a b"]),
    max_size=10,
).map("".join)


class TestChunkMemo:
    """The chunk memo of ``NgramEmbedder`` against ``embed_ngram``."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 5),
        seed=st.integers(0, 2**64),
        batches=st.lists(st.lists(memo_texts, max_size=8), min_size=1, max_size=8),
    )
    def test_reused_embedder_bytewise_equal(self, n, seed, batches):
        config = NgramConfig(n=n, dim=16, seed=seed)
        embedder = NgramEmbedder(config)
        for texts in batches:
            got = embedder.embed_many(texts)
            assert [row.tobytes() for row in got] == [
                embed_ngram(t, config).values.tobytes() for t in texts
            ]

    def test_bounded_by_cap_and_reset_keeps_bits(self, monkeypatch):
        cap = 50
        monkeypatch.setattr(invlab.embeddings, "_MEMO_CAP", cap)
        config = NgramConfig(n=3, dim=16, seed=3)
        embedder = NgramEmbedder(config)
        texts = [f"w{i} x{i % 7} yz" for i in range(60)] + ["q" * 40, "", "a "]
        memos = [embedder._chunks]
        for _ in range(2):
            for i in range(0, len(texts), 3):
                batch = texts[i : i + 3]
                got = embedder.embed_many(batch)
                assert [row.tobytes() for row in got] == [
                    embed_ngram(t, config).values.tobytes() for t in batch
                ]
                assert_memo_bounded(embedder)
                if embedder._chunks is not memos[-1]:
                    memos.append(embedder._chunks)
        assert len(memos) > 2  # the memo was replaced more than once
        # A chunk with more codes than the cap is served but never kept.
        assert "q" * 40 not in embedder._chunks
