import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invlab.defenses import (
    DefenseConfig,
    DefenseContext,
    UnknownLanguageError,
    apply_defense_stack,
    assign_language_ids,
    compute_group_means,
    derive_noise_rng,
    embed_many_with_defense,
    language_agnostic,
    mask_language,
    noise_insert,
)
from invlab.embeddings import ConfigError, Embedding, NgramEmbedder, cosine

vectors = st.lists(st.floats(-5, 5), min_size=2, max_size=12)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([10**400, "1" * 5000, "0.5", "inf"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
config_keys = st.sampled_from(
    ["noise_lambda", "noise_seed", "masking", "language_agnostic", "renormalize_after"]
)


def emb(*values, lang=None):
    return Embedding(np.array(values, dtype=float), lang=lang)


class TestNoiseInsert:
    def test_zero_lambda_is_identity(self):
        e = emb(0.3, -0.7, 2.0)
        assert noise_insert(e, 0.0, np.random.default_rng(0)) is e

    @settings(max_examples=40, deadline=None)
    @given(vectors)
    def test_zero_lambda_identity_property(self, values):
        e = Embedding(np.asarray(values))
        out = noise_insert(e, 0.0, np.random.default_rng(1))
        assert np.array_equal(out.values, e.values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            DefenseConfig,
            noise_lambda=st.floats(min_value=0, allow_infinity=False),
            noise_seed=st.integers(),
            masking=st.none()
            | st.dictionaries(
                st.text(max_size=4), st.floats(allow_nan=False, allow_infinity=False), max_size=4
            ).filter(lambda ids: len(set(ids.values())) == len(ids)),
            language_agnostic=st.booleans(),
            renormalize_after=st.booleans(),
        )
    )
    def test_round_trip_through_json(self, config):
        assert DefenseConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            noise_insert(emb(1.0, 1.0), -0.1, np.random.default_rng(0))

    def test_draws_reproducible_from_seed(self):
        # regenerate the stream independently with the same derivation
        e = Embedding(np.zeros(8))
        out = noise_insert(e, 1.0, derive_noise_rng(42, "sample-1"))
        digest = hashlib.blake2b(
            "\x1f".join(["noise", "42", "sample-1"]).encode(), digest_size=8
        ).digest()
        independent = np.random.default_rng(int.from_bytes(digest, "little"))
        assert np.array_equal(out.values, independent.standard_normal(8))

    def test_noise_is_unit_variance(self):
        # Monte Carlo: 10_000 draws, sample std close to 1
        dim = 10_000
        e = Embedding(np.zeros(dim))
        lam = 0.5
        out = noise_insert(e, lam, np.random.default_rng(7))
        assert np.std((out.values - e.values) / lam) == pytest.approx(1.0, abs=0.05)

    def test_lang_and_dim_preserved(self):
        e = emb(1.0, 2.0, lang="de")
        out = noise_insert(e, 0.1, np.random.default_rng(3))
        assert out.lang == "de"
        assert out.dim == 2


class TestAssignLanguageIds:
    def test_sorted_iterator_order(self):
        assert assign_language_ids({"de", "en", "es", "fr"}) == {
            "de": 1.0,
            "en": 2.0,
            "es": 3.0,
            "fr": 4.0,
        }

    def test_singleton(self):
        assert assign_language_ids({"en"}) == {"en": 1.0}

    def test_deterministic(self):
        langs = {"fr", "en", "de"}
        assert assign_language_ids(langs) == assign_language_ids(langs)

    def test_scale_override(self):
        assert assign_language_ids({"en", "fr"}, scale=0.05) == {"en": 0.05, "fr": 0.1}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assign_language_ids(set())


class TestMaskLanguage:
    def test_substitutes_first_dimension(self):
        out = mask_language(emb(0.9, 0.2, 0.4), 2.0)
        assert np.array_equal(out.values, [2.0, 0.2, 0.4])

    def test_fixed_point(self):
        e = emb(2.0, 0.2, 0.4)
        assert np.array_equal(mask_language(e, 2.0).values, e.values)

    def test_idempotent(self):
        e = emb(0.1, 0.2, 0.3)
        once = mask_language(e, 5.0)
        twice = mask_language(once, 5.0)
        assert np.array_equal(once.values, twice.values)

    def test_changes_exactly_one_component(self):
        e = emb(0.5, 0.6, 0.7)
        out = mask_language(e, 3.0)
        assert int(np.sum(out.values != e.values)) == 1
        unchanged = mask_language(e, 0.5)
        assert int(np.sum(unchanged.values != e.values)) == 0

    def test_input_not_mutated(self):
        e = emb(0.1, 0.2)
        mask_language(e, 9.0)
        assert e.values[0] == 0.1


class TestLanguageAgnostic:
    def test_single_member_group_becomes_zero(self):
        (out,) = language_agnostic([emb(3.0, -1.0, lang="en")])
        assert not out.values.any()

    def test_hand_derived_two_member_group(self):
        # mean [2, 1]; residuals [-1, -1] and [1, 1]
        outs = language_agnostic([emb(1.0, 0.0, lang="en"), emb(3.0, 2.0, lang="en")])
        assert np.array_equal(outs[0].values, [-1.0, -1.0])
        assert np.array_equal(outs[1].values, [1.0, 1.0])

    def test_group_sums_are_zero(self):
        rng = np.random.default_rng(5)
        batch = [Embedding(rng.normal(size=6), lang=lang) for lang in "en en fr fr fr".split()]
        outs = language_agnostic(batch)
        for lang in ("en", "fr"):
            group = np.sum([o.values for o in outs if o.lang == lang], axis=0)
            assert np.linalg.norm(group) < 1e-9

    def test_per_language_mean_norm_below_tolerance(self):
        rng = np.random.default_rng(6)
        batch = [Embedding(rng.normal(size=8), lang="xx") for _ in range(17)]
        means = compute_group_means(language_agnostic(batch))
        assert np.linalg.norm(means["xx"]) < 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            language_agnostic([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            language_agnostic([emb(1.0, 2.0), emb(1.0, 2.0, 3.0)])


class TestDefenseConfig:
    def test_serialization_round_trip(self):
        config = DefenseConfig(
            noise_lambda=0.01,
            noise_seed=99,
            masking={"en": 1.0, "fr": 2.0},
            language_agnostic=True,
            renormalize_after=True,
        )
        assert DefenseConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        config = DefenseConfig()
        assert DefenseConfig.from_dict(config.to_dict()) == config
        assert not config.enabled()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            DefenseConfig(noise_lambda=-1.0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            DefenseConfig(masking={"en": 1.0, "fr": 1.0})

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigError):
            DefenseConfig(noise_lambda=lam)
        with pytest.raises(ConfigError):
            DefenseConfig.from_dict({"noise_lambda": lam})

    @pytest.mark.parametrize("lang_id", [float("nan"), float("inf")])
    def test_non_finite_language_id_rejected(self, lang_id):
        with pytest.raises(ConfigError):
            DefenseConfig(masking={"en": 1.0, "fr": lang_id})

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(config_keys, json_values) | json_values)
    @example({"noise_seed": float("inf")})
    @example({"noise_lambda": 10**400})
    @example({"noise_seed": "1" * 5000})
    @example({"masking": [1.0]})
    @example({"masking": {"en": None}})
    @example([1.0])
    def test_from_dict_validates_or_raises_config_error(self, data):
        try:
            config = DefenseConfig.from_dict(data)
        except ConfigError:
            return
        assert type(config.noise_lambda) is float and type(config.noise_seed) is int
        assert config.masking is None or all(
            type(k) is str and type(v) is float for k, v in config.masking.items()
        )
        assert type(config.language_agnostic) is bool and type(config.renormalize_after) is bool
        assert DefenseConfig(**config.to_dict()) == config

    @pytest.mark.parametrize(
        "data",
        [
            {"language_agnostic": "false"},
            {"renormalize_after": 1},
            {"noise_seed": 1.7},
            {"noise_seed": True},
            {"noise_seed": "3"},
        ],
    )
    def test_non_json_boolean_or_integer_refused(self, data):
        with pytest.raises(ConfigError):
            DefenseConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"noise_lambda": "0.5"},
            {"noise_lambda": True},
            {"masking": {"en": "1.0"}},
            {"masking": {"en": False}},
            {"masking": {1: 1.0}},
        ],
    )
    def test_non_json_number_or_string_refused(self, data):
        with pytest.raises(ConfigError, match="must be a JSON"):
            DefenseConfig.from_dict(data)

    def test_json_integers_read_as_floats(self):
        config = DefenseConfig.from_dict({"noise_lambda": 1, "masking": {"en": 2, "fr": -1}})
        assert type(config.noise_lambda) is float and config.noise_lambda == 1.0
        assert config.masking == {"en": 2.0, "fr": -1.0}
        assert all(type(v) is float for v in config.masking.values())

    @pytest.mark.parametrize("data", [{"noise_lamda": 0.1}, {"masking": None, "mask": {"en": 1.0}}])
    def test_misspelt_key_refused(self, data):
        with pytest.raises(ConfigError, match="unknown"):
            DefenseConfig.from_dict(data)


class TestApplyDefenseStack:
    def test_all_disabled_is_identity(self):
        e = emb(0.4, 0.5, lang="en")
        assert apply_defense_stack(e, DefenseConfig(), key="k") is e

    def test_masking_only_equals_mask_language(self):
        e = emb(0.9, 0.1, lang="en")
        config = DefenseConfig(masking={"en": 2.0})
        out = apply_defense_stack(e, config)
        assert np.array_equal(out.values, mask_language(e, 2.0).values)

    def test_masking_overwrites_noised_dimension(self):
        e = emb(0.9, 0.1, lang="en")
        config = DefenseConfig(noise_lambda=1e-3, noise_seed=4, masking={"en": 2.0})
        out = apply_defense_stack(e, config, key="sample")
        assert out.values[0] == 2.0

    def test_deterministic_given_seeds(self):
        e = emb(0.3, 0.4, 0.5, lang="fr")
        config = DefenseConfig(noise_lambda=0.2, noise_seed=11, masking={"fr": 1.0})
        a = apply_defense_stack(e, config, key="s1")
        b = apply_defense_stack(e, config, key="s1")
        assert a.values.tobytes() == b.values.tobytes()

    def test_overflowing_noise_raises_value_error_without_warning(self):
        # A non-finite result is refused by Embedding's finite check alone;
        # the overflow itself must not also print a RuntimeWarning.
        e = emb(*[0.1] * 32)
        config = DefenseConfig(noise_lambda=1e308, noise_seed=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                apply_defense_stack(e, config, key="a")

    def test_unknown_language_rejected(self):
        config = DefenseConfig(masking={"en": 1.0})
        with pytest.raises(UnknownLanguageError):
            apply_defense_stack(emb(1.0, 2.0, lang="fr"), config)
        with pytest.raises(UnknownLanguageError):
            apply_defense_stack(emb(1.0, 2.0), config)

    def test_agnostic_requires_context_means(self):
        config = DefenseConfig(language_agnostic=True)
        with pytest.raises(ConfigError):
            apply_defense_stack(emb(1.0, 2.0, lang="en"), config)
        with pytest.raises(UnknownLanguageError):
            apply_defense_stack(
                emb(1.0, 2.0, lang="en"),
                config,
                DefenseContext({"fr": np.zeros(2)}),
            )

    def test_agnostic_wrong_length_mean_rejected(self):
        config = DefenseConfig(language_agnostic=True)
        context = DefenseContext({"en": np.array([0.5])})
        with pytest.raises(ValueError, match="shape"):
            apply_defense_stack(emb(1.0, 2.0, 3.0, lang="en"), config, context)

    def test_stage_order_agnostic_then_noise_then_mask(self):
        e = emb(1.0, 1.0, lang="en")
        context = DefenseContext({"en": np.array([0.5, 0.5])})
        config = DefenseConfig(
            noise_lambda=0.1, noise_seed=3, masking={"en": 7.0}, language_agnostic=True
        )
        out = apply_defense_stack(e, config, context, key="t")
        # dimension 0 is the mask id; dimension 1 is centered then noised
        rng = derive_noise_rng(3, "t")
        expected_1 = 0.5 + 0.1 * rng.standard_normal(2)[1]
        assert out.values[0] == 7.0
        assert out.values[1] == pytest.approx(expected_1, abs=1e-12)

    def test_renormalize_after(self):
        e = emb(3.0, 4.0, lang="en")
        config = DefenseConfig(masking={"en": 0.0}, renormalize_after=True)
        out = apply_defense_stack(e, config)
        assert np.linalg.norm(out.values) == pytest.approx(1.0, abs=1e-12)

    def test_none_config_is_identity(self):
        e = emb(1.0, 2.0)
        assert apply_defense_stack(e, None) is e


class TestMaskedNearestNeighborInvariance:
    def test_top1_preserved_when_margin_exceeds_bound(self):
        # unit-normalized text embeddings, one shared small id; any query whose
        # top-1/top-2 margin exceeds 2|id| + id^2 must keep its top-1
        embedder = NgramEmbedder(n=3, dim=64, seed=21)
        docs = [f"w{i} v{i * 7 % 13} u{i * 3 % 11}" for i in range(40)]
        doc_vecs = [embedder.embed(t) for t in docs]
        lang_id = 0.05
        bound = 2 * abs(lang_id) + lang_id**2
        checked = 0
        for qi in range(0, 40, 3):
            query = embedder.embed(docs[qi] + " extra")
            scores = sorted((cosine(query, d), i) for i, d in enumerate(doc_vecs))
            (s2, _), (s1, top1) = scores[-2], scores[-1]
            if s1 - s2 <= bound:
                continue
            checked += 1
            masked_query = mask_language(query, lang_id)
            masked_scores = [
                (cosine(masked_query, mask_language(d, lang_id)), i)
                for i, d in enumerate(doc_vecs)
            ]
            assert max(masked_scores)[1] == top1
        assert checked >= 5


class TestEmbedWithDefense:
    def test_tags_language_and_applies_stack(self):
        embedder = NgramEmbedder(n=2, dim=16, seed=0)
        config = DefenseConfig(masking={"it": 1.0})
        out = embed_many_with_defense(embedder, ["ciao"], ["it"], config)
        assert out.shape == (1, 16)
        assert out[0, 0] == 1.0  # masked with the id of the row's language

    def test_no_defense_returns_raw(self):
        embedder = NgramEmbedder(n=2, dim=16, seed=0)
        raw = embedder.embed("ciao")
        out = embed_many_with_defense(embedder, ["ciao"], ["it"], None)
        assert out.tobytes() == raw.values.tobytes()

    def test_untagged_rows_pass_through_unwrapped(self, monkeypatch):
        embedder = NgramEmbedder(n=2, dim=16, seed=0)
        rows = embedder.embed_many(["a", "b", "c"])
        monkeypatch.setattr(embedder, "embed_many", lambda texts: rows)
        out = embed_many_with_defense(embedder, ["a", "b", "c"], [None] * 3)
        assert out is rows
