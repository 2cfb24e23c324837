import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invlab.defenses import (
    DefenseConfig,
    UnknownLanguageError,
    apply_defense_stack,
    assign_language_ids,
    compute_group_means,
    derive_noise_rng,
)
from invlab.eaas import EaasClient, eaas_embed, eaas_serve
from invlab.embeddings import ConfigError, NgramEmbedder, cosine

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


def row(*values):
    """A one-row batch, read-only like a matrix decoded from the wire."""
    rows = np.array([values], dtype=float)
    rows.flags.writeable = False
    return rows


def stack(rows, config, means=None, lang=None, key=""):
    """The stack on a batch whose rows all share ``lang`` and ``key``."""
    return apply_defense_stack(rows, [lang] * len(rows), [key] * len(rows), config, means)


def mask(values, lang_id):
    """``values`` masked with ``lang_id`` by a masking-only stack."""
    return stack(row(*values), DefenseConfig(masking={"xx": lang_id}), lang="xx")[0]


# The per-embedding stack the batch stack replaced, kept as the reference
# every batch must match bit for bit. It carries each row as (values, lang);
# every stage returns ``checked(values)``, so a non-finite result raises
# ValueError as the per-embedding stack did.


def checked(values):
    """``values`` as float64 once checked to be one finite vector of
    dimension at least 2, as the per-embedding stack's value type was."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2 or not np.isfinite(values).all():
        raise ValueError("embedding components must be finite")
    return values


def reference_noise_insert(values, lam, rng):
    if lam < 0:
        raise ConfigError("noise scale must be non-negative")
    if lam == 0:
        return values
    with np.errstate(over="ignore"):  # checked refuses a non-finite result
        return checked(values + lam * rng.standard_normal(values.size))


def reference_mask_language(values, lang_id):
    if values.size < 2:
        raise ValueError("masking needs dimension >= 2")
    out = values.copy()
    out[0] = lang_id
    return checked(out)


def reference_stack_one(values, lang, config, means=None, key=""):
    out = checked(values)
    if config is None:
        return out
    if config.language_agnostic:
        if not means:
            raise ConfigError("language-agnostic stage needs group means in context")
        if lang not in means:
            raise UnknownLanguageError(f"no group mean for language {lang!r}")
        mean = means[lang]
        if np.shape(mean) != out.shape:
            raise ValueError(f"group mean shape {np.shape(mean)} != embedding shape {out.shape}")
        out = checked(out - mean)
    if config.noise_lambda > 0:
        rng = derive_noise_rng(config.noise_seed, key)
        out = reference_noise_insert(out, config.noise_lambda, rng)
    if config.masking is not None:
        if lang is None or lang not in config.masking:
            raise UnknownLanguageError(f"language {lang!r} has no masking id")
        out = reference_mask_language(out, config.masking[lang])
    if config.renormalize_after:
        norm = float(np.linalg.norm(out))
        if norm > 0.0:
            out = checked(out / norm)
    return out


def reference_stack(rows, langs, keys, config, means=None):
    defended = [
        reference_stack_one(r, lang, config, means, key=key)
        for r, lang, key in zip(rows, langs, keys)
    ]
    return np.array(defended, dtype=np.float64).reshape(rows.shape)


def agnostic(rows, langs):
    """The language-agnostic stage alone on ``rows``, centred by their own
    group means, as the drivers run it."""
    rows = np.asarray(rows, dtype=float)
    means = compute_group_means(rows, langs)
    config = DefenseConfig(language_agnostic=True)
    return apply_defense_stack(rows, langs, [""] * len(rows), config, means)


class TestNoiseInsert:
    def test_zero_lambda_is_identity(self):
        rows = row(0.3, -0.7, 2.0)
        assert stack(rows, DefenseConfig(noise_lambda=0.0, noise_seed=3), key="k") is rows

    @settings(max_examples=40, deadline=None)
    @given(vectors)
    def test_zero_lambda_identity_property(self, values):
        rows = row(*values)
        out = stack(rows, DefenseConfig(noise_lambda=0.0, noise_seed=1), key="k")
        assert np.array_equal(out, rows)

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
            DefenseConfig(noise_lambda=-0.1)

    def test_draws_reproducible_from_seed(self):
        # regenerate the stream independently with the same derivation
        out = stack(row(*[0.0] * 8), DefenseConfig(noise_lambda=1.0, noise_seed=42), key="sample-1")
        digest = hashlib.blake2b(
            "\x1f".join(["noise", "42", "sample-1"]).encode(), digest_size=8
        ).digest()
        independent = np.random.default_rng(int.from_bytes(digest, "little"))
        assert np.array_equal(out[0], independent.standard_normal(8))

    def test_batch_rows_equal_per_row_streams(self):
        # The stage seeds a batch's streams together; each row still gets
        # the bits of its own derive_noise_rng stream, repeated keys too.
        keys = [f"text {i}" for i in range(60)] + ["text 3", ""]
        config = DefenseConfig(noise_lambda=0.25, noise_seed=-5)
        rows = np.linspace(-1.0, 1.0, 6 * len(keys)).reshape(len(keys), 6)
        out = apply_defense_stack(rows, [None] * len(keys), keys, config)
        for got, raw, key in zip(out, rows, keys):
            noise = derive_noise_rng(-5, key).standard_normal(6)
            assert got.tobytes() == (raw + 0.25 * noise).tobytes()

    def test_noise_is_unit_variance(self):
        # Monte Carlo: 10_000 draws, sample std close to 1
        rows = row(*[0.0] * 10_000)
        lam = 0.5
        out = stack(rows, DefenseConfig(noise_lambda=lam, noise_seed=7), key="k")
        assert np.std((out - rows) / lam) == pytest.approx(1.0, abs=0.05)

    def test_lang_and_dim_preserved(self):
        # Each row keeps its own language through the noise stage: masking
        # after it still finds the row's id.
        config = DefenseConfig(noise_lambda=0.1, noise_seed=3, masking={"de": 5.0, "en": 6.0})
        out = apply_defense_stack(np.ones((2, 2)), ["de", "en"], ["a", "b"], config)
        assert out.shape == (2, 2)
        assert out[:, 0].tolist() == [5.0, 6.0]


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
        assert np.array_equal(mask([0.9, 0.2, 0.4], 2.0), [2.0, 0.2, 0.4])

    def test_fixed_point(self):
        assert np.array_equal(mask([2.0, 0.2, 0.4], 2.0), [2.0, 0.2, 0.4])

    def test_idempotent(self):
        once = mask([0.1, 0.2, 0.3], 5.0)
        assert np.array_equal(mask(once, 5.0), once)

    def test_changes_exactly_one_component(self):
        values = [0.5, 0.6, 0.7]
        assert int(np.sum(mask(values, 3.0) != values)) == 1
        assert int(np.sum(mask(values, 0.5) != values)) == 0

    def test_input_not_mutated(self):
        rows = np.array([[0.1, 0.2]])
        stack(rows, DefenseConfig(masking={"xx": 9.0}), lang="xx")
        assert rows[0, 0] == 0.1


class TestLanguageAgnostic:
    def test_single_member_group_becomes_zero(self):
        (out,) = agnostic([[3.0, -1.0]], ["en"])
        assert not out.any()

    def test_hand_derived_two_member_group(self):
        # mean [2, 1]; residuals [-1, -1] and [1, 1]
        out = agnostic([[1.0, 0.0], [3.0, 2.0]], ["en", "en"])
        assert np.array_equal(out, [[-1.0, -1.0], [1.0, 1.0]])

    def test_group_sums_are_zero(self):
        langs = "en en fr fr fr".split()
        out = agnostic(np.random.default_rng(5).normal(size=(5, 6)), langs)
        for lang in ("en", "fr"):
            group = out[[i for i, tag in enumerate(langs) if tag == lang]].sum(axis=0)
            assert np.linalg.norm(group) < 1e-9

    def test_per_language_mean_norm_below_tolerance(self):
        langs = ["xx"] * 17
        out = agnostic(np.random.default_rng(6).normal(size=(17, 8)), langs)
        assert np.linalg.norm(compute_group_means(out, langs)["xx"]) < 1e-9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            agnostic(np.zeros((0, 2)), [])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            compute_group_means([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])], [None, None])

    @pytest.mark.parametrize("rows, langs", [(np.zeros(2), [None]), (np.zeros((2, 2)), ["en"])])
    def test_rows_not_one_language_each_rejected(self, rows, langs):
        with pytest.raises(ValueError):
            compute_group_means(rows, langs)


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

    def test_renormalize_alone_is_enabled(self):
        assert DefenseConfig(renormalize_after=True).enabled()

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
        rows = row(0.4, 0.5)
        assert stack(rows, DefenseConfig(), lang="en", key="k") is rows

    def test_masking_only_equals_mask_language(self):
        config = DefenseConfig(masking={"en": 2.0})
        out = stack(row(0.9, 0.1), config, lang="en")
        assert out.tobytes() == reference_mask_language(np.array([0.9, 0.1]), 2.0).tobytes()

    def test_masking_overwrites_noised_dimension(self):
        config = DefenseConfig(noise_lambda=1e-3, noise_seed=4, masking={"en": 2.0})
        out = stack(row(0.9, 0.1), config, lang="en", key="sample")
        assert out[0, 0] == 2.0

    def test_deterministic_given_seeds(self):
        config = DefenseConfig(noise_lambda=0.2, noise_seed=11, masking={"fr": 1.0})
        a = stack(row(0.3, 0.4, 0.5), config, lang="fr", key="s1")
        b = stack(row(0.3, 0.4, 0.5), config, lang="fr", key="s1")
        assert a.tobytes() == b.tobytes()

    def test_overflowing_noise_raises_value_error_without_warning(self):
        # A non-finite result is refused by the stack's finite check alone;
        # the overflow itself must not also print a RuntimeWarning.
        config = DefenseConfig(noise_lambda=1e308, noise_seed=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                stack(row(*[0.1] * 32), config, key="a")

    def test_overflowing_norm_refused_not_zeroed(self):
        # Finite noised rows whose sum of squares overflows: renormalising
        # would release them as zero vectors, so the stack refuses them,
        # and without a RuntimeWarning.
        config = DefenseConfig(noise_lambda=1e200, noise_seed=1, renormalize_after=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                rows = NgramEmbedder(n=3, dim=8, seed=1).embed_many(["a", "b"])
                apply_defense_stack(rows, [None, None], ["a", "b"], config)

    def test_unknown_language_rejected(self):
        config = DefenseConfig(masking={"en": 1.0})
        with pytest.raises(UnknownLanguageError):
            stack(row(1.0, 2.0), config, lang="fr")
        with pytest.raises(UnknownLanguageError):
            stack(row(1.0, 2.0), config)

    def test_unknown_language_on_later_row_refused_before_overflow(self):
        # Every language is checked before any arithmetic: row 0's noise
        # overflows, but row 1's missing masking id is what is reported.
        config = DefenseConfig(noise_lambda=1e308, noise_seed=40, masking={"en": 1.0})
        rows = np.full((2, 32), 0.1)
        with pytest.raises(ValueError, match="finite"):
            apply_defense_stack(rows, ["en", "en"], ["a", "a"], config)
        with pytest.raises(UnknownLanguageError):
            apply_defense_stack(rows, ["en", "fr"], ["a", "a"], config)

    def test_agnostic_requires_context_means(self):
        config = DefenseConfig(language_agnostic=True)
        with pytest.raises(ConfigError):
            stack(row(1.0, 2.0), config, lang="en")
        with pytest.raises(UnknownLanguageError):
            stack(row(1.0, 2.0), config, {"fr": np.zeros(2)}, lang="en")

    def test_agnostic_wrong_length_mean_rejected(self):
        config = DefenseConfig(language_agnostic=True)
        with pytest.raises(ValueError, match="shape"):
            stack(row(1.0, 2.0, 3.0), config, {"en": np.array([0.5])}, lang="en")

    def test_stage_order_agnostic_then_noise_then_mask(self):
        means = {"en": np.array([0.5, 0.5])}
        config = DefenseConfig(
            noise_lambda=0.1, noise_seed=3, masking={"en": 7.0}, language_agnostic=True
        )
        out = stack(row(1.0, 1.0), config, means, lang="en", key="t")
        # dimension 0 is the mask id; dimension 1 is centered then noised
        rng = derive_noise_rng(3, "t")
        expected_1 = 0.5 + 0.1 * rng.standard_normal(2)[1]
        assert out[0, 0] == 7.0
        assert out[0, 1] == pytest.approx(expected_1, abs=1e-12)

    def test_renormalize_after(self):
        config = DefenseConfig(masking={"en": 0.0}, renormalize_after=True)
        out = stack(row(3.0, 4.0), config, lang="en")
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)

    def test_renormalize_keeps_zero_rows(self):
        out = stack(np.array([[0.0, 0.0], [3.0, 4.0]]), DefenseConfig(renormalize_after=True))
        assert out.tolist() == [[0.0, 0.0], [0.6, 0.8]]

    def test_none_config_is_identity(self):
        rows = row(1.0, 2.0)
        assert stack(rows, None) is rows


# Every subset of the four stages, each a config with only those stages on.
STAGE_SUBSETS = list(itertools.product([False, True], repeat=4))
LANG_POOLS = [["en"], ["en", "fr"], ["en", "fr", "de"], ["en", None]]


@st.composite
def defended_batches(draw, agnostic, noise, masking, renormalize):
    """A random batch of mixed-language rows with a config whose stages are
    the given subset. Now and then a language the batch uses has no group
    mean or masking id, or the group means have the wrong shape."""
    dim = draw(st.integers(2, 8))
    n = draw(st.integers(1, 6))
    values = st.floats(-5, 5, allow_subnormal=False)
    rows = np.array(draw(st.lists(st.lists(values, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    langs = draw(st.lists(st.sampled_from(draw(st.sampled_from(LANG_POOLS))), min_size=n, max_size=n))
    keys = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n))
    known = list(dict.fromkeys(langs))
    if draw(st.integers(0, 3)) == 0:
        known.remove(draw(st.sampled_from(known)))
    config = DefenseConfig(
        noise_lambda=draw(st.floats(1e-6, 100)) if noise else 0.0,
        noise_seed=draw(st.integers(0, 2**32)),
        masking={lang: float(i + 1) for i, lang in enumerate(known) if lang} if masking else None,
        language_agnostic=agnostic,
        renormalize_after=renormalize,
    )
    group_means = None
    if draw(st.booleans()):
        shape = dim if draw(st.integers(0, 9)) else dim + 1
        mean = st.lists(values, min_size=shape, max_size=shape).map(np.array)
        group_means = {lang: draw(mean) for lang in known}
    elif draw(st.integers(0, 9)):
        means = compute_group_means(rows, langs)
        group_means = {lang: means[lang] for lang in known}
    return rows, langs, keys, config, group_means


class TestStackMatchesReference:
    @pytest.mark.parametrize(
        "stages", STAGE_SUBSETS, ids=lambda s: "-".join(str(int(on)) for on in s)
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_bits_as_per_row_reference(self, stages, data):
        """Stages are (agnostic, noise, mask, renormalize). The batch stack
        gives every row the reference's bits, refuses exactly the batches
        the reference refuses, and never writes its read-only input."""
        rows, langs, keys, config, means = data.draw(defended_batches(*stages))
        rows.flags.writeable = False
        before = rows.tobytes()
        try:
            expected = reference_stack(rows, langs, keys, config, means)
        except ValueError:
            with pytest.raises(ValueError):
                apply_defense_stack(rows, langs, keys, config, means)
        else:
            got = apply_defense_stack(rows, langs, keys, config, means)
            assert got.shape == rows.shape and got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()
        assert rows.tobytes() == before


class TestMaskedNearestNeighborInvariance:
    def test_top1_preserved_when_margin_exceeds_bound(self):
        # unit-normalized text embeddings, one shared small id; any query whose
        # top-1/top-2 margin exceeds 2|id| + id^2 must keep its top-1
        embedder = NgramEmbedder(n=3, dim=64, seed=21)
        docs = [f"w{i} v{i * 7 % 13} u{i * 3 % 11}" for i in range(40)]
        doc_vecs = embedder.embed_many(docs)
        lang_id = 0.05
        masking = DefenseConfig(masking={"xx": lang_id})
        masked_docs = stack(doc_vecs, masking, lang="xx")
        bound = 2 * abs(lang_id) + lang_id**2
        checked = 0
        for qi in range(0, 40, 3):
            query = embedder.embed_many([docs[qi] + " extra"])
            scores = sorted(zip(cosine(doc_vecs, query[0]), range(40)))
            (s2, _), (s1, top1) = scores[-2], scores[-1]
            if s1 - s2 <= bound:
                continue
            checked += 1
            masked_query = stack(query, masking, lang="xx")[0]
            masked_scores = list(zip(cosine(masked_docs, masked_query), range(40)))
            assert max(masked_scores)[1] == top1
        assert checked >= 5


class TestEmbedWithDefense:
    """The service embeds a request's texts in one batch and runs the
    request's defense stack on it, each row tagged by its language and keyed
    by its text."""

    @staticmethod
    def serve(texts, **request):
        with eaas_serve(NgramEmbedder(n=2, dim=16, seed=0)) as server:
            with EaasClient(*server.address) as client:
                rows, _ = eaas_embed(client, texts, **request)
        return rows

    def test_tags_language_and_applies_stack(self):
        texts, langs = ["ciao", "hello"], ["it", "en"]
        config = DefenseConfig(noise_lambda=0.1, noise_seed=3, masking={"it": 1.0, "en": 2.0})
        out = self.serve(texts, defense=config, langs=langs)
        assert out.shape == (2, 16)
        assert out[:, 0].tolist() == [1.0, 2.0]  # masked with each row's language id
        raw = NgramEmbedder(n=2, dim=16, seed=0).embed_many(texts)
        assert out.tobytes() == apply_defense_stack(raw, langs, texts, config).tobytes()

    def test_no_defense_returns_raw(self):
        raw = NgramEmbedder(n=2, dim=16, seed=0).embed("ciao")
        assert self.serve(["ciao"], langs=["it"]).tobytes() == raw.tobytes()

    def test_untagged_rows_pass_through_unwrapped(self):
        raw = NgramEmbedder(n=2, dim=16, seed=0).embed_many(["a", "b", "c"])
        out = self.serve(["a", "b", "c"], defense=DefenseConfig())
        assert out.tobytes() == raw.tobytes()
