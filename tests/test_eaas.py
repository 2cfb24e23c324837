import json
import socket
import threading

import pytest

from invlab.defenses import (
    DefenseConfig,
    DefenseContext,
    apply_defense_stack,
    compute_group_means,
)
from invlab.embeddings import NgramEmbedder
from invlab.eaas import EaasClient, EaasError, RemoteEmbedder, eaas_embed, eaas_serve
from invlab.inversion import AttackConfig, EditMutationGenerator, invert


@pytest.fixture
def server():
    embedder = NgramEmbedder(n=3, dim=32, seed=17)
    srv = eaas_serve(embedder)
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    host, port = server.address
    with EaasClient(host, port) as c:
        yield c


def raw_request(server, line: str) -> dict:
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(line.encode("utf-8") + b"\n")
        reader = sock.makefile("rb")
        return json.loads(reader.readline())


class TestWireProtocol:
    def test_embed_increments_counter(self, server, client):
        embeddings, used = eaas_embed(client, ["hello"])
        assert len(embeddings) == 1
        assert embeddings[0].dim == 32
        assert used == 1
        _, used2 = eaas_embed(client, ["hello again"])
        assert used2 == 2

    def test_same_text_bitwise_identical_across_responses(self, client):
        first, _ = eaas_embed(client, ["stable"])
        second, _ = eaas_embed(client, ["stable"])
        assert first[0].values.tobytes() == second[0].values.tobytes()

    def test_unknown_op_refused(self, server):
        # the service never helps the attacker beyond embedding
        assert raw_request(server, json.dumps({"op": "invert", "texts": ["x"]})) == {
            "error": "unknown_op"
        }

    def test_malformed_json_refused(self, server):
        assert raw_request(server, "this is not json") == {"error": "bad_request"}

    def test_non_object_refused(self, server):
        assert raw_request(server, json.dumps(["embed"])) == {"error": "bad_request"}

    def test_empty_texts_refused(self, server):
        assert raw_request(server, json.dumps({"op": "embed", "texts": []})) == {
            "error": "bad_request"
        }

    def test_masking_without_lang_refused(self, server):
        request = {
            "op": "embed",
            "texts": ["x"],
            "defense": DefenseConfig(masking={"en": 1.0}).to_dict(),
        }
        assert raw_request(server, json.dumps(request)) == {"error": "unknown_lang"}

    def test_masking_with_unknown_lang_refused(self, server):
        request = {
            "op": "embed",
            "texts": ["x"],
            "langs": ["de"],
            "defense": DefenseConfig(masking={"en": 1.0}).to_dict(),
        }
        assert raw_request(server, json.dumps(request)) == {"error": "unknown_lang"}

    def test_mismatched_langs_length_refused(self, server):
        request = {"op": "embed", "texts": ["x", "y"], "langs": ["en"]}
        assert raw_request(server, json.dumps(request)) == {"error": "bad_request"}

    def test_eaas_embed_raises_on_error(self, client):
        with pytest.raises(EaasError) as err:
            eaas_embed(client, ["x"], defense=DefenseConfig(masking={"en": 1.0}))
        assert err.value.code == "unknown_lang"


class TestNoChargeOnError:
    """An error response charges no queries: the whole request is validated
    before any text is embedded."""

    AGNOSTIC = DefenseConfig(language_agnostic=True).to_dict()
    EN_MEAN = {"en": [0.0] * 32}

    def refused(self, server, request: dict) -> str:
        before = server.embedder.queries_used()
        response = raw_request(server, json.dumps({"op": "embed", **request}))
        assert set(response) == {"error"}
        assert server.embedder.queries_used() == before
        return response["error"]

    def test_agnostic_unknown_lang(self, server):
        request = {
            "texts": ["a", "b", "c"],
            "langs": ["xx", "en", "en"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": self.EN_MEAN},
        }
        assert self.refused(server, request) == "unknown_lang"

    def test_agnostic_unknown_lang_after_known(self, server):
        request = {
            "texts": ["a", "b", "c"],
            "langs": ["en", "en", "xx"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": self.EN_MEAN},
        }
        assert self.refused(server, request) == "unknown_lang"

    def test_agnostic_without_group_means(self, server):
        request = {"texts": ["a", "b"], "langs": ["en", "en"], "defense": self.AGNOSTIC}
        assert self.refused(server, request) == "bad_request"

    @pytest.mark.parametrize(
        "mean",
        [[0.5], [0.0] * 31, [0.0] * 33, [[0.0] * 32], 0.5, ["x"] * 32],
        ids=["length-1", "short", "long", "matrix", "scalar", "strings"],
    )
    def test_agnostic_wrong_shape_mean(self, server, mean):
        request = {
            "texts": ["a"],
            "langs": ["en"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": {"en": mean}},
        }
        assert self.refused(server, request) == "bad_request"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_agnostic_non_finite_mean(self, server, bad):
        mean = [0.0] * 32
        mean[3] = bad
        request = {
            "texts": ["a"],
            "langs": ["en"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": {"en": mean}},
        }
        assert self.refused(server, request) == "bad_request"

    def test_masking_missing_id(self, server):
        request = {
            "texts": ["a", "b"],
            "langs": ["en", "de"],
            "defense": DefenseConfig(masking={"en": 1.0}).to_dict(),
        }
        assert self.refused(server, request) == "unknown_lang"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_noise_lambda(self, server, bad):
        defense = DefenseConfig().to_dict()
        defense["noise_lambda"] = bad
        request = {"texts": ["a", "b"], "defense": defense}
        assert self.refused(server, request) == "bad_request"

    def test_non_finite_masking_id(self, server):
        request = {
            "texts": ["a"],
            "langs": ["en"],
            "defense": {"masking": {"en": float("nan")}},
        }
        assert self.refused(server, request) == "bad_request"

    def test_valid_request_still_charges_every_text(self, server):
        request = {
            "texts": ["a", "b", "c"],
            "langs": ["en", "en", "en"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": self.EN_MEAN},
        }
        response = raw_request(server, json.dumps({"op": "embed", **request}))
        assert len(response["embeddings"]) == 3
        assert response["queries_used"] == server.embedder.queries_used() == 3


class TestMalformedResponse:
    @pytest.mark.parametrize(
        "embeddings",
        ["[[1.0, NaN]]", "[[1.0, Infinity]]", "[[1.0]]", "[1.0, 2.0]", "[[1.0, 2.0], [3.0]]"],
    )
    def test_client_refuses(self, embeddings):
        listener = socket.create_server(("127.0.0.1", 0))

        def reply_once():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(
                    f'{{"embeddings": {embeddings}, "dim": 2, "queries_used": 1}}\n'.encode()
                )

        thread = threading.Thread(target=reply_once, daemon=True)
        thread.start()
        try:
            with EaasClient(*listener.getsockname()[:2]) as client:
                with pytest.raises(ValueError):
                    eaas_embed(client, ["x"])
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


class TestDefenseOverWire:
    def test_noise_defense_matches_local_stack(self, client):
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        defense = DefenseConfig(noise_lambda=0.05, noise_seed=123)
        remote, _ = eaas_embed(client, ["secret text"], defense=defense)
        local = apply_defense_stack(
            local_embedder.embed("secret text"), defense, key="secret text"
        )
        assert remote[0].values.tobytes() == local.values.tobytes()

    def test_masking_defense_matches_local_stack(self, client):
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        defense = DefenseConfig(masking={"en": 1.0, "fr": 2.0})
        remote, _ = eaas_embed(client, ["bonjour"], defense=defense, langs=["fr"])
        local = apply_defense_stack(
            local_embedder.embed("bonjour").with_lang("fr"), defense, key="bonjour"
        )
        assert remote[0].values.tobytes() == local.values.tobytes()

    def test_agnostic_defense_with_context_matches_local(self, client):
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        texts = ["one sample", "two sample", "three sample"]
        raws = [local_embedder.embed(t).with_lang("en") for t in texts]
        context = DefenseContext(compute_group_means(raws))
        defense = DefenseConfig(language_agnostic=True)
        remote, _ = eaas_embed(
            client, texts, defense=defense, langs=["en"] * 3, context=context
        )
        for raw, got, text in zip(raws, remote, texts):
            local = apply_defense_stack(raw, defense, context, key=text)
            assert got.values.tobytes() == local.values.tobytes()

    def test_server_side_default_defense(self):
        embedder = NgramEmbedder(n=3, dim=32, seed=17)
        defense = DefenseConfig(noise_lambda=0.01, noise_seed=5)
        server = eaas_serve(embedder, defense=defense)
        try:
            host, port = server.address
            with EaasClient(host, port) as client:
                remote, _ = eaas_embed(client, ["text"])
            local = apply_defense_stack(
                NgramEmbedder(n=3, dim=32, seed=17).embed("text"), defense, key="text"
            )
            assert remote[0].values.tobytes() == local.values.tobytes()
        finally:
            server.stop()


class TestRemoteEmbedder:
    def test_matches_local_embedder_bitwise(self, client):
        local = NgramEmbedder(n=3, dim=32, seed=17)
        remote = RemoteEmbedder(client, dim=32)
        for text in ["", "a", "some longer text"]:
            assert remote.embed(text).values.tobytes() == local.embed(text).values.tobytes()

    def test_counts_own_queries(self, client):
        remote = RemoteEmbedder(client, dim=32)
        remote.embed("one")
        remote.embed_many(["two", "three"])
        assert remote.queries_used() == 3

    def test_attack_through_wire_matches_local(self, client):
        local = NgramEmbedder(n=3, dim=32, seed=17)
        remote = RemoteEmbedder(client, dim=32)
        vocab = ("a", "b", "c")
        config = AttackConfig(vocab=vocab, steps=6, beam_width=4, max_tokens=3)
        target_local = local.embed("c a")
        target_remote = remote.embed("c a")
        res_local = invert(target_local, local, EditMutationGenerator(vocab, 3, seed=4), config)
        res_remote = invert(target_remote, remote, EditMutationGenerator(vocab, 3, seed=4), config)
        assert res_local.best.text == res_remote.best.text
        assert res_local.best.score == res_remote.best.score
        assert res_local.queries_used == res_remote.queries_used
        assert res_local.beam_history == res_remote.beam_history


class TestConcurrency:
    def test_concurrent_clients_count_everything(self, server):
        host, port = server.address

        def worker(n):
            with EaasClient(host, port) as c:
                for i in range(n):
                    eaas_embed(c, [f"text {i}"])

        threads = [threading.Thread(target=worker, args=(20,)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.embedder.queries_used() == 80
