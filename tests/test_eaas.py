import base64
import json
import socket
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.defenses import (
    DefenseConfig,
    apply_defense_stack,
    compute_group_means,
)
import invlab.eaas
from invlab.embeddings import NgramEmbedder
from invlab.eaas import (
    EaasClient,
    EaasError,
    EaasServer,
    RemoteEmbedder,
    _error_line,
    _request_lines,
    eaas_embed,
    eaas_serve,
)
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


def exchange(server, lines: list[str]) -> list[tuple[dict, bytes]]:
    """Send each line on one connection; the service must answer every one.
    Returns each reply's header and its body of exactly ``bytes`` bytes (none
    for an error), and checks that nothing follows the last reply."""
    host, port = server.address
    replies = []
    with socket.create_connection((host, port), timeout=10) as sock:
        reader = sock.makefile("rb")
        for line in lines:
            sock.sendall(line.encode("utf-8") + b"\n")
            head = reader.readline()
            assert head.endswith(b"\n"), "the service closed the connection"
            header = json.loads(head)
            body = reader.read(header["bytes"]) if "bytes" in header else b""
            assert len(body) == header.get("bytes", 0)
            replies.append((header, body))
        sock.shutdown(socket.SHUT_WR)
        assert reader.read() == b""
        reader.close()
    return replies


def raw_request(server, line: str) -> dict:
    """The header of the service's reply to ``line``."""
    return exchange(server, [line])[0][0]


def raw_rows(server, request: dict, dim: int = 32) -> tuple[dict, np.ndarray]:
    """The header and rows of the service's reply to ``request``."""
    [(header, body)] = exchange(server, [json.dumps(request)])
    return header, decode_rows(body, dim)


def encode_rows(rows) -> str:
    """Wire encoding of vectors, written out independently of invlab.eaas."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def decode_rows(body: bytes, dim: int) -> np.ndarray:
    """A reply body's rows, read independently of invlab.eaas."""
    return np.frombuffer(body, dtype="<f8").reshape(-1, dim)


def sent_lines(client, monkeypatch) -> list[str]:
    """Record every line the client sends."""
    lines: list[str] = []
    exchange_line = client._exchange

    def spy(line: str, count: int):
        lines.append(line)
        return exchange_line(line, count)

    monkeypatch.setattr(client, "_exchange", spy)
    return lines


class TestWireProtocol:
    def test_embed_increments_counter(self, server, client):
        embeddings, used = eaas_embed(client, ["hello"])
        assert embeddings.shape == (1, 32) and embeddings.dtype == np.float64
        assert used == 1
        _, used2 = eaas_embed(client, ["hello again"])
        assert used2 == 2

    def test_same_text_bitwise_identical_across_responses(self, client):
        first, _ = eaas_embed(client, ["stable"])
        second, _ = eaas_embed(client, ["stable"])
        assert first.tobytes() == second.tobytes()

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

    @pytest.mark.parametrize("rows", [1, 2, 10, 64])
    @pytest.mark.parametrize("dim", [2, 3, 32, 192])
    def test_success_line_equals_json_dumps(self, rows, dim):
        # A success reply is json.dumps of its header, a newline, then the
        # rows' raw bytes.
        embedder = NgramEmbedder(n=3, dim=dim, seed=17)
        texts = [f"text {i}" for i in range(rows)]
        with eaas_serve(NgramEmbedder(n=3, dim=dim, seed=17)) as srv:
            srv._bill = 2**40  # a bill past 32 bits
            host, port = srv.address
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall((json.dumps({"op": "embed", "texts": texts}) + "\n").encode())
                sock.shutdown(socket.SHUT_WR)
                reader = sock.makefile("rb")
                head, body = reader.readline(), reader.read()
                reader.close()
        header = {"dim": dim, "queries_used": 2**40 + rows, "bytes": rows * dim * 8}
        assert head == (json.dumps(header) + "\n").encode()
        assert body == embedder.embed_many(texts).astype("<f8").tobytes()

    @pytest.mark.parametrize("code", ["unknown_op", "bad_request", "unknown_lang"])
    def test_error_line_equals_json_dumps(self, code):
        assert _error_line(code) == (json.dumps({"error": code}) + "\n").encode()


class TestRequestLineLimit:
    LIMIT = 64

    @pytest.fixture
    def limited(self, server, monkeypatch):
        monkeypatch.setattr(invlab.eaas, "MAX_LINE_BYTES", self.LIMIT)
        return server

    def request_of(self, size: int) -> bytes:
        """A valid one-text request line of exactly ``size`` bytes."""
        head = b'{"op": "embed", "texts": ["x"]}'
        return head + b" " * (size - len(head) - 1) + b"\n"

    def test_line_at_limit_served(self, limited):
        line = self.request_of(self.LIMIT)
        reply = raw_request(limited, line.decode().rstrip("\n"))
        assert reply["queries_used"] == limited.queries_used() == 1

    @pytest.mark.parametrize("size", [LIMIT + 1, 4 * LIMIT])
    def test_over_long_line_refused_uncharged_and_closed(self, limited, size):
        host, port = limited.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(self.request_of(size))
            assert json.loads(reader.readline()) == {"error": "bad_request"}
            try:
                rest = reader.read()
            except ConnectionResetError:  # the unread rest of the line was dropped
                rest = b""
            assert rest == b""
            reader.close()
        assert limited.queries_used() == 0

    def test_client_splits_batch_past_limit(self, limited, client, monkeypatch):
        lines = sent_lines(client, monkeypatch)
        texts = [f"text {i}" + " pad" * (i % 4) for i in range(25)] + ["é\U0001F600\t"]
        remote, used = eaas_embed(client, texts)
        assert len(lines) > 1
        assert all(len(line.encode("utf-8")) <= self.LIMIT for line in lines)
        assert used == limited.queries_used() == len(texts)
        local = NgramEmbedder(n=3, dim=32, seed=17).embed_many(texts)
        assert remote.tobytes() == local.tobytes()

    def test_remote_embedder_splits_batch_past_limit(self, limited, client):
        texts = [f"sample {i}" for i in range(20)]
        remote = RemoteEmbedder(client, dim=32).embed_many(texts)
        local = NgramEmbedder(n=3, dim=32, seed=17).embed_many(texts)
        assert remote.tobytes() == local.tobytes()
        assert limited.queries_used() == len(texts)

    def test_client_split_keeps_defense_langs_and_context(self, server, client, monkeypatch):
        limit = 1024  # room for the defense and a 32-d group mean per line
        monkeypatch.setattr(invlab.eaas, "MAX_LINE_BYTES", limit)
        lines = sent_lines(client, monkeypatch)
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        texts = [f"sample number {i}" for i in range(60)]
        langs = ["en", "fr"] * 30
        means = compute_group_means(local_embedder.embed_many(texts), langs)
        defense = DefenseConfig(
            noise_lambda=0.05, noise_seed=3, masking={"en": 1.0, "fr": 2.0},
            language_agnostic=True,
        )
        remote, used = eaas_embed(client, texts, defense=defense, langs=langs, group_means=means)
        assert len(lines) > 1
        assert all(len(line.encode("utf-8")) <= limit for line in lines)
        assert used == server.queries_used() == len(texts)
        # Each row is masked with its own language's id, so langs kept their order.
        local = apply_defense_stack(local_embedder.embed_many(texts), langs, texts, defense, means)
        assert remote.tobytes() == local.tobytes()

    @pytest.mark.parametrize(
        "with_langs, max_texts",
        [(False, invlab.eaas.MAX_TEXTS), (True, invlab.eaas.MAX_TEXTS), (False, 4), (True, 4)],
        ids=["False", "True", "False-max-texts-4", "True-max-texts-4"],
    )
    def test_request_lines_are_full_and_within_limit(self, monkeypatch, with_langs, max_texts):
        monkeypatch.setattr(invlab.eaas, "MAX_TEXTS", max_texts)
        texts = ["a", 'quote " and \\', "line\nbreak", "é", "\U0001F600", "", "longer text here"] * 3
        langs = (["en", None, "fr"] * 7) if with_langs else None
        extra = {"defense": DefenseConfig(noise_lambda=0.5).to_dict()}

        def line_of(part: list[int]) -> str:
            payload = {"op": "embed", "texts": [texts[i] for i in part], **extra}
            if langs is not None:
                payload["langs"] = [langs[i] for i in part]
            return json.dumps(payload) + "\n"

        for limit in [*range(len(line_of([])), 400), 1 << 20]:  # the last fits every text
            monkeypatch.setattr(invlab.eaas, "MAX_LINE_BYTES", limit)
            alone = [len(line_of([i])) for i in range(len(texts))]
            if max(alone) > limit:
                with pytest.raises(ValueError, match="does not fit"):
                    _request_lines(texts, langs, extra)
                continue
            lines = _request_lines(texts, langs, extra)
            start = 0
            for line, count in lines:
                part = list(range(start, start + count))
                assert line == line_of(part) and len(line.encode("utf-8")) <= limit
                assert count <= max_texts
                start += count
                if start < len(texts):  # each line is as full as the limits allow
                    assert count == max_texts or len(line_of(part + [start])) > limit
            assert start == len(texts)

    def test_client_refuses_text_past_limit_before_sending(self, limited, client, monkeypatch):
        lines = sent_lines(client, monkeypatch)
        with pytest.raises(ValueError, match="does not fit"):
            eaas_embed(client, ["short", "x" * self.LIMIT])
        assert lines == []
        assert limited.queries_used() == 0


class TestTextsPerRequestLimit:
    def test_too_many_texts_refused_uncharged_and_still_serving(self, server, monkeypatch):
        monkeypatch.setattr(invlab.eaas, "MAX_TEXTS", 4)
        too_many = json.dumps({"op": "embed", "texts": ["a", "b", "c", "d", "e"]})
        at_limit = json.dumps({"op": "embed", "texts": ["a", "b", "c", "d"]})
        (refused, _), (served, _) = exchange(server, [too_many, at_limit])
        assert refused == {"error": "bad_request"}
        assert served["queries_used"] == server.queries_used() == 4

    def test_megabyte_of_empty_texts_refused_uncharged(self, server):
        head, tail = '{"op": "embed", "texts": [""', "]}"
        count = (invlab.eaas.MAX_LINE_BYTES - len(head) - len(tail) - 1) // 4
        line = head + ', ""' * count + tail
        assert count > invlab.eaas.MAX_TEXTS and len(line) < invlab.eaas.MAX_LINE_BYTES
        assert raw_request(server, line) == {"error": "bad_request"}
        assert server.queries_used() == 0


class TestIdleTimeout:
    def test_idle_connection_closed_quietly_and_service_still_serves(self, server, monkeypatch):
        monkeypatch.setattr(invlab.eaas, "IDLE_TIMEOUT_S", 0.2)
        errors = []
        monkeypatch.setattr(server, "handle_error", lambda *args: errors.append(args))
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as idle:
            assert idle.recv(1) == b""  # the service hung up on the idle client
        assert server.queries_used() == 0
        assert raw_request(server, json.dumps({"op": "embed", "texts": ["a"]}))["queries_used"] == 1
        assert errors == []  # no traceback from socketserver's handle_error


class TestLifecycle:
    def test_unstarted_server_leaves_its_with_block(self):
        # socketserver's shutdown() waits for a serve_forever that never ran.
        left = threading.Event()

        def use_unstarted():
            with EaasServer(NgramEmbedder(n=3, dim=32, seed=17)):
                pass
            left.set()

        thread = threading.Thread(target=use_unstarted, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert left.is_set()

    def test_stop_joins_serving_thread_and_closes_port(self):
        before = set(threading.enumerate())
        server = eaas_serve(NgramEmbedder(n=3, dim=32, seed=17))
        (serving,) = set(threading.enumerate()) - before
        assert raw_request(server, json.dumps({"op": "embed", "texts": ["a"]}))["queries_used"] == 1
        server.stop()
        assert not serving.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=1).close()


class TestNoChargeOnError:
    """An error response charges no queries: the service bills only the
    vectors it returns."""

    AGNOSTIC = DefenseConfig(language_agnostic=True).to_dict()
    EN_MEAN = {"en": encode_rows([[0.0] * 32])}

    def refused(self, server, request: dict) -> str:
        before = server.queries_used()
        response = raw_request(server, json.dumps({"op": "embed", **request}))
        assert set(response) == {"error"}
        assert server.queries_used() == before
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
        [
            # JSON lists and scalars: not a base64 string.
            [0.5], [0.0] * 31, [0.0] * 33, [[0.0] * 32], 0.5, ["x"] * 32,
            encode_rows([0.5]), encode_rows([0.0] * 31), encode_rows([0.0] * 33),
            encode_rows([[0.0] * 32] * 2), encode_rows([0.0] * 32)[:-4],
            encode_rows([0.0] * 32).replace("A", "*", 1), "",
        ],
        ids=["length-1", "short", "long", "matrix", "scalar", "strings",
             "b64-length-1", "b64-short", "b64-long", "b64-matrix", "b64-truncated",
             "b64-bad-alphabet", "b64-empty"],
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
            "context": {"group_means": {"en": encode_rows([mean])}},
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

    @pytest.mark.parametrize(
        "line",
        [
            '{"op": "embed", "texts": ["a"], "defense": {"noise_seed": 1e400}}',
            '{"op": "embed", "texts": ["a"], "defense": {"noise_seed": Infinity}}',
            '{"op": "embed", "texts": ["a"], "defense": {"noise_seed": -Infinity}}',
            '{"op": "embed", "texts": ["a"], "defense": {"noise_lambda": %s}}' % ("1" * 5000),
            '{"op": "embed", "texts": ["a"], "langs": ["en"], "defense": '
            '{"language_agnostic": true}, "context": {"group_means": {"en": [%s]}}}'
            % ("1" + "0" * 400),
            '{"op": "embed", "texts": ["a\\ud800"]}',
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["seed-1e400", "seed-inf", "seed-neg-inf", "digits", "mean-big-int", "surrogate",
             "nesting"],
    )
    def test_refused_and_still_serving(self, server, line):
        before = server.queries_used()
        (refused, _), (served, _) = exchange(server, [line, '{"op": "embed", "texts": ["a"]}'])
        assert refused == {"error": "bad_request"}
        assert served["queries_used"] == before + 1

    NOISE = DefenseConfig(noise_lambda=0.1, noise_seed=3).to_dict()

    @pytest.mark.parametrize(
        "context",
        [0, "", [], [1], "x", True, 1.5,
         {"group_means": []}, {"group_means": 0}, {"group_means": ""},
         {"group_means": [1]}, {"group_means": False}],
        ids=["zero", "empty-string", "empty-list", "list", "string", "true", "float",
             "means-empty-list", "means-zero", "means-empty-string", "means-list",
             "means-false"],
    )
    def test_malformed_context_refused(self, server, context):
        request = {"texts": ["a"], "defense": self.NOISE, "context": context}
        assert self.refused(server, request) == "bad_request"

    @pytest.mark.parametrize(
        "context",
        [0, "junk", {"group_means": 5}, {"group_means": {"en": "AAAA"}}],
        ids=["zero", "string", "means-number", "means-short-row"],
    )
    def test_malformed_context_refused_without_defense(self, server, context):
        # The context is checked even when no stack would read it.
        assert self.refused(server, {"texts": ["a"], "context": context}) == "bad_request"

    @pytest.mark.parametrize(
        "context",
        [{}, {"context": None}, {"context": {}}, {"context": {"group_means": None}},
         {"context": {"group_means": {}}}],
        ids=["absent", "null", "empty", "means-null", "means-empty"],
    )
    def test_empty_context_served(self, server, context):
        request = {"op": "embed", "texts": ["a", "b"], "defense": self.NOISE, **context}
        response, rows = raw_rows(server, request)
        local = apply_defense_stack(
            NgramEmbedder(n=3, dim=32, seed=17).embed_many(["a", "b"]), [None, None], ["a", "b"],
            DefenseConfig.from_dict(self.NOISE),
        )
        assert rows.tobytes() == local.tobytes()
        assert response["queries_used"] == server.queries_used() == 2

    def test_valid_request_still_charges_every_text(self, server):
        request = {
            "texts": ["a", "b", "c"],
            "langs": ["en", "en", "en"],
            "defense": self.AGNOSTIC,
            "context": {"group_means": self.EN_MEAN},
        }
        response, rows = raw_rows(server, {"op": "embed", **request})
        assert rows.shape == (3, 32)
        assert response["queries_used"] == server.queries_used() == 3

    # A noise level near the float maximum overflows the vectors of some
    # texts and not others: each text's noise stream decides.
    OVERFLOWING = {"noise_lambda": 1e308}

    def test_overflowing_noise_refused_uncharged(self, server):
        request = {"texts": ["a"], "defense": {**self.OVERFLOWING, "noise_seed": 40}}
        assert self.refused(server, request) == "bad_request"

    def test_overflowing_norm_refused_uncharged(self, server):
        # Finite noised rows whose norm overflows under renormalize_after
        # are refused, not released as zero vectors.
        defense = {"noise_lambda": 1e200, "noise_seed": 1, "renormalize_after": True}
        assert self.refused(server, {"texts": ["a", "b"], "defense": defense}) == "bad_request"

    def test_unknown_lang_on_later_row_reported_before_overflow(self, server):
        # Row 0's noise overflows as above, but every row's language is
        # checked before any arithmetic: row 1 has no masking id.
        defense = {**self.OVERFLOWING, "noise_seed": 40, "masking": {"en": 1.0}}
        request = {"texts": ["a", "b"], "langs": ["en", "de"], "defense": defense}
        assert self.refused(server, request) == "unknown_lang"

    def test_finite_noise_near_float_max_served_as_locally(self, server):
        defense = DefenseConfig(**self.OVERFLOWING, noise_seed=1)
        response, rows = raw_rows(
            server, {"op": "embed", "texts": ["a"], "defense": defense.to_dict()}
        )
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        local = apply_defense_stack(local_embedder.embed_many(["a"]), [None], ["a"], defense)
        assert rows.tobytes() == local.tobytes()
        assert response["queries_used"] == server.queries_used() == 1


def refuse_reply(
    reply: bytes,
    texts: list[str],
    error: type = ValueError,
    hang_up: bool = False,
    header_refused: bool = True,
) -> None:
    """Answer one request with the raw bytes ``reply``; ``eaas_embed`` must
    raise exactly ``error``. Unless ``hang_up``, the stand-in service then
    sends nothing more and waits for the client to hang up, which a
    ``ValueError`` for a ``header_refused`` must make it do at once."""
    listener = socket.create_server(("127.0.0.1", 0))

    def reply_once():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10)
            reader = conn.makefile("rb")
            reader.readline()
            conn.sendall(reply)
            if not hang_up:
                try:
                    reader.read()  # until the client hangs up
                except ConnectionResetError:  # it left part of the reply unread
                    pass
            reader.close()

    thread = threading.Thread(target=reply_once, daemon=True)
    thread.start()
    try:
        with EaasClient(*listener.getsockname()[:2], timeout=10) as client:
            with pytest.raises(error) as err:
                eaas_embed(client, texts)
            assert type(err.value) is error
            if error is ValueError and header_refused:
                # The client hung up without reading on.
                thread.join(timeout=10)
                assert not thread.is_alive()
                assert client._sock.fileno() == -1
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def header(**fields) -> bytes:
    return (json.dumps(fields) + "\n").encode()


class TestMalformedResponse:
    """The client checks a reply's header before reading any body: the
    stand-in service below sends a header and no body, so a client that read
    on would wait for its timeout instead of raising ValueError."""

    @pytest.mark.parametrize(
        "size", [8, 24, 0, -16, "16", 16.0, True, None],
        ids=["short", "long", "zero", "negative", "string", "float", "true", "null"],
    )
    def test_client_refuses_bad_bytes(self, size):
        refuse_reply(header(dim=2, queries_used=1, bytes=size), ["x"])

    def test_client_refuses_missing_bytes(self):
        refuse_reply(header(dim=2, queries_used=1), ["x"])

    @pytest.mark.parametrize(
        "embeddings",
        [
            # Vectors inside the header, as nested lists or base64, are not
            # the wire format: such a reply has no byte count.
            "[[1.0, NaN]]", "[[1.0, Infinity]]", "[[1.0]]", "[1.0, 2.0]", "[[1.0, 2.0], [3.0]]",
            pytest.param(json.dumps(encode_rows([[1.0, float("nan")]])), id="nan-bits"),
            pytest.param(json.dumps(encode_rows([[1.0, float("inf")]])), id="inf-bits"),
            pytest.param(json.dumps(encode_rows([1.0])), id="short-buffer"),
            pytest.param(json.dumps(encode_rows([[1.0, 2.0]] * 2)), id="long-buffer"),
            pytest.param(json.dumps(encode_rows([[1.0, 2.0]]).replace("A", "*", 1)), id="bad-alphabet"),
            pytest.param(json.dumps("\u00e9" * 12), id="non-ascii"),
            pytest.param("12", id="not-a-string"),
            pytest.param("null", id="missing"),
        ],
    )
    def test_client_refuses(self, embeddings):
        head = f'{{"embeddings": {embeddings}, "dim": 2, "queries_used": 1}}\n'
        refuse_reply(head.encode(), ["x"])

    def test_client_refuses_fewer_rows_than_texts(self):
        # A well-formed header for one row, answering two texts.
        refuse_reply(header(dim=2, queries_used=2, bytes=16), ["x", "y"])

    @pytest.mark.parametrize("dim", ["1", "0", "-2", "2.0", '"2"', "true", "null"])
    def test_client_refuses_bad_dim(self, dim):
        refuse_reply(f'{{"dim": {dim}, "queries_used": 1, "bytes": 16}}\n'.encode(), ["x"])

    @pytest.mark.parametrize("used", [1.0, "1", True, None])
    def test_client_refuses_bad_queries_used(self, used):
        refuse_reply(header(dim=2, queries_used=used, bytes=16), ["x"])

    def test_client_refuses_non_object_reply(self):
        refuse_reply(b"[1, 2]\n", ["x"])

    @pytest.mark.parametrize(
        "head", [b"not json\n", b"\xff\n", b"[" * 100_000 + b"\n"],
        ids=["not-json", "not-utf8", "nesting"],
    )
    def test_client_refuses_header_not_json(self, head):
        refuse_reply(head, ["x"])

    def test_client_refuses_header_past_line_limit(self, monkeypatch):
        monkeypatch.setattr(invlab.eaas, "MAX_LINE_BYTES", 64)
        head = header(dim=2, queries_used=1, bytes=16)
        refuse_reply(head[:-2] + b" " * (65 - len(head)) + b"}\n", ["x"])

    def test_client_reads_header_at_line_limit(self, monkeypatch):
        monkeypatch.setattr(invlab.eaas, "MAX_LINE_BYTES", 64)
        head = header(dim=2, queries_used=1, bytes=16)
        head = head[:-2] + b" " * (64 - len(head)) + b"}\n"
        body = np.array([[1.0, float("nan")]], dtype="<f8").tobytes()
        # Past the header check: the body is read, and refused for its NaN.
        refuse_reply(head + body, ["x"], header_refused=False)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_client_refuses_non_finite_body(self, bad):
        body = np.array([[1.0, bad]], dtype="<f8").tobytes()
        refuse_reply(header(dim=2, queries_used=1, bytes=16) + body, ["x"], header_refused=False)

    @pytest.mark.parametrize(
        "reply",
        [b"", b'{"dim": 2, "queries_used": 1, "bytes": 16}',
         header(dim=2, queries_used=1, bytes=16),
         header(dim=2, queries_used=1, bytes=16) + b"\0" * 15,
         # Past any buffer the client could allocate up front.
         header(dim=2**61, queries_used=1, bytes=2**64)],
        ids=["nothing", "header-cut", "no-body", "body-cut", "huge-body-claimed"],
    )
    def test_client_raises_connection_error_on_cut_reply(self, reply):
        refuse_reply(reply, ["x"], error=ConnectionError, hang_up=True)

    def test_connection_closed_after_refused_header(self):
        # The next request on the same client fails rather than read the
        # unread body as its reply.
        listener = socket.create_server(("127.0.0.1", 0))

        def reply_twice():
            conn, _ = listener.accept()
            with conn:
                reader = conn.makefile("rb")
                reader.readline()
                conn.sendall(header(dim=2, queries_used=1, bytes=8) + b"\0" * 8)
                reader.close()

        thread = threading.Thread(target=reply_twice, daemon=True)
        thread.start()
        try:
            with EaasClient(*listener.getsockname()[:2], timeout=10) as client:
                with pytest.raises(ValueError):
                    eaas_embed(client, ["x"])
                with pytest.raises(OSError):
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
            local_embedder.embed_many(["secret text"]), [None], ["secret text"], defense
        )
        assert remote.tobytes() == local.tobytes()

    def test_masking_defense_matches_local_stack(self, client):
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        defense = DefenseConfig(masking={"en": 1.0, "fr": 2.0})
        remote, _ = eaas_embed(client, ["bonjour"], defense=defense, langs=["fr"])
        local = apply_defense_stack(
            local_embedder.embed_many(["bonjour"]), ["fr"], ["bonjour"], defense
        )
        assert remote.tobytes() == local.tobytes()

    def test_agnostic_defense_with_context_matches_local(self, client):
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        texts = ["one sample", "two sample", "three sample"]
        means = compute_group_means(local_embedder.embed_many(texts), ["en"] * 3)
        defense = DefenseConfig(language_agnostic=True)
        remote, _ = eaas_embed(
            client, texts, defense=defense, langs=["en"] * 3, group_means=means
        )
        local = apply_defense_stack(
            local_embedder.embed_many(texts), ["en"] * 3, texts, defense, means
        )
        assert remote.tobytes() == local.tobytes()

    @pytest.mark.parametrize("langs", [[None, None], [None, "null"]], ids=["none", "none_and_null"])
    def test_non_string_group_mean_key_refused_before_sending(
        self, server, client, monkeypatch, langs
    ):
        # JSON turns a None key into "null", so the service would miss an
        # untagged group's mean, or mix it up with a language named "null".
        local_embedder = NgramEmbedder(n=3, dim=32, seed=17)
        texts = ["one sample", "two sample"]
        means = compute_group_means(local_embedder.embed_many(texts), langs)
        defense = DefenseConfig(language_agnostic=True)
        local = apply_defense_stack(local_embedder.embed_many(texts), langs, texts, defense, means)
        assert local.shape == (2, 32)  # the local stack takes the None key
        lines = sent_lines(client, monkeypatch)
        with pytest.raises(ValueError, match="strings"):
            eaas_embed(client, texts, defense=defense, langs=langs, group_means=means)
        assert lines == [] and server.queries_used() == 0

    def test_defended_request_line_pinned(self, monkeypatch):
        """The exact line a defended request with group means sends: the
        means travel as ``"context": {"group_means": {lang: "<rows>"}}``."""
        srv = eaas_serve(NgramEmbedder(n=3, dim=4, seed=17))
        with srv, EaasClient(*srv.address) as client:
            lines = sent_lines(client, monkeypatch)
            defense = DefenseConfig(masking={"en": 1.0, "fr": 2.0}, language_agnostic=True)
            means = {"en": np.array([0.5, -1.0, 0.25, 2.0]), "fr": np.array([1.0, 0.0, -0.5, 3.0])}
            _, used = eaas_embed(
                client, ["a cat", "un chat"], defense=defense, langs=["en", "fr"], group_means=means
            )
        assert used == 2
        assert lines == [
            '{"op": "embed", "texts": ["a cat", "un chat"], "defense": {"noise_lambda": 0.0, '
            '"noise_seed": 0, "masking": {"en": 1.0, "fr": 2.0}, "language_agnostic": true, '
            '"renormalize_after": false}, "context": {"group_means": '
            '{"en": "AAAAAAAA4D8AAAAAAADwvwAAAAAAANA/AAAAAAAAAEA=", '
            '"fr": "AAAAAAAA8D8AAAAAAAAAAAAAAAAAAOC/AAAAAAAACEA="}}, "langs": ["en", "fr"]}\n'
        ]

    @pytest.mark.parametrize(
        "defense", [{}, None, {"noise_lambda": 0.0, "masking": None}], ids=["empty", "null", "off"]
    )
    def test_request_names_the_only_stack(self, server, defense):
        # The request's defense is the only stack: all-off or null gives raw vectors.
        request = {"op": "embed", "texts": ["secret text"], "defense": defense}
        _, rows = raw_rows(server, request)
        local = NgramEmbedder(n=3, dim=32, seed=17).embed("secret text")
        assert rows.tobytes() == local.tobytes()


class TestRemoteEmbedder:
    def test_matches_local_embedder_bitwise(self, client):
        local = NgramEmbedder(n=3, dim=32, seed=17)
        remote = RemoteEmbedder(client, dim=32)
        for text in ["", "a", "some longer text"]:
            assert remote.embed(text).tobytes() == local.embed(text).tobytes()

    def test_embed_many_matches_local_bitwise(self, client):
        texts = ["", "a", "some longer text", "é\U0001F600 x", "a"]
        remote = RemoteEmbedder(client, dim=32).embed_many(texts)
        local = NgramEmbedder(n=3, dim=32, seed=17).embed_many(texts)
        assert remote.shape == local.shape and remote.tobytes() == local.tobytes()

    def test_counts_own_queries(self, client):
        remote = RemoteEmbedder(client, dim=32)
        remote.embed("one")
        remote.embed_many(["two", "three"])
        assert remote.queries_used() == 3

    def test_refuses_reply_of_another_dimension(self, server, client):
        # The service embeds in 32 dimensions; a client built for 16 must not
        # hand 32-d rows to an attack on 16-d targets.
        remote = RemoteEmbedder(client, dim=16)
        with pytest.raises(ValueError, match="dimension 32, expected 16"):
            remote.embed_many(["a"])
        # The service billed the text, so the client counts it too.
        assert remote.queries_used() == server.queries_used() == 1
        assert RemoteEmbedder(client, dim=32).embed_many([]).shape == (0, 32)

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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose lost updates
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert server.queries_used() == server.embedder.queries_used() == 80


# Literal tokens that json.dumps cannot produce from a Python value; each
# sentinel string is replaced by its raw text after serialisation.
RAW_TOKENS = {
    "__1e400__": "1e400",
    "__-1e400__": "-1e400",
    "__digits__": "1" * 5000,
}
FUZZ_DIM = 8
FUZZ_EMBEDDER = {"n": 3, "dim": FUZZ_DIM, "seed": 17}
ERROR_CODES = {"unknown_op", "bad_request", "unknown_lang"}

numbers = (
    st.integers()
    | st.floats()
    | st.sampled_from([10**400, float("inf"), *RAW_TOKENS])
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6) | st.just("\ud800"),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
langs = st.sampled_from([None, "en", "fr", "xx"])
defenses = st.fixed_dictionaries(
    {},
    optional={
        "noise_lambda": numbers,
        "noise_seed": numbers,
        "masking": st.dictionaries(langs.filter(bool), numbers, max_size=3) | json_values,
        "language_agnostic": st.booleans() | json_values,
        "renormalize_after": st.booleans(),
    },
)
ROW_BYTES = FUZZ_DIM * 8


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


group_means = (
    st.binary(min_size=ROW_BYTES, max_size=ROW_BYTES).map(b64)  # any bits, NaN and Inf too
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=FUZZ_DIM,
               max_size=FUZZ_DIM).map(encode_rows)
    | st.binary(max_size=3 * ROW_BYTES).filter(lambda raw: len(raw) != ROW_BYTES).map(b64)
    | st.text(max_size=2 * ROW_BYTES)
    | st.lists(numbers, min_size=FUZZ_DIM, max_size=FUZZ_DIM)
    | json_values
)
contexts = st.fixed_dictionaries(
    {"group_means": st.dictionaries(langs.filter(bool), group_means, max_size=3)}
)
# Well-formed embed requests with junk in the defense, then requests with
# junk anywhere, then any JSON value at all.
request_bodies = (
    st.lists(st.text(max_size=8), min_size=1, max_size=4).flatmap(
        lambda texts: st.fixed_dictionaries(
            {"op": st.just("embed"), "texts": st.just(texts)},
            optional={
                "langs": st.lists(langs, min_size=len(texts), max_size=len(texts)),
                "defense": defenses,
                "context": contexts,
            },
        )
    )
    | st.fixed_dictionaries(
        {"op": st.just("embed") | json_values},
        optional={
            "texts": st.lists(st.text(max_size=8) | st.just("a\ud800"), min_size=1, max_size=4)
            | json_values,
            "langs": st.lists(langs, max_size=4) | json_values,
            "defense": defenses | json_values,
            "context": contexts | json_values,
        },
    )
    | json_values
)


def _to_line(body) -> str:
    line = json.dumps(body)
    for token, raw in RAW_TOKENS.items():
        line = line.replace(json.dumps(token), raw)
    return line


@pytest.fixture(scope="module")
def fuzz_server():
    server = eaas_serve(NgramEmbedder(**FUZZ_EMBEDDER))
    yield server
    server.stop()


class TestHandlerFuzz:
    """Arbitrary JSON bodies: every one gets a documented error line, or a
    header and exactly its ``bytes`` of body (``exchange`` checks that
    nothing follows), the handler never drops the connection, and an error
    response charges nothing."""

    @settings(max_examples=150, deadline=None)
    @given(body=request_bodies)
    def test_documented_response_and_no_charge_on_error(self, fuzz_server, body):
        line = _to_line(body)
        before = fuzz_server.queries_used()
        [(response, raw)] = exchange(fuzz_server, [line])
        after = fuzz_server.queries_used()
        if "error" in response:
            assert set(response) == {"error"}
            assert response["error"] in ERROR_CODES
            assert raw == b""
            assert after == before
        else:
            assert set(response) == {"dim", "queries_used", "bytes"}
            rows = decode_rows(raw, FUZZ_DIM)
            assert len(rows) == len(body["texts"]) == after - before
            assert response["bytes"] == len(rows) * FUZZ_DIM * 8
            assert np.isfinite(rows).all()
            assert response["dim"] == FUZZ_DIM
            assert response["queries_used"] == after
