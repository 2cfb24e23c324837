"""Simulated embeddings-as-a-service endpoint over TCP.

One JSON object per line in each direction, UTF-8. The server is the only
component holding the embedder; a client (or an attacker who obtained API
access) sees vectors and the cumulative query counter, nothing else.

Request:  {"op": "embed", "texts": [...], "defense": {...}?, "langs": [...]?,
           "context": {"group_means": {lang: [...]}}?}
Response: {"embeddings": [[...]], "dim": N, "queries_used": M}
Errors:   {"error": "unknown_op" | "bad_request" | "unknown_lang"}

``defense`` overrides the server's default stack for that request; ``langs``
tags each text for masking; ``context`` supplies per-language mean vectors
when the language-agnostic stage is enabled. The whole request is validated
before its texts are embedded in one batch, so an error response charges no
queries. Any op other than "embed" is refused: the service never helps the
attacker beyond embedding.
"""

import json
import socket
import socketserver
import threading
from typing import Sequence

from .defenses import (
    DefenseConfig,
    DefenseContext,
    UnknownLanguageError,
    apply_defense_stack,
)
from .embeddings import BlackBoxEmbedder, Embedding

import numpy as np


class EaasError(RuntimeError):
    """Error response received from the service."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


def _parse_context(data: dict | None) -> DefenseContext | None:
    if not data:
        return None
    means = data.get("group_means") or {}
    return DefenseContext({lang: np.asarray(vec, dtype=np.float64) for lang, vec in means.items()})


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            response = self._respond(line)
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()

    def _respond(self, line: bytes) -> dict:
        server: "EaasServer" = self.server.eaas  # type: ignore[attr-defined]
        try:
            request = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {"error": "bad_request"}
        if not isinstance(request, dict):
            return {"error": "bad_request"}
        if request.get("op") != "embed":
            return {"error": "unknown_op"}
        texts = request.get("texts")
        if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
            return {"error": "bad_request"}
        langs = request.get("langs")
        if langs is not None:
            if not isinstance(langs, list) or len(langs) != len(texts):
                return {"error": "bad_request"}
            if not all(l is None or isinstance(l, str) for l in langs):
                return {"error": "bad_request"}
        else:
            langs = [None] * len(texts)
        if "defense" in request and request["defense"] is not None:
            try:
                defense = DefenseConfig.from_dict(request["defense"])
                context = _parse_context(request.get("context"))
            except (ValueError, TypeError, AttributeError):
                return {"error": "bad_request"}
        else:
            defense = server.defense
            context = server.context
        dim = server.embedder.dimension()
        if defense is not None:
            # A dry run of the stack on a zero vector per language refuses,
            # before anything is embedded and charged, every request on which
            # the real run would fail: missing masking ids or group means,
            # group means of the wrong length or with non-finite values.
            try:
                for lang in dict.fromkeys(langs):
                    apply_defense_stack(Embedding(np.zeros(dim), lang), defense, context)
            except UnknownLanguageError:
                return {"error": "unknown_lang"}
            except ValueError:
                return {"error": "bad_request"}
        vectors = []
        try:
            for text, lang, e in zip(texts, langs, server.embedder.embed_many(texts)):
                e = e.with_lang(lang)
                if defense is not None:
                    e = apply_defense_stack(e, defense, context, key=text)
                vectors.append(e.values.tolist())
        except ValueError:
            # Validated above; only arithmetic overflow to a non-finite
            # vector lands here, after the texts were charged.
            return {"error": "bad_request"}
        return {
            "embeddings": vectors,
            "dim": dim,
            "queries_used": server.embedder.queries_used(),
        }


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class EaasServer:
    """Threaded line-oriented server wrapping one embedder instance."""

    def __init__(
        self,
        embedder: BlackBoxEmbedder,
        defense: DefenseConfig | None = None,
        context: DefenseContext | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.embedder = embedder
        self.defense = defense
        self.context = context
        self._server = _ThreadingServer((host, port), _Handler)
        self._server.eaas = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "EaasServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "EaasServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def eaas_serve(
    embedder: BlackBoxEmbedder,
    defense: DefenseConfig | None = None,
    context: DefenseContext | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> EaasServer:
    """Bind and start serving in a background thread; returns the server."""
    return EaasServer(embedder, defense, context, host=host, port=port).start()


class EaasClient:
    """Persistent line-oriented connection to the service."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def request(self, payload: dict) -> dict:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        with self._lock:
            self._sock.sendall(data)
            line = self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line.decode("utf-8"))

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "EaasClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def eaas_embed(
    client: EaasClient,
    texts: Sequence[str],
    defense: DefenseConfig | None = None,
    langs: Sequence[str | None] | None = None,
    context: DefenseContext | None = None,
) -> tuple[list[Embedding], int]:
    """Embed texts through the service; returns vectors and the service's
    cumulative query counter. Raises EaasError on an error response."""
    payload: dict = {"op": "embed", "texts": list(texts)}
    if defense is not None:
        payload["defense"] = defense.to_dict()
        if context is not None and context.group_means:
            payload["context"] = {
                "group_means": {
                    lang: vec.tolist() for lang, vec in context.group_means.items()
                }
            }
    if langs is not None:
        payload["langs"] = list(langs)
    response = client.request(payload)
    if "error" in response:
        raise EaasError(response["error"])
    # One conversion and one check for the whole response, not per vector.
    vectors = np.asarray(response["embeddings"], dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] < 2 or not np.isfinite(vectors).all():
        raise ValueError("service returned malformed embeddings")
    tags = langs if langs is not None else [None] * len(vectors)
    out = [Embedding._trusted(vec, lang) for vec, lang in zip(vectors, tags)]
    return out, int(response["queries_used"])


class RemoteEmbedder(BlackBoxEmbedder):
    """Client-side embedder: every embed call crosses the wire.

    ``queries_used`` counts this client's own requests so attack-side query
    accounting matches local runs; the service's global counter arrives in
    every response for end-to-end verification.
    """

    def __init__(
        self,
        client: EaasClient,
        dim: int,
        defense: DefenseConfig | None = None,
        lang: str | None = None,
    ):
        self._client = client
        self._dim = dim
        self._defense = defense
        self._lang = lang
        self._lock = threading.Lock()
        self._queries = 0
        self.last_server_count: int | None = None

    def embed(self, text: str) -> Embedding:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[Embedding]:
        if not texts:
            return []
        langs = [self._lang] * len(texts) if self._lang is not None else None
        embeddings, server_count = eaas_embed(
            self._client, texts, defense=self._defense, langs=langs
        )
        with self._lock:
            self._queries += len(texts)
            self.last_server_count = server_count
        return embeddings

    def dimension(self) -> int:
        return self._dim

    def queries_used(self) -> int:
        with self._lock:
            return self._queries
