"""Simulated embeddings-as-a-service endpoint over TCP.

One JSON object per line in each direction, UTF-8. The server is the only
component holding the embedder; a client (or an attacker who obtained API
access) sees vectors and the service's bill, nothing else.

Request:  {"op": "embed", "texts": [...], "defense": {...}?, "langs": [...]?,
           "context": {"group_means": {lang: "<rows>"}}?}
Response: {"embeddings": "<rows>", "dim": N, "queries_used": M}
Errors:   {"error": "unknown_op" | "bad_request" | "unknown_lang"}

Every vector travels as ``<rows>``: the standard base64 encoding (with
padding) of the little-endian float64 bytes of a row-major (n, dim) matrix.
A response carries one row per text, in request order; a group mean is one
row. Raw bytes round-trip every float64 exactly, so remote vectors are
bitwise equal to local ones.

``defense`` is the only stack the service applies, and none when it is
absent or null; ``langs`` tags each text for masking; ``context`` supplies
per-language mean vectors when the language-agnostic stage is enabled.
``queries_used`` is the bill: the vectors returned so far, this reply's
included; an error reply never charges. A language without a masking id or
group mean is ``unknown_lang``; a ``defense`` that ``DefenseConfig.from_dict``
refuses, a group mean that is not a base64 string of exactly ``dim * 8``
bytes or not finite, a defended vector that overflows to non-finite values
or, under ``renormalize_after``, whose norm overflows, and a request of more
than ``MAX_TEXTS`` (4096) texts are each a ``bad_request``. A malformed
request, ``defense`` or ``context`` is refused first, then an unknown
language on any row, then non-finite defended vectors: ``unknown_lang`` wins
over an overflow.
A request line longer than ``MAX_LINE_BYTES`` (1 MiB, newline included) is
a ``bad_request`` too, and the service then closes the connection without
reading the rest. ``eaas_embed`` splits a batch that would pass either
limit into several requests, in order, and refuses with ``ValueError``,
before sending anything, a text that cannot fit in a request of its own.
The client refuses, with ``ValueError``, a response whose rows are not a
base64 string of exactly ``len(texts) * dim * 8`` bytes, whose ``dim`` is
below 2, or whose components are not all finite; ``RemoteEmbedder`` also
refuses a ``dim`` other than its own. A batch stays one ``(n, dim)`` matrix:
the server encodes the one its embedder or defense stack returns, and
``eaas_embed`` returns the decoded one, rows unwrapped.
Any op other than "embed" is refused: the service never helps the attacker
beyond embedding.
"""

import base64
import json
import socket
import socketserver
import threading
from typing import Sequence

from .defenses import (
    DefenseConfig,
    DefenseContext,
    UnknownLanguageError,
    apply_defense_stack,  # unused here; benchmarks/tracing.py patches this name
    embed_many_with_defense,
)
from .embeddings import BlackBoxEmbedder

import numpy as np


class EaasError(RuntimeError):
    """Error response received from the service."""

    def __init__(self, code: str):
        super().__init__(code)
        self.code = code


_WIRE_DTYPE = np.dtype("<f8")

# Longest request line the service reads, newline included: 1 MiB, far above
# any request the drivers send.
MAX_LINE_BYTES = 1 << 20

# Most texts one request may carry, far above any batch the drivers send.
MAX_TEXTS = 4096

# Seconds a connection may wait between requests before the service hangs up,
# so an idle client cannot hold a handler thread for ever.
IDLE_TIMEOUT_S = 60.0


def _encode_rows(rows: np.ndarray) -> str:
    """Encode a (n, dim) float64 matrix, or one row, as wire ``<rows>``:
    base64 of its row-major little-endian bytes."""
    return base64.b64encode(np.asarray(rows, dtype=_WIRE_DTYPE).tobytes()).decode("ascii")


def _decode_rows(data: object, n: int, dim: int) -> np.ndarray:
    """Decode wire ``<rows>`` into a read-only (n, dim) float64 matrix.

    Raises ValueError unless ``data`` is a base64 string of exactly
    ``n * dim * 8`` bytes; finiteness is left to the caller.
    """
    if not isinstance(data, str):
        raise ValueError("vectors must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ValueError("vectors are not valid base64") from None
    if len(raw) != n * dim * _WIRE_DTYPE.itemsize:
        raise ValueError(f"expected {n} x {dim} float64 values, got {len(raw)} bytes")
    return np.frombuffer(raw, dtype=_WIRE_DTYPE).reshape(n, dim)


def _parse_context(data: object, dim: int) -> DefenseContext | None:
    """Decode a request's ``context``; ValueError on any malformed part."""
    if not data:
        return None
    if not isinstance(data, dict):
        raise ValueError("context must be an object")
    means = data.get("group_means") or {}
    if not isinstance(means, dict):
        raise ValueError("group_means must be an object")
    return DefenseContext({lang: _decode_rows(vec, 1, dim)[0] for lang, vec in means.items()})


def _error_line(code: str) -> str:
    """An error reply as one wire line."""
    return json.dumps({"error": code}) + "\n"


def _success_line(rows: str, dim: int, used: int) -> str:
    """A success reply as one wire line, byte-identical to ``json.dumps`` of
    the same dict. It is formatted directly: the base64 rows hold nothing to
    escape, and scanning them costs more than encoding them did."""
    return f'{{"embeddings": "{rows}", "dim": {dim:d}, "queries_used": {used:d}}}\n'


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True
    server: "EaasServer"

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup
        return IDLE_TIMEOUT_S

    def handle(self) -> None:
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                if len(raw) > MAX_LINE_BYTES:
                    # Nothing more is read from this connection: refuse, hang up.
                    self._send(_error_line("bad_request"))
                    return
                line = raw.strip()
                if line:
                    self._send(self._respond(line))
        except TimeoutError:
            pass  # idle past IDLE_TIMEOUT_S: hang up without a reply

    def _send(self, reply: str) -> None:
        self.wfile.write(reply.encode("utf-8"))
        self.wfile.flush()

    def _respond(self, line: bytes) -> str:
        try:
            request = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            # Also integers past the int-to-str digit limit and deep nesting.
            return _error_line("bad_request")
        if not isinstance(request, dict):
            return _error_line("bad_request")
        if request.get("op") != "embed":
            return _error_line("unknown_op")
        texts = request.get("texts")
        if not isinstance(texts, list) or not 0 < len(texts) <= MAX_TEXTS:
            return _error_line("bad_request")
        try:
            # Every text must be a string the embedder can hash; JSON escapes
            # can carry lone surrogates, which it cannot.
            "".join(texts).encode("utf-8")
        except (TypeError, UnicodeEncodeError):
            return _error_line("bad_request")
        langs = request.get("langs")
        if langs is not None:
            if not isinstance(langs, list) or len(langs) != len(texts):
                return _error_line("bad_request")
            if not all(l is None or isinstance(l, str) for l in langs):
                return _error_line("bad_request")
        else:
            langs = [None] * len(texts)
        dim = self.server.embedder.dimension()
        try:
            # The request's defense is the only stack applied.
            defense = context = None
            if request.get("defense") is not None:
                defense = DefenseConfig.from_dict(request["defense"])
                context = _parse_context(request.get("context"), dim)
            rows = embed_many_with_defense(self.server.embedder, texts, langs, defense, context)
        except UnknownLanguageError:
            return _error_line("unknown_lang")
        except ValueError:
            # A malformed defense or context, no group means at all,
            # non-finite ones, or a defended vector or norm that overflowed.
            return _error_line("bad_request")
        return _success_line(_encode_rows(rows), dim, self.server._charge(len(texts)))


class EaasServer(socketserver.ThreadingTCPServer):
    """Threaded line-oriented server wrapping one embedder instance."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, embedder: BlackBoxEmbedder, host: str = "127.0.0.1", port: int = 0):
        self.embedder = embedder
        self._serving: threading.Thread | None = None
        self._bill_lock = threading.Lock()
        self._bill = 0
        super().__init__((host, port), _Handler)

    def _charge(self, n: int) -> int:
        """Bill ``n`` returned vectors; returns the running total."""
        with self._bill_lock:
            self._bill += n
            return self._bill

    def queries_used(self) -> int:
        """The wire's bill: vectors returned, unlike ``embedder.queries_used``."""
        with self._bill_lock:
            return self._bill

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def start(self) -> "EaasServer":
        self._serving = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._serving.start()
        return self

    def stop(self) -> None:
        """Close the socket, first shutting down the thread ``start`` started."""
        if self._serving is not None:
            self.shutdown()
            self._serving.join(timeout=5)
            self._serving = None
        self.server_close()

    def __exit__(self, *exc) -> None:
        self.stop()


def eaas_serve(embedder: BlackBoxEmbedder, host: str = "127.0.0.1", port: int = 0) -> EaasServer:
    """Bind and start serving in a background thread; returns the server."""
    return EaasServer(embedder, host=host, port=port).start()


class EaasClient:
    """Persistent line-oriented connection to the service."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def _exchange(self, line: str) -> dict:
        """Send one wire line and read the reply line."""
        data = line.encode("utf-8")
        with self._lock:
            self._sock.sendall(data)
            line = self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        reply = json.loads(line.decode("utf-8"))
        if not isinstance(reply, dict):
            raise ValueError("service reply is not a JSON object")
        return reply

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "EaasClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _request_lines(texts: list[str], langs: list | None, extra: dict) -> list[tuple[str, int]]:
    """Embed request lines for ``texts``, in order, each within
    ``MAX_LINE_BYTES`` bytes and ``MAX_TEXTS`` texts; returns (line, count) pairs.

    Raises ValueError, before anything is sent, if one text (with its lang)
    cannot fit in a line of its own.
    """

    def line(lo: int, hi: int) -> str:
        payload = {"op": "embed", "texts": texts[lo:hi], **extra}
        if langs is not None:
            payload["langs"] = langs[lo:hi]
        # ensure_ascii: one byte per character.
        return json.dumps(payload) + "\n"

    if len(texts) <= MAX_TEXTS and len(whole := line(0, len(texts))) <= MAX_LINE_BYTES:
        return [(whole, len(texts))]
    # json.dumps joins list items with ", ", so a line is the empty request
    # plus each item's encoding and two bytes, less two bytes per list.
    lists = 1 if langs is None else 2
    room = MAX_LINE_BYTES - len(line(0, 0)) + 2 * lists
    cuts, used = [0], 0
    for i, text in enumerate(texts):
        cost = len(json.dumps(text)) + 2
        if langs is not None:
            cost += len(json.dumps(langs[i])) + 2
        if cost > room:
            raise ValueError(f"text {i} does not fit in a {MAX_LINE_BYTES}-byte request line")
        if used + cost > room or i - cuts[-1] == MAX_TEXTS:
            cuts.append(i)
            used = 0
        used += cost
    cuts.append(len(texts))
    return [(line(lo, hi), hi - lo) for lo, hi in zip(cuts, cuts[1:])]


def eaas_embed(
    client: EaasClient,
    texts: Sequence[str],
    defense: DefenseConfig | None = None,
    langs: Sequence[str | None] | None = None,
    context: DefenseContext | None = None,
) -> tuple[np.ndarray, int]:
    """Embed texts through the service; returns the read-only
    ``(len(texts), dim)`` matrix of their vectors, in order, and the
    service's cumulative query counter. Raises EaasError on an error response.

    A batch whose request would pass ``MAX_LINE_BYTES`` or ``MAX_TEXTS`` goes
    out as several requests, in order, each within both. Each is charged on
    its own, so an error response to a later one leaves the earlier ones
    charged.
    """
    extra: dict = {}
    if defense is not None:
        extra["defense"] = defense.to_dict()
        if context is not None and context.group_means:
            extra["context"] = {
                "group_means": {
                    lang: _encode_rows(vec) for lang, vec in context.group_means.items()
                }
            }
    langs = list(langs) if langs is not None else None
    parts, used = [], 0
    for line, count in _request_lines(list(texts), langs, extra):
        response = client._exchange(line)
        if "error" in response:
            raise EaasError(response["error"])
        dim, used = response.get("dim"), response.get("queries_used")
        if type(dim) is not int or dim < 2 or type(used) is not int:
            raise ValueError("service returned a malformed dim or query counter")
        # One decode and one check per response, not per vector.
        vectors = _decode_rows(response.get("embeddings"), count, dim)
        if not np.isfinite(vectors).all():
            raise ValueError("service returned non-finite embeddings")
        parts.append(vectors)
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), used


class RemoteEmbedder(BlackBoxEmbedder):
    """Client-side embedder: every embed call crosses the wire.

    ``queries_used`` counts this client's own requests so attack-side query
    accounting matches local runs. ``embed_many`` raises ValueError for a
    reply whose ``dim`` is not ``dim``, after counting its texts: the
    service billed them, so both counters agree.
    """

    def __init__(self, client: EaasClient, dim: int):
        self._client = client
        self._dim = dim
        self._lock = threading.Lock()
        self._queries = 0

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self._dim))
        rows, _ = eaas_embed(self._client, texts)
        with self._lock:
            self._queries += len(texts)
        if rows.shape[1] != self._dim:
            raise ValueError(f"service returned dimension {rows.shape[1]}, expected {self._dim}")
        return rows

    def dimension(self) -> int:
        return self._dim

    def queries_used(self) -> int:
        with self._lock:
            return self._queries
