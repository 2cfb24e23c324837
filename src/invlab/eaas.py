"""Simulated embeddings-as-a-service endpoint over TCP.

Requests are one JSON object per line, UTF-8. A reply is one JSON header
line, followed on success by a raw body. The server is the only component
holding the embedder; a client (or an attacker who obtained API access) sees
vectors and the service's bill, nothing else.

Request:  {"op": "embed", "texts": [...], "defense": {...}?, "langs": [...]?,
           "context": {"group_means": {lang: "<rows>"}}?}
Response: {"dim": N, "queries_used": M, "bytes": B}, then B raw bytes
Errors:   {"error": "unknown_op" | "bad_request" | "unknown_lang"}, no body

A success reply's body is exactly ``B = len(texts) * dim * 8`` bytes: the
little-endian float64 values of the row-major ``(len(texts), dim)`` matrix,
one row per text, in request order. In a request a group mean travels as
``<rows>``: the standard base64 encoding (with padding) of the same bytes of
its one row. Raw bytes round-trip every float64 exactly, so remote vectors
are bitwise equal to local ones.

``defense`` is the only stack the service applies, and none when it is
absent or null; ``langs`` tags each text for masking; ``context`` supplies
per-language mean vectors when the language-agnostic stage is enabled, and
is checked on every request, defended or not. Its languages are JSON object
keys, so strings: ``eaas_embed`` refuses any other ``group_means`` key with
``ValueError`` before sending, since ``None`` would arrive as ``"null"``.
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
The client reads a reply's header line within ``MAX_LINE_BYTES`` and refuses
it with ``ValueError``, before reading any body, unless it is a JSON object
whose ``dim`` is an integer of at least 2, whose ``queries_used`` is an
integer and whose ``bytes`` is ``len(texts) * dim * 8``; the stream cannot be
resynchronised after that, so the client's connection is closed. A body cut
short raises ``ConnectionError``, and one with a component that is not finite
``ValueError``. ``RemoteEmbedder`` also refuses a ``dim`` other than its own.
A batch stays one ``(n, dim)`` matrix: the server sends the bytes of the one
its embedder or defense stack returns, and ``eaas_embed`` returns it read
back, rows unwrapped.
Any op other than "embed" is refused: the service never helps the attacker
beyond embedding.
"""

import base64
import json
import socket
import socketserver
import threading
from typing import Mapping, Sequence

from .defenses import DefenseConfig, UnknownLanguageError, apply_defense_stack
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


def _encode_row(vec: np.ndarray) -> str:
    """Encode one float64 vector as a request's ``<rows>``: base64 of its
    little-endian bytes."""
    return base64.b64encode(np.asarray(vec, dtype=_WIRE_DTYPE).tobytes()).decode("ascii")


def _decode_row(data: object, dim: int) -> np.ndarray:
    """Decode a request's ``<rows>`` into one read-only float64 vector.

    Raises ValueError unless ``data`` is a base64 string of exactly
    ``dim * 8`` bytes; finiteness is left to the caller.
    """
    if not isinstance(data, str):
        raise ValueError("vectors must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ValueError("vectors are not valid base64") from None
    if len(raw) != dim * _WIRE_DTYPE.itemsize:
        raise ValueError(f"expected {dim} float64 values, got {len(raw)} bytes")
    return np.frombuffer(raw, dtype=_WIRE_DTYPE)


def _parse_context(data: object, dim: int) -> dict[str, np.ndarray] | None:
    """Decode a request's ``context`` into its group means, or None when it
    or its ``group_means`` is absent or null; ValueError on any malformed
    part."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValueError("context must be an object")
    means = data.get("group_means")
    if means is None:
        return None
    if not isinstance(means, dict):
        raise ValueError("group_means must be an object")
    return {lang: _decode_row(vec, dim) for lang, vec in means.items()}


def _error_line(code: str) -> bytes:
    """An error reply: one wire line, no body."""
    return (json.dumps({"error": code}) + "\n").encode("utf-8")


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

    def _send(self, reply: bytes) -> None:
        self.wfile.write(reply)
        self.wfile.flush()

    def _respond(self, line: bytes) -> bytes:
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
            defense = None
            if request.get("defense") is not None:
                defense = DefenseConfig.from_dict(request["defense"])
            means = _parse_context(request.get("context"), dim)
            rows = apply_defense_stack(
                self.server.embedder.embed_many(texts), langs, texts, defense, means
            )
        except UnknownLanguageError:
            return _error_line("unknown_lang")
        except ValueError:
            # A malformed defense or context, no group means at all,
            # non-finite ones, or a defended vector or norm that overflowed.
            return _error_line("bad_request")
        body = np.asarray(rows, dtype=_WIRE_DTYPE).tobytes()
        header = {"dim": dim, "queries_used": self.server._charge(len(texts)), "bytes": len(body)}
        return (json.dumps(header) + "\n").encode("utf-8") + body


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
    """Persistent connection to the service; it is closed when a reply's
    header is refused, since the stream cannot be resynchronised."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()

    def _exchange(self, line: str, count: int) -> tuple[np.ndarray, int]:
        """Send one request line for ``count`` texts; returns the reply's
        read-only ``(count, dim)`` matrix and the service's bill, or raises
        EaasError on an error reply. A refused header closes the connection."""
        data = line.encode("utf-8")
        with self._lock:
            self._sock.sendall(data)
            head = self._reader.readline(MAX_LINE_BYTES + 1)
            try:
                reply = _reply_header(head, count)
            except ValueError:
                self.close()
                raise
            if "error" in reply:
                raise EaasError(reply["error"])
            # Read in bounded pieces: memory follows the bytes that arrive,
            # not the size a header claims.
            parts, left = [], reply["bytes"]
            while left and (part := self._reader.read(min(left, MAX_LINE_BYTES))):
                parts.append(part)
                left -= len(part)
        if left:
            raise ConnectionError("service closed the connection mid-reply")
        rows = np.frombuffer(b"".join(parts), dtype=_WIRE_DTYPE).reshape(count, reply["dim"])
        # One check per reply, not per vector.
        if not np.isfinite(rows).all():
            raise ValueError("service returned non-finite embeddings")
        return rows, reply["queries_used"]

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "EaasClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _reply_header(head: bytes, count: int) -> dict:
    """The reply header line ``head`` to a request of ``count`` texts,
    checked as the module docstring says: ValueError for a malformed one,
    ConnectionError for one cut short."""
    if len(head) > MAX_LINE_BYTES:
        raise ValueError(f"service reply header is longer than {MAX_LINE_BYTES} bytes")
    if not head.endswith(b"\n"):
        raise ConnectionError("service closed the connection")
    try:
        reply = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError):
        raise ValueError("service reply header is not JSON") from None
    if not isinstance(reply, dict):
        raise ValueError("service reply header is not a JSON object")
    if "error" in reply:
        return reply
    dim, used, size = reply.get("dim"), reply.get("queries_used"), reply.get("bytes")
    if type(dim) is not int or dim < 2 or type(used) is not int:
        raise ValueError("service returned a malformed dim or query counter")
    if type(size) is not int or size != count * dim * _WIRE_DTYPE.itemsize:
        raise ValueError(f"expected {count} x {dim} float64 values, got a {size!r}-byte body")
    return reply


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
    group_means: Mapping[str | None, np.ndarray] | None = None,
) -> tuple[np.ndarray, int]:
    """Embed texts through the service; returns the read-only
    ``(len(texts), dim)`` matrix of their vectors, in order, and the
    service's cumulative query counter. Raises EaasError on an error response,
    and ValueError or ConnectionError on a reply the client refuses (see the
    module docstring). A ``group_means`` key that is not a string raises ValueError before
    anything is sent.

    A batch whose request would pass ``MAX_LINE_BYTES`` or ``MAX_TEXTS`` goes
    out as several requests, in order, each within both. Each is charged on
    its own, so an error response to a later one leaves the earlier ones
    charged.
    """
    extra: dict = {}
    if defense is not None:
        extra["defense"] = defense.to_dict()
        if group_means:
            if not all(isinstance(lang, str) for lang in group_means):
                raise ValueError("group mean languages must be strings to cross the wire")
            means = {lang: _encode_row(vec) for lang, vec in group_means.items()}
            extra["context"] = {"group_means": means}
    langs = list(langs) if langs is not None else None
    parts, used = [], 0
    for line, count in _request_lines(list(texts), langs, extra):
        vectors, used = client._exchange(line, count)
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
