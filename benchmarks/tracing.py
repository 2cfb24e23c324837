"""Timing shims around invlab's layers, and the per-layer metrics they yield.

The package itself has no tracing. A ``Recorder``, entered as a context
manager, replaces each layer's public functions at the names the drivers
actually call them through (functions are imported by name, so
``invlab.experiments.invert`` is patched, not only ``invlab.inversion.invert``),
records one span per call in memory, and puts every original back on exit. Each span carries the thread it ran on, so
server-side work on the service's handler thread is never counted as client
time, and its parent span, so a layer's self time excludes its children.
"""

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from pathlib import Path

import invlab.defenses
import invlab.eaas
import invlab.embeddings
import invlab.experiments
import invlab.inversion
import invlab.retrieval
import invlab.translate
from invlab.embeddings import NgramEmbedder
from invlab.inversion import EditMutationGenerator

import workloads

CLIENT = "client"
SERVER = "server"


def _one(args, kwargs, result) -> int:
    return 1


def _texts(args, kwargs, result) -> int:
    # NgramEmbedder.embed_many(self, texts) and eaas_embed(client, texts, ...)
    return len(kwargs["texts"] if "texts" in kwargs else args[1])


def _returned(args, kwargs, result) -> int:
    return len(result)


def _queries(args, kwargs, result) -> int:
    return result.queries_used


# (owner, attribute, span name, unit counter). Owners are the modules and
# classes whose attribute lookups the drivers go through at call time.
SHIMS = [
    (NgramEmbedder, "embed", "embed", _one),
    (NgramEmbedder, "embed_many", "embed", _texts),
    (invlab.inversion, "cosine", "cosine", _one),
    (invlab.translate, "cosine", "cosine", _one),
    (invlab.experiments, "invert", "invert", _queries),
    (EditMutationGenerator, "propose", "propose", _returned),
    (invlab.defenses, "apply_defense_stack", "apply_defense_stack", _one),
    (invlab.retrieval, "apply_defense_stack", "apply_defense_stack", _one),
    (invlab.eaas, "apply_defense_stack", "apply_defense_stack", _one),
    (invlab.experiments, "evaluate_task", "evaluate_task", _one),
    (invlab.retrieval, "search", "search", _one),
    (invlab.experiments, "pair_report", "pair_report", _one),
    (invlab.translate, "pair_report", "pair_report", _one),
    (invlab.experiments, "translated_metrics", "translated_metrics", _one),
    (invlab.experiments, "eaas_embed", "eaas_embed", _texts),
    (invlab.eaas, "eaas_embed", "eaas_embed", _texts),
    (workloads, "emit_report", "emit_report", _one),
]

EMBEDDING_SPANS = {"embed", "eaas_embed"}


class Recorder:
    """In-memory span store for one traced driver call; shims are installed
    while it is entered.

    A span is ``(id, parent_id, name, thread, start, duration, self_time,
    units)``; ``self_time`` is the duration minus the time covered by child
    spans on the same thread.
    """

    def __init__(self, client_ident: int):
        self.client_ident = client_ident
        self.spans: list[tuple] = []
        self.payload_bytes = {CLIENT: 0, SERVER: 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def __enter__(self) -> "Recorder":
        """Patch every shim in."""
        for owner, attr, name, units in SHIMS:
            self._saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), units))
        self._saved.append((invlab.eaas, "json", vars(invlab.eaas)["json"]))
        invlab.eaas.json = _CountingJson(self)
        return self

    def __exit__(self, *exc) -> None:
        """Put every original attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)  # inherited method: drop the shim
            else:
                setattr(owner, attr, original)

    def _thread(self) -> str:
        return CLIENT if threading.get_ident() == self.client_ident else SERVER

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, units):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [next(self._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
            self.spans.append((
                frame[0], parent[0] if parent is not None else None, name,
                self._thread(), start, duration, duration - frame[1],
                units(args, kwargs, result),
            ))
            return result

        return shim

    def count_payload(self, text: str) -> None:
        # Every wire message is one JSON document plus a newline; with the
        # default ensure_ascii the character count is the byte count.
        self.payload_bytes[self._thread()] += len(text) + 1

    def write(self, path: Path) -> None:
        fields = ("id", "parent", "name", "thread", "start", "duration", "self", "units")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


class _CountingJson:
    """Stand-in for the ``json`` module inside ``invlab.eaas`` that counts the
    bytes of every serialised wire payload."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder

    def dumps(self, obj, *args, **kwargs) -> str:
        text = json.dumps(obj, *args, **kwargs)
        self._recorder.count_payload(text)
        return text

    def __getattr__(self, name):
        return getattr(json, name)


# name -> (unit, better, kind). ``count`` metrics must repeat exactly from
# run to run; a change that moves one changed what is computed.
PER_LAYER = {
    "embeddings.embed.calls": ("count", "lower", "count"),
    "embeddings.embed.texts": ("count", "lower", "count"),
    "embeddings.embed.us_per_text": ("us", "lower", "time"),
    "embeddings.embed.share": ("ratio", "lower", "time"),
    "embeddings.cosine.calls": ("count", "lower", "count"),
    "embeddings.cosine.us_per_call": ("us", "lower", "time"),
    "embeddings.cosine.share": ("ratio", "lower", "time"),
    "embeddings.slot_cache_entries": ("count", "lower", "count"),
    "inversion.invert.calls": ("count", "lower", "count"),
    "inversion.invert.ms_p50": ("ms", "lower", "time"),
    "inversion.invert.ms_p95": ("ms", "lower", "time"),
    "inversion.invert.self_share": ("ratio", "lower", "time"),
    "inversion.propose.calls": ("count", "lower", "count"),
    "inversion.propose.us_per_call": ("us", "lower", "time"),
    "inversion.propose.candidates": ("count", "lower", "count"),
    "inversion.propose.share": ("ratio", "lower", "time"),
    "inversion.queries_per_attack": ("queries", "lower", "count"),
    "inversion.fresh_per_proposed": ("ratio", "higher", "count"),
    "defenses.apply_defense_stack.calls": ("count", "lower", "count"),
    "defenses.apply_defense_stack.us_per_call": ("us", "lower", "time"),
    "defenses.share": ("ratio", "lower", "time"),
    "retrieval.evaluate_task.calls": ("count", "lower", "count"),
    "retrieval.evaluate_task.ms_per_call": ("ms", "lower", "time"),
    "retrieval.search.calls": ("count", "lower", "count"),
    "retrieval.search.us_per_query": ("us", "lower", "time"),
    "retrieval.share": ("ratio", "lower", "time"),
    "metrics.pair_report.calls": ("count", "lower", "count"),
    "metrics.pair_report.us_per_pair": ("us", "lower", "time"),
    "translate.translated_metrics.calls": ("count", "lower", "count"),
    "translate.translated_metrics.us_per_call": ("us", "lower", "time"),
    "eaas.requests": ("count", "lower", "count"),
    "eaas.texts_per_request": ("texts", "higher", "count"),
    "eaas.client_us_per_text": ("us", "lower", "time"),
    "eaas.server_embed_us_per_text": ("us", "lower", "time"),
    "eaas.wire_us_per_text": ("us", "lower", "time"),
    "eaas.request_bytes_per_text": ("B", "lower", "count"),
    # Not an exact count: each response carries the service's cumulative
    # query counter, whose digits grow from one call to the next.
    "eaas.response_bytes_per_text": ("B", "lower", "time"),
    "experiments.self_share": ("ratio", "lower", "time"),
    "report.emit_report.ms": ("ms", "lower", "time"),
    "trace.overhead_ratio": ("ratio", "lower", "time"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _fresh_in_correction(spans: list[tuple], by_id: dict) -> int:
    """Texts embedded inside ``invert`` after its first ``propose``: the
    greedy base never proposes, so these are the correction rounds' queries."""
    first_propose: dict[int, float] = {}
    for _, parent, name, _, start, *_ in spans:
        if name == "propose" and parent is not None and by_id[parent][2] == "invert":
            first_propose[parent] = min(first_propose.get(parent, start), start)
    return sum(
        units
        for _, parent, name, _, start, _, _, units in spans
        if name in EMBEDDING_SPANS and parent in first_propose and start > first_propose[parent]
    )


def layer_metrics(recorder: Recorder, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced call whose wall time was ``wall_s``."""
    spans = recorder.spans
    by_id = {span[0]: span for span in spans}
    client = [s for s in spans if s[3] == CLIENT]

    def named(name: str, outermost: bool = False) -> list[tuple]:
        out = [s for s in client if s[2] == name]
        if outermost:
            out = [s for s in out if s[1] is None or by_id[s[1]][2] != name]
        return out

    def total(rows, field: int) -> float:
        return sum(s[field] for s in rows)

    DUR, SELF, UNITS = 5, 6, 7
    embeds = named("embed", outermost=True)
    cosines = named("cosine")
    inverts = named("invert")
    proposes = named("propose")
    defenses = named("apply_defense_stack")
    tasks = named("evaluate_task")
    searches = named("search")
    pairs = named("pair_report")
    rescoring = named("translated_metrics")
    requests = named("eaas_embed")
    emits = named("emit_report")
    server_embeds = [s for s in spans if s[3] == SERVER and s[2] == "embed"]

    invert_ms = sorted(s[DUR] * 1e3 for s in inverts)
    if len(invert_ms) >= 2:
        p50 = statistics.median(invert_ms)
        p95 = statistics.quantiles(invert_ms, n=20, method="inclusive")[18]
    else:
        p50 = p95 = invert_ms[0] if invert_ms else 0.0

    wire_texts = total(requests, UNITS)
    client_us = _ratio(total(requests, DUR) * 1e6, wire_texts)
    server_us = _ratio(total(server_embeds, DUR) * 1e6, total(server_embeds, UNITS))
    top_level = [s for s in client if s[1] is None]
    return {
        "embeddings.embed.calls": len(embeds),
        "embeddings.embed.texts": total(embeds, UNITS),
        "embeddings.embed.us_per_text": _ratio(total(embeds, DUR) * 1e6, total(embeds, UNITS)),
        "embeddings.embed.share": _ratio(total(named("embed"), SELF), wall_s),
        "embeddings.cosine.calls": len(cosines),
        "embeddings.cosine.us_per_call": _ratio(total(cosines, DUR) * 1e6, len(cosines)),
        "embeddings.cosine.share": _ratio(total(cosines, SELF), wall_s),
        "embeddings.slot_cache_entries": len(getattr(invlab.embeddings, "_SLOT_CACHE", ())),
        "inversion.invert.calls": len(inverts),
        "inversion.invert.ms_p50": p50,
        "inversion.invert.ms_p95": p95,
        "inversion.invert.self_share": _ratio(total(inverts, SELF), wall_s),
        "inversion.propose.calls": len(proposes),
        "inversion.propose.us_per_call": _ratio(total(proposes, DUR) * 1e6, len(proposes)),
        "inversion.propose.candidates": total(proposes, UNITS),
        "inversion.propose.share": _ratio(total(proposes, SELF), wall_s),
        "inversion.queries_per_attack": _ratio(total(inverts, UNITS), len(inverts)),
        "inversion.fresh_per_proposed": _ratio(
            _fresh_in_correction(client, by_id), total(proposes, UNITS)
        ),
        "defenses.apply_defense_stack.calls": len(defenses),
        "defenses.apply_defense_stack.us_per_call": _ratio(
            total(defenses, DUR) * 1e6, len(defenses)
        ),
        "defenses.share": _ratio(total(defenses, SELF), wall_s),
        "retrieval.evaluate_task.calls": len(tasks),
        "retrieval.evaluate_task.ms_per_call": _ratio(total(tasks, DUR) * 1e3, len(tasks)),
        "retrieval.search.calls": len(searches),
        "retrieval.search.us_per_query": _ratio(total(searches, DUR) * 1e6, len(searches)),
        "retrieval.share": _ratio(total(tasks, SELF) + total(searches, SELF), wall_s),
        "metrics.pair_report.calls": len(pairs),
        "metrics.pair_report.us_per_pair": _ratio(total(pairs, DUR) * 1e6, len(pairs)),
        "translate.translated_metrics.calls": len(rescoring),
        "translate.translated_metrics.us_per_call": _ratio(
            total(rescoring, DUR) * 1e6, len(rescoring)
        ),
        "eaas.requests": len(requests),
        "eaas.texts_per_request": _ratio(wire_texts, len(requests)),
        "eaas.client_us_per_text": client_us,
        "eaas.server_embed_us_per_text": server_us,
        "eaas.wire_us_per_text": client_us - server_us,
        "eaas.request_bytes_per_text": _ratio(recorder.payload_bytes[CLIENT], wire_texts),
        "eaas.response_bytes_per_text": _ratio(recorder.payload_bytes[SERVER], wire_texts),
        "experiments.self_share": _ratio(wall_s - total(top_level, DUR), wall_s),
        "report.emit_report.ms": total(emits, DUR) * 1e3,
    }
