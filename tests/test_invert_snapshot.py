"""Every field of ``invert``'s result, pinned against stored output.

The budget tests elsewhere compare ``invert_grid`` with ``invert``, which run
the same engine, so a change to how the engine ranks, breaks ties or stops on
its budget could move both alike. This test compares a fixed set of attacks
with ``tests/data/invert_snapshot.csv``: best text, score bits, step, the
bits of ``beam_history``, ``queries_used`` and ``terminated``. The budgets cut
some attacks in the greedy pass and some in the beam search. To regenerate
after an intended change of output, run
``PYTHONPATH=src python tests/test_invert_snapshot.py`` and say why in the
change log.
"""

import csv
import io
import sys
from pathlib import Path

import numpy as np

from invlab.embeddings import NgramEmbedder
from invlab.inversion import BUDGET_EXHAUSTED, AttackConfig, EditMutationGenerator, invert

SNAPSHOT = Path(__file__).parent / "data" / "invert_snapshot.csv"
HEADER = ["target", "budget", "steps", "beam", "text", "score", "step", "history", "queries",
          "terminated"]

VOCAB = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu")
# One text the greedy pass recovers alone, texts it does not, and a vector
# no text embeds to.
TARGET_TEXTS = ("bee", "cat dog", "fox ant bee", "gnu gnu eel", "dog cat fox ant")
BUDGETS = (1, 2, 5, 13, 30, 60, 120, None)
SHAPES = ((0, 1), (2, 3), (6, 2), (12, 4))  # (steps, beam width)


def snapshot_rows() -> list[list[str]]:
    """One row per (target, budget, steps, beam) attack, every result field
    in text form and every float as its hex bits."""
    embedder = NgramEmbedder(n=3, dim=64, seed=11)
    targets = list(embedder.embed_many(list(TARGET_TEXTS)))
    targets.append(np.random.default_rng(5).standard_normal(64))
    rows = []
    for t, target in enumerate(targets):
        gen = EditMutationGenerator(VOCAB, max_tokens=4, seed=t)
        for budget in BUDGETS:
            for steps, beam in SHAPES:
                config = AttackConfig(VOCAB, steps, beam, max_tokens=4, query_budget=budget)
                r = invert(target, embedder, gen, config)
                rows.append([
                    str(t), str(budget), str(steps), str(beam),
                    r.best.text, float(r.best.score).hex(), str(r.best.step),
                    " ".join(float(s).hex() for s in r.beam_history),
                    str(r.queries_used), r.terminated,
                ])
    return rows


def _stored() -> list[list[str]]:
    with open(SNAPSHOT, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_results_match_snapshot():
    assert [HEADER] + snapshot_rows() == _stored()


def test_snapshot_cuts_in_greedy_pass_and_in_search():
    stored = [dict(zip(HEADER, row)) for row in _stored()[1:]]
    # An unbudgeted attack with no steps pays exactly for its greedy pass.
    base = {r["target"]: int(r["queries"]) for r in stored if r["budget"] == "None" and r["steps"] == "0"}
    cuts = [r for r in stored if r["terminated"] == BUDGET_EXHAUSTED]
    assert any(int(r["budget"]) < base[r["target"]] for r in cuts)
    assert any(int(r["budget"]) > base[r["target"]] and r["history"].count(" ") > 0 for r in cuts)


if __name__ == "__main__":
    out = io.StringIO(newline="")
    csv.writer(out).writerows([HEADER] + snapshot_rows())
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(out.getvalue(), encoding="utf-8", newline="")
    print(f"wrote {SNAPSHOT}", file=sys.stderr)
