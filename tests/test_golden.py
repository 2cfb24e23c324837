"""Golden snapshot: the three drivers on a tiny fixed config, pinned against
stored output rather than only against a second run.

Every report row minus its ``wall_ms`` cell is compared with
``tests/data/golden_reports.csv``, whose first column names the run. A change
that moves any metric, ndcg or per-row query count fails here even when it
changes every run the same way. To regenerate after an intended change of
output, run ``PYTHONPATH=src python tests/test_golden.py`` and say why in the
change log.
"""

import csv
import io
import sys
import tempfile
from pathlib import Path

from invlab.config import AttackSweep, DefenseSweep, ExperimentConfig
from invlab.corpus import save_jsonl_corpus
from invlab.datagen import bijective_dictionary, parallel_corpora
from invlab.defenses import DefenseConfig, assign_language_ids
from invlab.eaas import eaas_serve
from invlab.embeddings import NgramConfig, NgramEmbedder
from invlab.experiments import run_crosslingual, run_defense_sweep, run_reconstruction
from invlab.report import emit_report
from invlab.translate import save_dictionary_tsv

from helpers import csv_rows_without_wall

GOLDEN = Path(__file__).parent / "data" / "golden_reports.csv"


def _config(workdir: Path) -> ExperimentConfig:
    corpora = parallel_corpora(["en", "fr"], 6, vocab_size=8, min_len=3, max_len=4, seed=41)
    paths = {}
    for lang, corpus in corpora.items():
        paths[lang] = str(workdir / f"{lang}.jsonl")
        save_jsonl_corpus(corpus, paths[lang])
    dictionary = workdir / "en-fr.tsv"
    save_dictionary_tsv(bijective_dictionary("en", "fr", 8), dictionary)
    return ExperimentConfig(
        corpora=paths,
        embedder=NgramConfig(n=3, dim=48, seed=43),
        attack=AttackSweep(steps=[0, 3], beams=[1, 3], max_tokens=4),
        defense=DefenseSweep(lambdas=[0.0, 1e-2], masking=True, language_agnostic=True),
        dictionaries={"en-fr": str(dictionary)},
        seed=47,
        out_dir=str(workdir / "out"),
        test_size=4,
    )


def golden_rows(workdir: Path) -> list[list[str]]:
    """Every driver's report rows, minus ``wall_ms``, each led by its run name."""
    config = _config(workdir)
    defense = DefenseConfig(
        noise_lambda=1e-2,
        noise_seed=53,
        masking=assign_language_ids(["en", "fr"], scale=0.5),
        language_agnostic=True,
    )
    with eaas_serve(NgramEmbedder(config.embedder)) as server:
        runs = {
            "recon": run_reconstruction(config),
            "recon_defended": run_reconstruction(config, defense=defense),
            "recon_defended_remote": run_reconstruction(
                config, defense=defense, remote=server.address
            ),
            "defense_sweep": run_defense_sweep(config),
            "xling": run_crosslingual(config, "en", "fr"),
        }
    rows = []
    for name, report in runs.items():
        path = emit_report(report, workdir / f"{name}.csv")
        rows.extend([name] + row for row in csv_rows_without_wall(path)[1:])
    return rows


def test_reports_match_golden_snapshot(tmp_path):
    with open(GOLDEN, encoding="utf-8", newline="") as fh:
        expected = list(csv.reader(fh))
    assert golden_rows(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO(newline="")
        csv.writer(out).writerows(golden_rows(Path(tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(out.getvalue(), encoding="utf-8", newline="")
    print(f"wrote {GOLDEN}", file=sys.stderr)
