"""Desk-scale laboratory for black-box text embedding inversion.

Toy embedders behind a query-counted black-box interface, a cosine-guided
beam-search inversion attack with an exhaustive oracle, embedding-release
defenses, reconstruction and retrieval metrics, and an experiment harness
with a TCP embedding service.
"""

from .embeddings import (
    BlackBoxEmbedder,
    ConfigError,
    Embedding,
    NgramConfig,
    NgramEmbedder,
    TextSample,
    cosine,
    embed_ngram,
)
from .defenses import (
    DefenseConfig,
    DefenseContext,
    UnknownLanguageError,
    apply_defense_stack,
    assign_language_ids,
    language_agnostic,
)
from .inversion import (
    AttackConfig,
    AttackResult,
    EditMutationGenerator,
    Hypothesis,
    MutationGenerator,
    base_hypothesis,
    correction_step,
    exhaustive_oracle,
    invert,
    invert_grid,
    invert_many,
)
from .metrics import (
    MetricReport,
    aggregate,
    bleu,
    exact_match,
    ndcg_at_k,
    pair_report,
    rouge1_recall,
    token_f1,
    tokenize,
)
from .retrieval import RetrievalTask, build_index, evaluate_task, search
from .translate import DictionaryTranslator, TranslationGain, round_trip, translated_metrics
from .corpus import Corpus, load_jsonl_corpus
from .config import ExperimentConfig, load_config, save_config
from .report import ExperimentReport, ReportRow, emit_report, read_report_csv
from .eaas import EaasClient, EaasServer, RemoteEmbedder, eaas_embed, eaas_serve
from .experiments import run_crosslingual, run_defense_sweep, run_reconstruction

__version__ = "0.1.0"
