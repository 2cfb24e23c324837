"""Experiment configuration, serialized as JSON."""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .embeddings import ConfigError, InputFormatError, NgramConfig, from_json, open_text
from .inversion import AttackConfig


@dataclass
class AttackSweep:
    steps: list[int] = field(default_factory=lambda: [1, 20, 50])
    beams: list[int] = field(default_factory=lambda: [1, 4, 8])
    max_tokens: int = 32
    query_budget: int | None = None

    def __post_init__(self) -> None:
        if not self.steps or not self.beams:
            raise ConfigError("steps and beams must be non-empty")
        # AttackConfig's limits are lower bounds, so the smallest cell meets
        # them all or raises their message; the vocabulary is checked later.
        AttackConfig(("-",), min(self.steps), min(self.beams), self.max_tokens, self.query_budget)


@dataclass
class DefenseSweep:
    lambdas: list[float] = field(default_factory=lambda: [0.0, 1e-3, 1e-2, 1e-1, 1.0])
    masking: bool = True
    language_agnostic: bool = True
    mask_scale: float = 1.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(lam) and lam >= 0 for lam in self.lambdas):
            raise ConfigError("noise levels must be finite and non-negative")
        if not math.isfinite(self.mask_scale):
            raise ConfigError("mask_scale must be finite")


# The files a retrieval task is read from; an entry may also carry a "name".
_TASK_FILES = ("queries", "docs", "qrels")


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, mirroring the JSON config file."""

    corpora: dict[str, str] = field(default_factory=dict)
    embedder: NgramConfig = field(default_factory=NgramConfig)
    attack: AttackSweep = field(default_factory=AttackSweep)
    defense: DefenseSweep = field(default_factory=DefenseSweep)
    dictionaries: dict[str, str] = field(default_factory=dict)
    retrieval_tasks: list[dict[str, str]] = field(default_factory=list)
    seed: int = 0
    out_dir: str = "out"
    test_size: int = 100

    def __post_init__(self) -> None:
        for task in self.retrieval_tasks:
            if not set(_TASK_FILES) <= set(task) <= {*_TASK_FILES, "name"}:
                raise ConfigError(
                    f"a retrieval_tasks entry needs the keys {list(_TASK_FILES)} and may"
                    f" add name, not {list(task)}"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from decoded JSON, as ``from_json`` decodes it; an
        unknown key in any section or a malformed value raises ConfigError."""
        return from_json(cls, data, "config")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config; a file that is not UTF-8 JSON raises InputFormatError,
    and a corpus, dictionary or task file it names that does not exist
    raises ConfigError."""
    text = open_text(path).read()
    # ValueError: bad JSON or an over-long integer; RecursionError: too deep nesting
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        line = exc.lineno if isinstance(exc, json.JSONDecodeError) else 1
        raise InputFormatError(f"{path}:{line}: invalid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(data)
    paths = [*config.corpora.values(), *config.dictionaries.values()]
    paths += [task[key] for task in config.retrieval_tasks for key in _TASK_FILES]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        raise ConfigError(f"missing referenced files: {missing}")
    return config


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")
