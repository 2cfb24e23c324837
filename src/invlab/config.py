"""Experiment configuration, serialized as JSON."""

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .embeddings import ConfigError, NgramConfig, json_bool, json_float, json_int, json_str, require_fields


@dataclass
class AttackSweep:
    steps: list[int] = field(default_factory=lambda: [1, 20, 50])
    beams: list[int] = field(default_factory=lambda: [1, 4, 8])
    max_tokens: int = 32
    query_budget: int | None = None


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


def _str_map(data: object, name: str) -> dict[str, str]:
    """``data`` if it is a JSON object of strings; otherwise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return {json_str(k, f"{name} key"): json_str(v, f"{name} value") for k, v in data.items()}


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, mirroring the JSON config file."""

    corpora: dict[str, str] = field(default_factory=dict)
    embedder: NgramConfig = field(default_factory=NgramConfig)
    attack: AttackSweep = field(default_factory=AttackSweep)
    defense: DefenseSweep = field(default_factory=DefenseSweep)
    dictionaries: dict[str, str] = field(default_factory=dict)
    retrieval_tasks: list[dict] = field(default_factory=list)
    seed: int = 0
    out_dir: str = "out"
    test_size: int = 100

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from decoded JSON. Unknown keys (at the top level and
        in ``embedder``, ``attack`` and ``defense``), booleans, integers,
        numbers and strings that are not JSON booleans, integers, numbers and
        strings, and any other malformed value raise ConfigError."""
        try:
            data = require_fields(data, cls, "config")
            emb = require_fields(data.get("embedder", {}), NgramConfig, "embedder")
            atk = require_fields(data.get("attack", {}), AttackSweep, "attack")
            dfs = require_fields(data.get("defense", {}), DefenseSweep, "defense")
            budget = atk.get("query_budget")
            return cls(
                corpora=_str_map(data.get("corpora", {}), "corpora"),
                embedder=NgramConfig(
                    n=json_int(emb.get("n", 3), "n"),
                    dim=json_int(emb.get("dim", 256), "dim"),
                    seed=json_int(emb.get("seed", 0), "seed"),
                    unit_norm=json_bool(emb.get("unit_norm", True), "unit_norm"),
                ),
                attack=AttackSweep(
                    steps=[json_int(s, "steps") for s in atk.get("steps", [1, 20, 50])],
                    beams=[json_int(b, "beams") for b in atk.get("beams", [1, 4, 8])],
                    max_tokens=json_int(atk.get("max_tokens", 32), "max_tokens"),
                    query_budget=None if budget is None else json_int(budget, "query_budget"),
                ),
                defense=DefenseSweep(
                    lambdas=[json_float(x, "lambdas") for x in dfs.get("lambdas", [0.0, 1e-3, 1e-2, 1e-1, 1.0])],
                    masking=json_bool(dfs.get("masking", True), "masking"),
                    language_agnostic=json_bool(
                        dfs.get("language_agnostic", True), "language_agnostic"
                    ),
                    mask_scale=json_float(dfs.get("mask_scale", 1.0), "mask_scale"),
                ),
                dictionaries=_str_map(data.get("dictionaries", {}), "dictionaries"),
                retrieval_tasks=[
                    _str_map(t, "retrieval_tasks entry") for t in data.get("retrieval_tasks", [])
                ],
                seed=json_int(data.get("seed", 0), "seed"),
                out_dir=json_str(data.get("out_dir", "out"), "out_dir"),
                test_size=json_int(data.get("test_size", 100), "test_size"),
            )
        except ConfigError:
            raise
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            # Wrong container types, unparsable or out-of-range numbers.
            raise ConfigError(f"malformed config: {exc}") from exc

    def validate_files(self) -> None:
        """Check that every referenced corpus, dictionary, and task file exists."""
        missing = []
        for path in list(self.corpora.values()) + list(self.dictionaries.values()):
            if not Path(path).exists():
                missing.append(path)
        for task in self.retrieval_tasks:
            for key in ("queries", "docs", "qrels"):
                if key in task and not Path(task[key]).exists():
                    missing.append(task[key])
        if missing:
            raise ConfigError(f"missing referenced files: {missing}")


def load_config(path: str | Path, check_files: bool = True) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    if check_files:
        config.validate_files()
    return config


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")
