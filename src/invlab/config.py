"""Experiment configuration, serialized as JSON."""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .embeddings import ConfigError, NgramConfig


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
        return {
            "corpora": dict(self.corpora),
            "embedder": {
                "n": self.embedder.n,
                "dim": self.embedder.dim,
                "seed": self.embedder.seed,
                "unit_norm": self.embedder.unit_norm,
            },
            "attack": {
                "steps": list(self.attack.steps),
                "beams": list(self.attack.beams),
                "max_tokens": self.attack.max_tokens,
                "query_budget": self.attack.query_budget,
            },
            "defense": {
                "lambdas": list(self.defense.lambdas),
                "masking": self.defense.masking,
                "language_agnostic": self.defense.language_agnostic,
                "mask_scale": self.defense.mask_scale,
            },
            "dictionaries": dict(self.dictionaries),
            "retrieval_tasks": [dict(t) for t in self.retrieval_tasks],
            "seed": self.seed,
            "out_dir": self.out_dir,
            "test_size": self.test_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        emb = data.get("embedder", {})
        atk = data.get("attack", {})
        dfs = data.get("defense", {})
        return cls(
            corpora={str(k): str(v) for k, v in data.get("corpora", {}).items()},
            embedder=NgramConfig(
                n=int(emb.get("n", 3)),
                dim=int(emb.get("dim", 256)),
                seed=int(emb.get("seed", 0)),
                unit_norm=bool(emb.get("unit_norm", True)),
            ),
            attack=AttackSweep(
                steps=[int(s) for s in atk.get("steps", [1, 20, 50])],
                beams=[int(b) for b in atk.get("beams", [1, 4, 8])],
                max_tokens=int(atk.get("max_tokens", 32)),
                query_budget=(
                    int(atk["query_budget"]) if atk.get("query_budget") is not None else None
                ),
            ),
            defense=DefenseSweep(
                lambdas=[float(x) for x in dfs.get("lambdas", [0.0, 1e-3, 1e-2, 1e-1, 1.0])],
                masking=bool(dfs.get("masking", True)),
                language_agnostic=bool(dfs.get("language_agnostic", True)),
                mask_scale=float(dfs.get("mask_scale", 1.0)),
            ),
            dictionaries={str(k): str(v) for k, v in data.get("dictionaries", {}).items()},
            retrieval_tasks=[dict(t) for t in data.get("retrieval_tasks", [])],
            seed=int(data.get("seed", 0)),
            out_dir=str(data.get("out_dir", "out")),
            test_size=int(data.get("test_size", 100)),
        )

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
