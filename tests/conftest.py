import os
from pathlib import Path

import numpy as np
import pytest

from invlab.embeddings import BlackBoxEmbedder

# Child Python processes (the CLI server, the cross-process determinism
# check) import the package from the same tree as the tests, with or
# without PYTHONPATH set by the caller.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


class ConstantEmbedder(BlackBoxEmbedder):
    """Maps every text to the same vector; useful for tie-break contracts."""

    def __init__(self, dim: int = 4):
        self._dim = dim
        self._queries = 0

    def embed_many(self, texts) -> np.ndarray:
        self._queries += len(texts)
        vecs = np.zeros((len(texts), self._dim))
        vecs[:, 0] = 1.0
        return vecs

    def dimension(self) -> int:
        return self._dim

    def queries_used(self) -> int:
        return self._queries


@pytest.fixture
def constant_embedder():
    return ConstantEmbedder()
