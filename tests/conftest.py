import numpy as np
import pytest

from invlab.embeddings import BlackBoxEmbedder, Embedding


class ConstantEmbedder(BlackBoxEmbedder):
    """Maps every text to the same vector; useful for tie-break contracts."""

    def __init__(self, dim: int = 4):
        self._dim = dim
        self._queries = 0

    def embed_many(self, texts) -> list[Embedding]:
        self._queries += len(texts)
        vecs = np.zeros((len(texts), self._dim))
        vecs[:, 0] = 1.0
        return [Embedding(row) for row in vecs]

    def dimension(self) -> int:
        return self._dim

    def queries_used(self) -> int:
        return self._queries


@pytest.fixture
def constant_embedder():
    return ConstantEmbedder()
