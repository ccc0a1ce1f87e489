"""Product quantization: compress vectors to ``m`` one-byte codes.

Each vector is split into ``m`` subvectors; each subspace gets its own
256-entry codebook trained by k-means. Asymmetric distance computation
(ADC) scores a query against compressed vectors with one table lookup
per subspace — the cheap approximate ranking step of IVF-PQ.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RottnestIndexError
from repro.indices.vector.kmeans import assign_batched, kmeans_batched

CODEBOOK_SIZE = 256


class ProductQuantizer:
    """Trained codebooks for one (sub)vector space."""

    def __init__(self, codebooks: np.ndarray) -> None:
        # (m, 256, sub_dim) float32; entries beyond the trained count of
        # a small dataset simply repeat and are never emitted by encode.
        if codebooks.ndim != 3:
            raise RottnestIndexError(
                f"codebooks must be 3-D, got shape {codebooks.shape}"
            )
        self.codebooks = codebooks.astype(np.float32)

    @property
    def m(self) -> int:
        return self.codebooks.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.codebooks.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.sub_dim

    @classmethod
    def train(
        cls, vectors: np.ndarray, m: int, *, iters: int = 12, seed: int = 0
    ) -> "ProductQuantizer":
        vectors = np.asarray(vectors, dtype=np.float32)
        n, d = vectors.shape
        if d % m != 0:
            raise RottnestIndexError(f"dim {d} not divisible by m={m}")
        k = min(CODEBOOK_SIZE, n)
        # One stacked problem: sub-quantizer j is slice j, seeded seed+j.
        centers, _ = kmeans_batched(
            _subspaces(vectors, m),
            k,
            iters=iters,
            seeds=[seed + j for j in range(m)],
        )
        codebooks = np.empty((m, CODEBOOK_SIZE, d // m), dtype=np.float32)
        codebooks[:, :k] = centers
        codebooks[:, k:] = centers[:, :1]
        return cls(codebooks)

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Compress to (n, m) uint8 codes."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.shape[1] != self.dim:
            raise RottnestIndexError(
                f"vector dim {vectors.shape[1]} != trained dim {self.dim}"
            )
        return assign_batched(
            _subspaces(vectors, self.m), self.codebooks
        ).T.astype(np.uint8, order="C")

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Approximate reconstruction from codes, (n, dim)."""
        codes = np.asarray(codes, dtype=np.uint8)
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        sub = self.sub_dim
        for j in range(self.m):
            out[:, j * sub : (j + 1) * sub] = self.codebooks[j][codes[:, j]]
        return out

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """(m, 256) table of squared distances from query subvectors to
        every codebook entry."""
        query = np.asarray(query, dtype=np.float32).reshape(-1)
        if query.shape[0] != self.dim:
            raise RottnestIndexError(
                f"query dim {query.shape[0]} != trained dim {self.dim}"
            )
        sub = self.sub_dim
        diffs = self.codebooks - query.reshape(self.m, 1, sub)
        return np.sum(diffs * diffs, axis=2)

    @staticmethod
    def adc_distances(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Approximate squared distances of coded vectors to the query
        behind ``table``."""
        m = table.shape[0]
        return table[np.arange(m), codes].sum(axis=1)

    def serialize(self) -> bytes:
        header = np.asarray(
            [self.m, CODEBOOK_SIZE, self.sub_dim], dtype="<u4"
        ).tobytes()
        return header + self.codebooks.astype("<f4").tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "ProductQuantizer":
        m, k, sub = np.frombuffer(data, dtype="<u4", count=3)
        books = np.frombuffer(data, dtype="<f4", offset=12).reshape(
            int(m), int(k), int(sub)
        )
        return cls(books.copy())


def _subspaces(vectors: np.ndarray, m: int) -> np.ndarray:
    """``(n, m * sub)`` vectors as the ``(m, n, sub)`` stack of subvectors."""
    n, d = vectors.shape
    return np.ascontiguousarray(vectors.reshape(n, m, d // m).transpose(1, 0, 2))
