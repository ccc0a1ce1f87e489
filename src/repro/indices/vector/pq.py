"""Product quantization: compress vectors to ``m`` one-byte codes.

Each vector is split into ``m`` subvectors; each subspace gets its own
256-entry codebook trained by k-means. Asymmetric distance computation
(ADC) scores a query against compressed vectors with one table lookup
per subspace — the cheap approximate ranking step of IVF-PQ.

The build side (:class:`ProductQuantizer`) keeps codebooks as
``(m, 256, sub)``. The query side decodes the serialized form once into
the sub-dimension-major ``(sub, m, 256)`` layout
(:func:`sub_major_codebooks`), so that :func:`adc_tables` scores the
residuals of *every* probed list in one pass, one sub-dimension at a
time, and :func:`adc_scores` prices every code with one gather. The
tables are bit-identical to ``np.sum(diffs * diffs, axis=2)`` over the
``(m, 256, sub)`` layout: the sub-dimensions are summed in numpy's own
pairwise order (:func:`_pairwise_sum`), because a float32 sum taken in
any other order differs in the last bit, and a last-bit difference can
swap two candidates at the ``refine`` cut.
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

    def serialize(self) -> bytes:
        header = np.asarray(
            [self.m, CODEBOOK_SIZE, self.sub_dim], dtype="<u4"
        ).tobytes()
        return header + self.codebooks.astype("<f4").tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "ProductQuantizer":
        return cls(_parse(data).copy())


def _subspaces(vectors: np.ndarray, m: int) -> np.ndarray:
    """``(n, m * sub)`` vectors as the ``(m, n, sub)`` stack of subvectors."""
    n, d = vectors.shape
    return np.ascontiguousarray(vectors.reshape(n, m, d // m).transpose(1, 0, 2))


def _parse(data: bytes) -> np.ndarray:
    """The ``(m, 256, sub)`` codebooks a serialized quantizer holds, as
    a read-only view of ``data``; ``ValueError`` when the header does
    not describe the payload."""
    if len(data) < 12:
        raise ValueError(f"codebook header needs 12 bytes, got {len(data)}")
    m, k, sub = (int(v) for v in np.frombuffer(data, dtype="<u4", count=3))
    if k != CODEBOOK_SIZE:
        raise ValueError(f"codebook size {k} != {CODEBOOK_SIZE}")
    if len(data) != 12 + 4 * m * k * sub:
        raise ValueError(
            f"{len(data) - 12} payload bytes for m={m}, k={k}, sub={sub}"
        )
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(m, k, sub)


def sub_major_codebooks(data: bytes, *, m: int, dim: int) -> np.ndarray:
    """Decode a serialized quantizer for querying: ``(sub, m, 256)``
    float32, checked against the ``m`` and ``dim`` of the index file
    that holds it (``ValueError`` otherwise)."""
    books = _parse(data)
    if books.shape[0] != m or books.shape[0] * books.shape[2] != dim:
        raise ValueError(
            f"codebooks for m={books.shape[0]}, dim="
            f"{books.shape[0] * books.shape[2]}; the file says m={m}, dim={dim}"
        )
    return np.ascontiguousarray(books.transpose(2, 0, 1), dtype=np.float32)


def adc_tables(books: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """``(n, m, 256)`` squared distances from each of the ``(n, dim)``
    query ``residuals``' subvectors to every codebook entry, for
    ``(sub, m, 256)`` ``books``; row ``i`` equals
    ``np.sum(diffs * diffs, axis=2)`` for ``residuals[i]`` against the
    ``(m, 256, sub)`` codebooks, bit for bit. The pass holds one
    ``(sub, n, m, 256)`` float32 temporary: ``n * dim`` KiB, e.g. 16 KiB
    per probed list at dim 16 and 768 KiB at dim 768 (nprobe 1024 at
    dim 768 is about 800 MB)."""
    sub, m, _ = books.shape
    residuals = np.asarray(residuals, dtype=np.float32)
    # (sub, n, m, 1) query components against (sub, 1, m, 256) entries.
    parts = residuals.reshape(len(residuals), m, sub).transpose(2, 0, 1)
    diffs = books[:, None] - parts[..., None]
    diffs *= diffs
    return _pairwise_sum(diffs)


def adc_scores(
    tables: np.ndarray, codes: np.ndarray, table_of: np.ndarray
) -> np.ndarray:
    """Approximate squared distances of coded vectors: row ``r`` of
    ``codes`` (``(N, m)`` uint8) priced against
    ``tables[table_of[r]]``; float32, bit-identical to
    ``table[np.arange(m), codes].sum(axis=1)`` over one table's codes."""
    _, m, k = tables.shape
    # (m, N) flat positions: the m lookups of a code lie along axis 0,
    # so the sum is m - 1 vector adds, not N short reductions.
    index = np.asarray(table_of, dtype=np.intp) * (m * k)
    index = index + np.arange(0, m * k, k, dtype=np.intp)[:, None]
    index += codes.T
    return _pairwise_sum(tables.reshape(-1)[index])


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=0)`` in the order numpy's float reduction adds
    ``n`` contiguous elements: one after another below 8; from 8 up,
    eight running sums over strides of 8 folded as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the
    remainder one by one; above 128, the two halves (the first rounded
    down to a multiple of 8) summed apart. Sums in place: ``terms`` is
    scratch."""
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    if n <= 128:
        r = terms[:8]
        whole = n - n % 8
        for i in range(8, whole, 8):
            r += terms[i : i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[whole:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
