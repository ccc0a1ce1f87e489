"""IVF-PQ vector index (§V-C3).

The paper picks a centroid-based index over graph-based ones because
object-storage search cost is dominated by *dependent request chains*,
and IVF-PQ needs exactly two: fetch the coarse centroids (usually free,
they ride in the file tail), then fetch the ``nprobe`` selected inverted
lists in one parallel round. The ``refine`` stage — re-ranking the best
PQ candidates with full-precision vectors — happens *in situ* against
the Parquet pages and is orchestrated by the search client.

Components:

* ``pq`` — the product-quantizer codebooks,
* ``list{i}`` — inverted list ``i``: entry locations (global page id +
  row offset) and PQ codes of the residuals,
* ``centroids`` — coarse centroids, written last so they land in the
  cached tail.

A query ranks the centroids, fetches the ``nprobe`` nearest lists in one
round, then scores them as arrays: the residuals of every non-empty
probed list against the codebooks in one ADC table pass, every code in
one gather (:mod:`repro.indices.vector.pq`), and one lexsort for
the best ``limit`` by ``(score, gid, offset)``. Candidates leave as
parallel ``(gids, offsets, scores)`` arrays.

Merging retrains from decoded (approximately reconstructed) vectors by
default; the maintenance layer prefers rebuilding from the raw Parquet
pages when they are still available (§IV-C allows compaction to read
raw files).
"""

from __future__ import annotations

from typing import ClassVar, Iterable

import numpy as np

from repro.errors import RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.indices.base import IndexBuilder, ScoringQuerier, paired
from repro.indices.vector.kmeans import assign, kmeans, squared_distances
from repro.indices.vector.pq import (
    ProductQuantizer,
    adc_scores,
    adc_tables,
    sub_major_codebooks,
)
from repro.storage.stats import barrier
from repro.util.binio import BinaryReader, BinaryWriter

TYPE_NAME = "ivf_pq"
DEFAULT_NLIST = 64
DEFAULT_M = 16
DEFAULT_TRAIN_SAMPLE = 20_000
#: Below this many rows, indexing aborts in favour of brute force
#: (paper footnote 2: vector indices have a minimum size).
MIN_ROWS = 256


class IvfPqBuilder(IndexBuilder):
    """Trained IVF-PQ structure in memory."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = MIN_ROWS
    prefers_raw_rebuild: ClassVar[bool] = True

    def __init__(
        self,
        centroids: np.ndarray,
        pq: ProductQuantizer,
        lists: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        # lists[i] = (gids u32, offsets u32, codes (n_i, m) u8)
        self.centroids = centroids.astype(np.float32)
        self.pq = pq
        self.lists = lists

    @property
    def nlist(self) -> int:
        return len(self.centroids)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @classmethod
    def build(
        cls,
        pages: Iterable[tuple[int, list]],
        *,
        nlist: int = DEFAULT_NLIST,
        m: int = DEFAULT_M,
        train_sample: int = DEFAULT_TRAIN_SAMPLE,
        seed: int = 0,
        **_params,
    ) -> "IvfPqBuilder":
        gid_list: list[np.ndarray] = []
        offset_list: list[np.ndarray] = []
        vec_list: list[np.ndarray] = []
        for gid, values in pages:
            try:
                vectors = np.asarray(values, dtype=np.float32)
            except ValueError as exc:
                raise RottnestIndexError(
                    f"page {gid} values are not numeric vectors: {exc}"
                ) from exc
            if vectors.ndim != 2:
                raise RottnestIndexError(
                    f"page {gid} values are not a vector batch"
                )
            count = len(vectors)
            gid_list.append(np.full(count, gid, dtype=np.uint32))
            offset_list.append(np.arange(count, dtype=np.uint32))
            vec_list.append(vectors)
        if not vec_list:
            raise RottnestIndexError("cannot build an IVF-PQ over zero pages")
        vectors = np.concatenate(vec_list)
        gids = np.concatenate(gid_list)
        offsets = np.concatenate(offset_list)
        return cls._train(
            vectors, gids, offsets, nlist=nlist, m=m,
            train_sample=train_sample, seed=seed,
        )

    @classmethod
    def _train(
        cls,
        vectors: np.ndarray,
        gids: np.ndarray,
        offsets: np.ndarray,
        *,
        nlist: int,
        m: int,
        train_sample: int,
        seed: int,
    ) -> "IvfPqBuilder":
        n = len(vectors)
        rng = np.random.default_rng(seed)
        sample = vectors
        if n > train_sample:
            sample = vectors[rng.choice(n, size=train_sample, replace=False)]
        nlist = max(1, min(nlist, n))
        # kmeans returns the sample's labels under the final centroids;
        # below ``train_sample`` rows the sample is the data itself.
        centroids, sample_labels = kmeans(sample, nlist, seed=seed)
        if sample is vectors:
            labels = sample_labels
            residuals = sample_residuals = vectors - centroids[labels]
        else:
            labels = assign(vectors, centroids)
            residuals = vectors - centroids[labels]
            sample_residuals = sample - centroids[sample_labels]
        pq = ProductQuantizer.train(sample_residuals, m, seed=seed)
        codes = pq.encode(residuals)
        lists: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for c in range(len(centroids)):
            members = np.nonzero(labels == c)[0]
            lists.append((gids[members], offsets[members], codes[members]))
        return cls(centroids, pq, lists)

    # -- serialization ------------------------------------------------
    def write(self, writer: IndexFileWriter) -> None:
        writer.add_component("pq", self.pq.serialize())
        for i, (gids, offsets, codes) in enumerate(self.lists):
            payload = BinaryWriter()
            payload.write_uvarint(len(gids))
            payload.write_bytes(gids.astype("<u4").tobytes())
            payload.write_bytes(offsets.astype("<u4").tobytes())
            payload.write_bytes(codes.astype(np.uint8).tobytes())
            writer.add_component(f"list{i}", payload.getvalue())
        # Centroids last: they land in the cached file tail, making the
        # first search round free for typical nlist values.
        writer.add_component(
            "centroids", self.centroids.astype("<f4").tobytes()
        )
        writer.params.update(
            {"nlist": self.nlist, "dim": self.dim, "m": self.pq.m}
        )

    @classmethod
    def load(cls, reader: IndexFileReader) -> "IvfPqBuilder":
        params = reader.params
        nlist, dim, m = params["nlist"], params["dim"], params["m"]
        centroids = np.frombuffer(
            reader.component("centroids"), dtype="<f4"
        ).reshape(nlist, dim)
        pq = ProductQuantizer.deserialize(reader.component("pq"))
        lists = []
        for blob in reader.components([f"list{i}" for i in range(nlist)]):
            lists.append(_parse_list(blob, m))
        return cls(centroids.copy(), pq, lists)

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["IvfPqBuilder"], gid_offsets: list[int]
    ) -> "IvfPqBuilder":
        """Retrain over approximately-reconstructed vectors.

        Residual PQ decoding (centroid + codebook entry) recovers each
        vector to within quantization error; the merged index's recall
        is nearly identical to a from-scratch rebuild. The maintenance
        layer uses a raw-page rebuild instead whenever the covered
        Parquet files still exist (``prefers_raw_rebuild``).

        IVF-PQ cannot stream: the k-means retraining samples over *all*
        parts' decoded vectors at once, so every part is held until the
        retrain (folding part by part would sample differently and
        change the committed bytes).
        """
        pairs = list(paired(parts, gid_offsets))
        all_vecs, all_gids, all_offs = [], [], []
        for part, shift in pairs:
            for c, (gids, offsets, codes) in enumerate(part.lists):
                if not len(gids):
                    continue
                vecs = part.pq.decode(codes) + part.centroids[c]
                all_vecs.append(vecs)
                all_gids.append(gids.astype(np.uint32) + np.uint32(shift))
                all_offs.append(offsets)
        vectors = np.concatenate(all_vecs)
        nlist = max(p.nlist for p, _ in pairs)
        m = pairs[0][0].pq.m
        return cls._train(
            vectors,
            np.concatenate(all_gids),
            np.concatenate(all_offs),
            nlist=nlist,
            m=m,
            train_sample=DEFAULT_TRAIN_SAMPLE,
            seed=0,
        )

    # -- query-adaptive refinement (cracking) -------------------------
    def refine_cells(
        self,
        cells: Iterable[int],
        *,
        min_cell_rows: int = 32,
        seed: int = 0,
    ) -> int:
        """Split hot inverted lists in two, in place (index cracking).

        For each requested cell with at least ``min_cell_rows``
        members, the members are approximately reconstructed (centroid
        + decoded PQ residual), 2-means re-clusters them, the first
        child replaces the cell and the second is appended at the end —
        so untouched lists keep their exact bytes and ordinals, and the
        lists remain a partition of all indexed vectors (exhaustive
        probes stay exact). The PQ codebooks are **reused**: only the
        residuals are re-encoded against the child centroids, which is
        what makes refinement an incremental per-cell rewrite instead
        of a full retrain (the streaming-merge economics, applied to
        one cell at a time).

        Deterministic for a given (input bytes, cells, seed): the
        2-means seed is derived per cell ordinal, so a crashed-and-
        retried refinement rebuilds byte-identical output. Returns the
        number of cells actually split (degenerate cells — too small,
        out of range, or with coincident members — are skipped).
        """
        split = 0
        for c in sorted({int(c) for c in cells}):
            if c < 0 or c >= len(self.lists):
                continue
            gids, offsets, codes = self.lists[c]
            if len(gids) < max(2, min_cell_rows):
                continue
            vectors = self.pq.decode(codes) + self.centroids[c]
            children, labels = kmeans(vectors, 2, seed=seed * 1_000_003 + c)
            if len(children) < 2 or labels.min() == labels.max():
                continue  # all members coincide; nothing to split
            halves = []
            for child in (0, 1):
                members = np.nonzero(labels == child)[0]
                residuals = vectors[members] - children[child]
                halves.append(
                    (gids[members], offsets[members], self.pq.encode(residuals))
                )
            self.centroids[c] = children[0]
            self.lists[c] = halves[0]
            self.centroids = np.concatenate(
                [self.centroids, children[1:2].astype(np.float32)]
            )
            self.lists.append(halves[1])
            split += 1
        return split


class IvfPqQuerier(ScoringQuerier):
    """Two-round query: centroids (tail) → probed lists (one round)."""

    type_name: ClassVar[str] = TYPE_NAME

    def __init__(self, reader: IndexFileReader) -> None:
        super().__init__(reader)
        self.nlist: int = reader.params["nlist"]
        self.dim: int = reader.params["dim"]
        self.m: int = reader.params["m"]
        #: Cell ordinals the most recent :meth:`candidates` call probed
        #: — the per-query signal the cracking heat map aggregates to
        #: decide which inverted lists are worth splitting.
        self.last_probed_cells: tuple[int, ...] = ()

    @classmethod
    def warm(cls, reader: IndexFileReader) -> None:
        super().warm(reader)
        cls(reader).centroids  # ranked before any list is fetched

    @property
    def centroids(self) -> np.ndarray:
        shape = (self.nlist, self.dim)

        def centroids(blob: bytes) -> np.ndarray:
            return np.frombuffer(blob, dtype="<f4").reshape(shape)

        return self.reader.decoded("centroids", centroids)

    @property
    def codebooks(self) -> np.ndarray:
        """The PQ codebooks, decoded once into the ``(sub, m, 256)``
        layout :func:`~repro.indices.vector.pq.adc_tables` scans."""
        m, dim = self.m, self.dim

        def codebooks(blob: bytes) -> np.ndarray:
            return sub_major_codebooks(blob, m=m, dim=dim)

        return self.reader.decoded("pq", codebooks)

    def candidates(
        self, query, *, nprobe: int = 8, limit: int = 200
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best ``limit`` PQ-approximate candidates from the ``nprobe``
        nearest inverted lists, as parallel ``(gids, offsets, scores)``
        arrays in ``(score, gid, offset)`` order."""
        vector = np.asarray(query, dtype=np.float32).reshape(-1)
        if vector.shape[0] != self.dim:
            raise RottnestIndexError(
                f"query dim {vector.shape[0]} != index dim {self.dim}"
            )
        nprobe = max(1, min(nprobe, self.nlist))
        centroids = self.centroids
        dists = squared_distances(vector.reshape(1, -1), centroids).ravel()
        probe = np.argsort(dists)[:nprobe]
        self.last_probed_cells = tuple(int(c) for c in probe)
        barrier()  # list fetches depend on centroid ranking
        m = self.m

        def inverted_list(blob: bytes):
            return _parse_list(blob, m)

        lists = [self.reader.decoded(f"list{c}", inverted_list) for c in probe]
        books = self.codebooks
        cells = [c for c, (gids, _, _) in zip(probe, lists) if len(gids)]
        lists = [lst for lst in lists if len(lst[0])]
        if not lists:
            empty = np.empty(0, np.int64)
            return empty, empty, np.empty(0, np.float64)
        gids, offsets, codes = (np.concatenate(part) for part in zip(*lists))
        # Every probed list's table in one pass, every code in one gather.
        tables = adc_tables(books, vector - centroids[cells])
        table_of = np.repeat(np.arange(len(lists)), [len(g) for g, _, _ in lists])
        approx = adc_scores(tables, codes, table_of)
        order = np.lexsort((offsets, gids, approx))[:limit]
        return (
            gids[order].astype(np.int64),
            offsets[order].astype(np.int64),
            approx[order].astype(np.float64),
        )


def _parse_list(blob: bytes, m: int):
    reader = BinaryReader(blob)
    count = reader.read_uvarint()
    gids = np.frombuffer(reader.read_bytes(4 * count), dtype="<u4")
    offsets = np.frombuffer(reader.read_bytes(4 * count), dtype="<u4")
    codes = np.frombuffer(reader.read_bytes(m * count), dtype=np.uint8).reshape(
        count, m
    )
    return gids, offsets, codes
