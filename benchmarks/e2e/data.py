"""Generated inputs and lake builders (every byte derives from ``--seed``)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core import RottnestClient
from repro.formats import ColumnType, Field, Schema
from repro.lake import LakeTable, TableConfig
from repro.storage import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads import TextWorkload, UuidWorkload, VectorWorkload

LAKE_ROOT = "lake/t"
INDEX_DIR = "idx/t"
UUID_BYTES = 32
VECTOR_DIM = 32

FIELDS = {
    "text": Field("text", ColumnType.STRING),
    "uuid": Field("uuid", ColumnType.BINARY),
    "emb": Field("emb", ColumnType.VECTOR, VECTOR_DIM),
}
#: column -> (index type, build params)
INDEX_SPECS = {
    "text": ("fm", {"block_size": 32 * 1024, "sample_rate": 64}),
    "uuid": ("uuid_trie", None),
    "emb": ("ivf_pq", {"nlist": 16, "m": 8}),
}
TABLE_CONFIG = TableConfig(row_group_rows=2000, page_target_bytes=64 * 1024)


@dataclass
class Corpus:
    """The generated rows of a lake, file by file, as the oracle sees them."""

    columns: tuple[str, ...]
    files: list[dict[str, list]] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)  # filled once appended

    @property
    def rows_per_file(self) -> int:
        return len(self.files[0][self.columns[0]])

    def raw_bytes(self, column: str) -> int:
        """User bytes of one column (what an index build consumes)."""
        if column == "emb":
            return sum(f[column].nbytes for f in self.files)
        return sum(len(v) for f in self.files for v in f[column])

    def all_vectors(self) -> np.ndarray:
        return np.concatenate([f["emb"] for f in self.files])


#: The vocabulary (the "language") is a constant of the benchmark; the
#: seed draws the documents. A per-seed vocabulary moves trie fan-out and
#: FM alphabet statistics by several percent from seed to seed, which
#: would sit on top of every wall metric as run-to-run spread.
VOCABULARY_SEED = 2025


class Generators:
    """The three seeded workload generators behind every input."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.text = TextWorkload(seed=VOCABULARY_SEED, vocabulary_size=2000)
        self.text.rng = np.random.default_rng([seed, 0])
        self.uuid = UuidWorkload(seed=seed, nbytes=UUID_BYTES)
        self.vector = VectorWorkload(dim=VECTOR_DIM, n_clusters=32, seed=seed)

    def file(self, columns, rows: int, avg_chars: int = 200) -> dict[str, list]:
        out: dict[str, list] = {}
        for column in columns:
            if column == "text":
                out[column] = self.text.documents(rows, avg_chars=avg_chars)
            elif column == "uuid":
                out[column] = self.uuid.batch(rows)
            else:
                out[column] = self.vector.batch(rows)
        return out


def generate_corpus(gen: Generators, columns, files: int, rows: int) -> Corpus:
    corpus = Corpus(columns=tuple(columns))
    for _ in range(files):
        corpus.files.append(gen.file(columns, rows))
    return corpus


def new_store() -> InMemoryObjectStore:
    return InMemoryObjectStore(clock=SimClock(start=1_000_000.0))


def counter_entropy():
    """``key_entropy`` that makes index keys reproducible run to run."""
    counter = itertools.count()
    return lambda: next(counter).to_bytes(4, "big")


def create_lake(store, columns) -> tuple[LakeTable, RottnestClient]:
    schema = Schema.of(*(FIELDS[c] for c in columns))
    lake = LakeTable.create(store, LAKE_ROOT, schema, TABLE_CONFIG)
    client = RottnestClient(
        store, INDEX_DIR, lake, key_entropy=counter_entropy()
    )
    return lake, client


def build_lake(store, corpus: Corpus, *, index_every: int = 2) -> RottnestClient:
    """Append every corpus file and ``client.index`` each column after
    every ``index_every``-th append, so the lake ends fully covered with
    ``files / index_every`` index files per column."""
    lake, client = create_lake(store, corpus.columns)
    for i, columns in enumerate(corpus.files):
        lake.append(columns)
        store.clock.advance(1.0)
        if (i + 1) % index_every == 0:
            for column in corpus.columns:
                index_type, params = INDEX_SPECS[column]
                client.index(column, index_type, params=params)
    # One LakeTable instance numbered the files, so path order is
    # append order.
    corpus.paths = list(lake.snapshot().file_paths)
    return client


def index_sizes(client: RottnestClient) -> dict:
    """Live index bytes per index type plus the lake's data bytes."""
    sizes: dict[str, int] = {}
    for record in client.meta.records():
        sizes[record.index_type] = sizes.get(record.index_type, 0) + record.size
    sizes["data"] = client.lake.snapshot().total_bytes
    return sizes
