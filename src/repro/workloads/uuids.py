"""High-cardinality identifier workload.

Stands in for the paper's 2 billion 128-byte hashes (observability /
blockchain style lookups). Deterministic SHA-256-derived keys; "present"
queries pick keys that exist, "absent" queries are fresh hashes from a
disjoint namespace.
"""

from __future__ import annotations

import hashlib

import numpy as np


def uuid_key(namespace: str, i: int, nbytes: int = 16) -> bytes:
    """Deterministic pseudo-UUID ``i`` of ``namespace``.

    Widths beyond one SHA-256 digest (32 bytes) are built by
    concatenating counter-salted digests, so the paper's 128-byte
    hashes are supported.
    """
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        out += hashlib.sha256(
            f"{namespace}:{i}:{counter}".encode("utf-8")
        ).digest()
        counter += 1
    return bytes(out[:nbytes])


class UuidWorkload:
    """Generator of identifier batches and lookup queries."""

    def __init__(self, seed: int = 0, nbytes: int = 16) -> None:
        self.seed = seed
        self.nbytes = nbytes
        self.rng = np.random.default_rng(seed)
        self._generated = 0

    def batch(self, count: int) -> list[bytes]:
        """Next ``count`` unique keys (across all batches)."""
        start = self._generated
        self._generated += count
        return [
            uuid_key(f"ns{self.seed}", i, self.nbytes)
            for i in range(start, start + count)
        ]

    def present_queries(self, count: int) -> list[bytes]:
        """Keys guaranteed to have been generated already."""
        if self._generated == 0:
            raise ValueError("no keys generated yet")
        picks = self.rng.integers(self._generated, size=count)
        return [uuid_key(f"ns{self.seed}", int(i), self.nbytes) for i in picks]

    def absent_queries(self, count: int) -> list[bytes]:
        """Keys from a namespace that is never inserted."""
        picks = self.rng.integers(1 << 40, size=count)
        return [
            uuid_key(f"absent{self.seed}", int(i), self.nbytes) for i in picks
        ]
