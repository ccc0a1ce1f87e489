"""Workload generators: determinism and statistical shape."""

import zlib

import numpy as np
import pytest

from repro.workloads.text import TextWorkload
from repro.workloads.uuids import UuidWorkload, uuid_key
from repro.workloads.vectors import VectorWorkload


class TestTextWorkload:
    def test_deterministic_per_seed(self):
        a = TextWorkload(seed=1).documents(5, 200)
        b = TextWorkload(seed=1).documents(5, 200)
        assert a == b

    def test_different_seeds_differ(self):
        assert TextWorkload(seed=1).documents(3) != TextWorkload(seed=2).documents(3)

    def test_document_length_near_target(self):
        doc = TextWorkload(seed=0).document(500)
        assert 450 <= len(doc) <= 700

    def test_compresses_like_text(self):
        """Zipfian vocabulary should compress to ~25-45% like web text."""
        docs = TextWorkload(seed=0).documents(100, 400)
        blob = "\n".join(docs).encode()
        ratio = len(zlib.compress(blob)) / len(blob)
        assert 0.15 < ratio < 0.5

    def test_present_queries_hit(self):
        gen = TextWorkload(seed=3)
        docs = gen.documents(30, 200)
        for q in gen.present_queries(docs, 10):
            assert any(q in d for d in docs)

    def test_absent_queries_miss(self):
        gen = TextWorkload(seed=3)
        docs = gen.documents(30, 200)
        for q in gen.absent_queries(10):
            assert not any(q in d for d in docs)

    def test_no_nul_bytes(self):
        docs = TextWorkload(seed=5).documents(20, 100)
        assert all("\x00" not in d for d in docs)


class TestUuidWorkload:
    def test_unique_across_batches(self):
        gen = UuidWorkload(seed=0)
        keys = gen.batch(100) + gen.batch(100)
        assert len(set(keys)) == 200

    def test_deterministic(self):
        assert UuidWorkload(seed=1).batch(10) == UuidWorkload(seed=1).batch(10)

    def test_present_queries_are_generated_keys(self):
        gen = UuidWorkload(seed=0)
        keys = set(gen.batch(50))
        assert all(q in keys for q in gen.present_queries(20))

    def test_present_queries_require_data(self):
        with pytest.raises(ValueError):
            UuidWorkload().present_queries(1)

    def test_absent_queries_disjoint(self):
        gen = UuidWorkload(seed=0)
        keys = set(gen.batch(1000))
        assert all(q not in keys for q in gen.absent_queries(100))

    def test_key_width(self):
        gen = UuidWorkload(seed=0, nbytes=32)
        assert all(len(k) == 32 for k in gen.batch(5))
        assert len(uuid_key("x", 1, nbytes=8)) == 8


class TestVectorWorkload:
    def test_shape_and_dtype(self):
        gen = VectorWorkload(dim=24, n_clusters=4, seed=0)
        batch = gen.batch(50)
        assert batch.shape == (50, 24)
        assert batch.dtype == np.float32

    def test_clustered_structure(self):
        """Vectors sit near their centers: within-cluster distance much
        smaller than between-cluster distance."""
        gen = VectorWorkload(dim=16, n_clusters=4, cluster_scale=10.0,
                             noise_scale=0.5, seed=0)
        batch = gen.batch(400)
        from repro.indices.vector.kmeans import assign

        labels = assign(batch, gen.centers)
        residual = batch - gen.centers[labels]
        within = float(np.mean(np.sum(residual**2, axis=1)))
        spread = float(np.mean(np.sum((gen.centers - gen.centers.mean(0)) ** 2,
                                      axis=1)))
        assert within < spread / 10

    def test_queries_same_dim(self):
        gen = VectorWorkload(dim=8, seed=1)
        assert gen.queries(7).shape == (7, 8)
