"""The index build kernels against the versions they replaced.

``reference_suffix_array`` and ``reference_kmeans_pp_init`` are the
kernels as they were before the refined suffix sort and the
subspace-major seeding, kept verbatim. Every file an FM or IVF-PQ build
writes must come out byte-identical with the reference monkeypatched
in; the comparison is live (both builds on this machine), because IVF
bytes also depend on the local BLAS kernel.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indices.fm.bwt import suffix_array
from repro.indices.fm.fm_index import FmBuilder
from repro.indices.vector.ivf_pq import IvfPqBuilder
from repro.workloads.text import TextWorkload
from repro.workloads.vectors import VectorWorkload

from tests.test_bwt import naive_suffix_array
from tests.test_fm_merge import file_bytes
from tests.test_vector_index import store_ivf

#: The modules, not the functions the packages re-export.
fm_module = importlib.import_module("repro.indices.fm.fm_index")
kmeans_module = importlib.import_module("repro.indices.vector.kmeans")


# -- the previous kernels, verbatim ------------------------------------
REFERENCE_PACKED_SYMBOLS = 7
REFERENCE_SYMBOL_BITS = 9


def reference_suffix_array(text: bytes) -> np.ndarray:
    """Prefix doubling from seven packed symbols, every suffix re-sorted
    by one combined ``rank * (n + 1) + next_rank`` key each pass."""
    n = len(text) + 1
    chars = np.frombuffer(text, dtype=np.uint8)
    key = np.zeros(n, dtype=np.int64)
    for j in range(REFERENCE_PACKED_SYMBOLS):
        key <<= REFERENCE_SYMBOL_BITS
        present = key[: max(n - 1 - j, 0)]
        present |= chars[j:]
        present += 1
    scratch = np.empty(n, dtype=np.int64)
    distinct = np.empty(n, dtype=bool)
    distinct[0] = False
    k = REFERENCE_PACKED_SYMBOLS
    while True:
        order = np.argsort(key)
        np.take(key, order, out=scratch, mode="clip")
        np.not_equal(scratch[1:], scratch[:-1], out=distinct[1:])
        dense = np.cumsum(distinct, dtype=np.int32)
        if dense[-1] == n - 1:
            return order
        scratch[order] = dense
        del dense, order
        np.multiply(scratch, n + 1, out=key)
        key[: n - k] += scratch[k:]
        key[: n - k] += 1
        k *= 2


def reference_kmeans_pp_init(points, k, rngs):
    """k-means++ with a rank count per draw and an ``einsum`` distance
    to each new centre over the ``(b, n, d)`` stack."""
    b, n, d = points.shape
    problems = np.arange(b)
    centers = np.empty((b, k, d), dtype=points.dtype)
    first = np.array([rng.integers(n) for rng in rngs])
    centers[:, 0] = points[problems, first]
    uniforms = np.stack([rng.random(k - 1) for rng in rngs])
    diff = points - centers[:, :1]
    closest = np.einsum("bnd,bnd->bn", diff, diff)
    live = np.ones(b, dtype=bool)
    for i in range(1, k):
        cdf = np.cumsum(closest, axis=1, dtype=np.float64)
        total = cdf[:, -1]
        for j in np.flatnonzero(live & (total <= 0)):
            centers[j, i:] = points[j, rngs[j].integers(n, size=k - i)]
            live[j] = False
        if not live.any():
            break
        target = uniforms[:, i - 1] * total
        idx = np.minimum((cdf <= target[:, None]).sum(axis=1), n - 1)
        centers[live, i] = points[problems[live], idx[live]]
        np.subtract(points, centers[:, i : i + 1], out=diff)
        np.minimum(closest, np.einsum("bnd,bnd->bn", diff, diff), out=closest)
    return centers


# -- byte pins: each file built twice, once per kernel -------------------
def word_pages(seed: int, count: int, per_page: int = 40):
    """Pages of e2e-like word text (a 2,000-word Zipf vocabulary)."""
    gen = TextWorkload(seed=seed, vocabulary_size=2000)
    return [(g, gen.documents(per_page, avg_chars=80)) for g in range(count)]


def fm_file(pages, **params) -> bytes:
    return file_bytes(FmBuilder.build(pages, **params))


def fm_merge_file(parts) -> bytes:
    builders, offsets, shift = [], [], 0
    for pages in parts:
        builders.append(FmBuilder.build(pages, block_size=4096, sample_rate=32))
        offsets.append(shift)
        shift += len(pages)
    return file_bytes(FmBuilder.merge_streaming(builders, offsets))


def ivf_file(dim: int, m: int, *, merged: bool = False) -> bytes:
    data = VectorWorkload(dim=dim, n_clusters=10, seed=dim + m).batch(3000)
    pages = [(g, data[g * 250 : (g + 1) * 250]) for g in range(12)]
    builder = IvfPqBuilder.build(pages, nlist=24, m=m, seed=0)
    if merged:
        other = IvfPqBuilder.build(pages[:5], nlist=16, m=m, seed=3)
        builder = IvfPqBuilder.merge_streaming([builder, other], [0, 12])
        pages = pages + pages[:5]
    store, _ = store_ivf(builder, len(pages), 250)
    return store.get("v.index")


class TestFilesEqualReferenceKernels:
    @pytest.mark.parametrize("store_pagemap", [True, False])
    def test_fm_file_bytes_equal_reference(self, monkeypatch, store_pagemap):
        pages = word_pages(1, 60)  # ~200 KB: several doublings and chunks
        built = fm_file(pages, store_pagemap=store_pagemap)
        monkeypatch.setattr(fm_module, "suffix_array", reference_suffix_array)
        assert built == fm_file(pages, store_pagemap=store_pagemap)

    def test_fm_merge_bytes_equal_reference(self, monkeypatch):
        parts = [word_pages(seed, 15) for seed in (2, 3, 4)]
        merged = fm_merge_file(parts)
        monkeypatch.setattr(fm_module, "suffix_array", reference_suffix_array)
        assert merged == fm_merge_file(parts)

    @pytest.mark.parametrize(
        "dim, m", [(16, 8), (16, 4), (32, 16), (32, 8)]
    )  # PQ sub-vectors of 2 and 4 under coarse dims of 16 and 32
    def test_ivfpq_file_bytes_equal_reference(self, monkeypatch, dim, m):
        built = ivf_file(dim, m)
        monkeypatch.setattr(kmeans_module, "_kmeans_pp_init", reference_kmeans_pp_init)
        assert built == ivf_file(dim, m)

    def test_ivfpq_merge_bytes_equal_reference(self, monkeypatch):
        built = ivf_file(16, 4, merged=True)
        monkeypatch.setattr(kmeans_module, "_kmeans_pp_init", reference_kmeans_pp_init)
        assert built == ivf_file(16, 4, merged=True)


# -- properties -----------------------------------------------------------
#: Alphabet sizes at every packed-key width boundary.
ALPHABET_SIZES = [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256]


@st.composite
def boundary_alphabet_texts(draw):
    """A text over exactly ``size`` distinct bytes (each one present),
    ``size`` at a width boundary, its length near a key's symbol count
    or well past it."""
    size = draw(st.sampled_from(ALPHABET_SIZES))
    alphabet = draw(st.permutations(range(256)))[:size]
    extra = draw(
        st.one_of(st.integers(0, 70), st.integers(0, 600))
    )
    body = draw(
        st.lists(st.sampled_from(alphabet), min_size=extra, max_size=extra)
    )
    text = list(alphabet) + body
    draw(st.randoms(use_true_random=False)).shuffle(text)
    return bytes(text)


@st.composite
def periodic_texts(draw):
    """A short unit repeated past 16 first keys (63 symbols each at
    most), so equal prefixes outlast four or more doublings."""
    unit = draw(st.binary(min_size=1, max_size=5))
    length = draw(st.integers(16 * 63 + 20, 3000))
    tail = draw(st.binary(max_size=3))
    return (unit * (length // len(unit) + 1))[:length] + tail


class TestSuffixArrayProperties:
    @given(boundary_alphabet_texts())
    @settings(max_examples=150, deadline=None)
    def test_equals_naive_at_alphabet_width_boundaries(self, text):
        assert suffix_array(text).tolist() == naive_suffix_array(text)

    @given(
        st.sampled_from(ALPHABET_SIZES),
        st.integers(-2, 2),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_naive_at_lengths_around_symbols_per_key(
        self, size, delta, multiple, seed
    ):
        """Lengths within two of a multiple of the key's symbol count
        for that alphabet (10 symbols of 6 bits, 7 of 9, 63 of 1...)."""
        bits = max(1, int(size).bit_length())
        per_key = 63 // bits
        length = max(0, per_key * multiple + delta)
        rng = np.random.default_rng(seed)
        alphabet = rng.permutation(256)[:size].astype(np.uint8)
        text = alphabet[rng.integers(size, size=length)].tobytes()
        assert suffix_array(text).tolist() == naive_suffix_array(text)

    @given(periodic_texts())
    @settings(max_examples=80, deadline=None)
    def test_equals_naive_on_periodic_texts(self, text):
        assert suffix_array(text).tolist() == naive_suffix_array(text)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120_000))
    @settings(max_examples=6, deadline=None)
    def test_equals_reference_on_long_word_text(self, seed, length):
        """Past one chunk of groups: word text up to ~120 KB."""
        gen = TextWorkload(seed=seed % 1000, vocabulary_size=2000)
        text = "".join(gen.documents(length // 300 + 1, avg_chars=300))
        text = text.encode()[:length]
        assert np.array_equal(suffix_array(text), reference_suffix_array(text))


def _stack(kind: str, b: int, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(b, n, d)).astype(np.float32)
    if kind == "scaled":
        scale = 10.0 ** rng.integers(-3, 4, size=(b, 1, d))
        return (rng.normal(size=(b, n, d)) * scale).astype(np.float32)
    if kind == "duplicates":
        # A few distinct rows, repeated: many zero weights and ties.
        rows = rng.integers(-2, 3, size=(b, max(1, n // 50), d))
        pick = rng.integers(rows.shape[1], size=(b, n))
        return np.take_along_axis(rows, pick[..., None], axis=1).astype(np.float32)
    # "identical": every point of a problem equal (total <= 0 at once).
    row = rng.normal(size=(b, 1, d)).astype(np.float32)
    return np.repeat(row, n, axis=1)


class TestKmeansSeedingProperties:
    @given(
        st.integers(1, 16),
        st.integers(1, 2000),
        st.sampled_from([1, 2, 3, 4, 5, 8, 16, 32]),
        st.integers(1, 256),
        st.sampled_from(["normal", "scaled", "duplicates", "identical"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_bit_for_bit(self, b, n, d, k, kind, seed):
        """Same centres and the same generator states after (Lloyd's
        re-seeding of empty clusters draws from them next)."""
        k = min(k, n)
        points = _stack(kind, b, n, d, seed)
        seeds = [seed + j for j in range(b)]
        rngs = [np.random.default_rng(s) for s in seeds]
        ref_rngs = [np.random.default_rng(s) for s in seeds]
        centers = kmeans_module._kmeans_pp_init(points, k, rngs)
        expected = reference_kmeans_pp_init(points, k, ref_rngs)
        assert centers.dtype == expected.dtype
        assert np.array_equal(centers, expected)
        assert [r.bit_generator.state for r in rngs] == [
            r.bit_generator.state for r in ref_rngs
        ]

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_mixed_stack_with_identical_problems(self, d):
        """Healthy, duplicate-heavy and all-identical problems in one
        stack stop drawing at different steps."""
        parts = [
            _stack("normal", 3, 400, d, 1),
            _stack("duplicates", 3, 400, d, 2),
            _stack("identical", 2, 400, d, 3),
        ]
        points = np.concatenate(parts)
        rngs = [np.random.default_rng(s) for s in range(8)]
        ref_rngs = [np.random.default_rng(s) for s in range(8)]
        assert np.array_equal(
            kmeans_module._kmeans_pp_init(points, 256, rngs),
            reference_kmeans_pp_init(points, 256, ref_rngs),
        )
        assert [r.bit_generator.state for r in rngs] == [
            r.bit_generator.state for r in ref_rngs
        ]

    @given(
        st.integers(1, 16),
        st.integers(1, 2000),
        st.sampled_from([1, 2, 3, 4, 5, 8, 16, 32]),
        st.sampled_from(["normal", "scaled", "duplicates"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_distances_equal_einsum_bit_for_bit(self, b, n, d, kind, seed):
        """The draw rarely turns on a distance's last bit, so equal
        centres alone would not show a changed summation order: each
        step's distances are compared with ``einsum``'s directly."""
        points = _stack(kind, b, n, d, seed)
        distances = kmeans_module._distances_to_center(points)
        rng = np.random.default_rng(seed)
        for center in (
            points[np.arange(b), rng.integers(n, size=b)],
            _stack("scaled", b, 1, d, seed + 1)[:, 0],
        ):
            diff = points - center[:, None]
            expected = np.einsum("bnd,bnd->bn", diff, diff)
            got = distances(center)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
