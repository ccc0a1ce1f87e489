"""Batched k-means (k-means++ seeding, Lloyd iterations) on numpy.

Used twice by the IVF-PQ index: once for the coarse inverted-list
centroids and once for the product-quantizer codebooks, whose ``m``
sub-quantizers are ``m`` independent problems of identical shape. The
kernel therefore clusters a ``(b, n, d)`` stack in one go — the
sequential part of k-means++ (one draw per centre) runs ``k`` times for
the whole stack instead of ``b * k`` — and :func:`kmeans` is its
``b = 1`` case. No step loops over clusters or points in Python:

* a seeding draw is a ``cumsum`` over the closest-centre distances and a
  rank count against ``u * total`` (inverse-CDF sampling), and the
  distance to the one new centre is a direct difference, not a matmul;
* a Lloyd update is ``bincount`` segment sums over the flattened
  ``problem * k + label`` ids.

Every problem draws from its own ``default_rng(seed)`` and stops on its
own convergence, so a stacked run returns exactly what separate runs
with the same seeds return. Deterministic given the seeds.

The seeding's draws are fixed bit for bit (the committed index bytes
hang on them), so each step is made cheaper only in ways that cannot
move a bit:

* the closest-centre distances are kept in float64. Every float32
  value widens exactly, ``minimum`` picks the same one, and the
  float64 ``cumsum`` the draw needs then runs without a cast;
* the draw is the count of cumulative sums at or below the target,
  the first index whose sum exceeds it (the sums never decrease);
* for sub-vectors of at most 4 dimensions (the PQ codebooks) the
  distances to each new centre run on a subspace-major ``(b, d, n)``
  copy of the points: long vector operations instead of ``einsum``'s
  short rows, summed as ``(x0² + x1²) + (x2² + x3²)``, which is the
  order numpy's ``einsum("bnd,bnd->bn")`` uses for rows of at most 4
  terms (pinned against a verbatim copy of the ``einsum`` kernel in
  ``tests/test_build_kernels.py``). Wider rows (the coarse quantizer,
  ``d = dim``, at most ``nlist`` centres) keep ``einsum``.

Lloyd's assignment and PQ encoding go through a BLAS matmul, whose
summation order the library picks; they are left as they are.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Entries of the (b, rows, k) score block :func:`assign_batched` holds
#: at once (2 MB of float32).
SCORE_BLOCK = 1 << 19


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distances, (n, k)."""
    p2 = np.sum(points * points, axis=1, keepdims=True)
    c2 = np.sum(centers * centers, axis=1)
    d = p2 + c2 - 2.0 * points @ centers.T
    np.maximum(d, 0.0, out=d)
    return d


def assign_batched(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-centre index per point for a ``(b, n, d)`` stack of
    points against a ``(b, k, d)`` stack of centres; ``(b, n)`` int64.

    Ranks by ``|c|^2 - 2 p.c`` (the point's own norm does not move its
    argmin), chunked over points into one reused score block. The
    centres are scaled by -2 once: a power of two, so ``p.(-2c)`` is
    bit-identical to ``-2 (p.c)`` and the labels are exact.
    """
    b, n, _ = points.shape
    k = centers.shape[1]
    c2 = np.einsum("bkd,bkd->bk", centers, centers)[:, None, :]
    scaled_t = (centers * -2.0).transpose(0, 2, 1)
    out = np.empty((b, n), dtype=np.int64)
    chunk = max(1, min(n, SCORE_BLOCK // (b * k)))
    block = np.empty((b, chunk, k), dtype=np.result_type(points, centers))
    for start in range(0, n, chunk):
        rows = min(chunk, n - start)
        scores = block[:, :rows]
        np.matmul(points[:, start : start + rows], scaled_t, out=scores)
        scores += c2
        np.argmin(scores, axis=2, out=out[:, start : start + rows])
    return out


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every point."""
    return assign_batched(points[None], centers[None])[0]


def _kmeans_pp_init(
    points: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """k-means++ centres for every problem of a ``(b, n, d)`` stack."""
    b, n, d = points.shape
    problems = np.arange(b)
    centers = np.empty((b, k, d), dtype=points.dtype)
    first = np.array([rng.integers(n) for rng in rngs])
    centers[:, 0] = points[problems, first]
    uniforms = np.stack([rng.random(k - 1) for rng in rngs])
    distances = _distances_to_center(points)
    closest = distances(centers[:, 0]).astype(np.float64)  # exact
    cdf = np.empty_like(closest)
    live = np.ones(b, dtype=bool)
    for i in range(1, k):
        np.cumsum(closest, axis=1, out=cdf)
        total = cdf[:, -1]
        for j in np.flatnonzero(live & (total <= 0)):
            # All of this problem's points coincide with chosen
            # centres; fill the rest randomly and stop drawing for it.
            centers[j, i:] = points[j, rngs[j].integers(n, size=k - i)]
            live[j] = False
        if not live.any():
            break
        target = uniforms[:, i - 1] * total
        # First index whose cumulative weight exceeds the target: never
        # a zero-weight (already chosen) point.
        idx = np.minimum((cdf <= target[:, None]).sum(axis=1), n - 1)
        centers[live, i] = points[problems[live], idx[live]]
        np.minimum(closest, distances(centers[:, i]), out=closest)
    return centers


def _distances_to_center(points: np.ndarray):
    """``distances(center)``: the float32 squared distance of every
    point of a ``(b, n, d)`` stack to a ``(b, d)`` centre per problem,
    ``(b, n)``, bit-identical to ``einsum("bnd,bnd->bn", diff, diff)``
    (see the module docstring for the ``d <= 4`` layout). The result is
    a reused buffer, valid until the next call.
    """
    b, n, d = points.shape
    if d > 4:
        diff = np.empty_like(points)

        def distances(center: np.ndarray) -> np.ndarray:
            np.subtract(points, center[:, None], out=diff)
            return np.einsum("bnd,bnd->bn", diff, diff)

        return distances
    columns = np.ascontiguousarray(points.transpose(0, 2, 1))
    squares = np.empty_like(columns)
    summed = np.empty((b, n), dtype=points.dtype)

    def distances(center: np.ndarray) -> np.ndarray:
        np.subtract(columns, center[:, :, None], out=squares)
        np.multiply(squares, squares, out=squares)
        if d == 1:
            return squares[:, 0]
        np.add(squares[:, 0], squares[:, 1], out=summed)
        if d == 4:
            np.add(squares[:, 2], squares[:, 3], out=squares[:, 2])
        if d > 2:
            np.add(summed, squares[:, 2], out=summed)
        return summed

    return distances


def kmeans_batched(
    points: np.ndarray, k: int, *, iters: int, seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster each ``(n, d)`` slice of a ``(b, n, d)`` stack into ``k``
    groups, problem ``j`` seeded by ``seeds[j]``.

    Returns ``(centers (b, k, d), labels (b, n))`` with ``labels`` the
    nearest-centre assignment under the returned centres. ``k`` is
    clamped to ``n``.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    if points.ndim != 3 or points.shape[1] == 0 or len(seeds) != len(points):
        raise ValueError(
            f"need a (b, n > 0, d) stack with one seed per problem, got "
            f"shape {points.shape} and {len(seeds)} seeds"
        )
    b, n, d = points.shape
    k = max(1, min(k, n))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    centers = _kmeans_pp_init(points, k, rngs)
    labels = assign_batched(points, centers)
    live = np.arange(b)  # problems whose labels still move
    for _ in range(iters):
        if not len(live):
            break
        pts, lab = points[live], labels[live]
        flat = (lab + np.arange(len(live))[:, None] * k).ravel()
        counts = np.bincount(flat, minlength=len(live) * k)
        columns = pts.transpose(2, 0, 1).reshape(d, -1).astype(np.float64)
        sums = np.stack(
            [
                np.bincount(flat, weights=column, minlength=len(counts))
                for column in columns
            ],
            axis=1,
        )
        means = (sums / np.maximum(counts, 1)[:, None]).astype(np.float32)
        updated = means.reshape(len(live), k, d)
        empty = (counts == 0).reshape(len(live), k)
        for row in np.flatnonzero(empty.any(axis=1)):
            # Re-seed empty clusters from random points.
            holes = np.flatnonzero(empty[row])
            updated[row, holes] = pts[
                row, rngs[live[row]].integers(n, size=len(holes))
            ]
        centers[live] = updated
        new_labels = assign_batched(pts, updated)
        moved = (new_labels != lab).any(axis=1)
        labels[live] = new_labels
        live = live[moved]
    return centers, labels


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    iters: int = 15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``k`` groups.

    Returns ``(centers, assignments)``. ``k`` is clamped to ``len(points)``.
    """
    points = np.asarray(points, dtype=np.float32)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError(f"need a non-empty 2-D array, got shape {points.shape}")
    centers, labels = kmeans_batched(points[None], k, iters=iters, seeds=[seed])
    return centers[0], labels[0]
