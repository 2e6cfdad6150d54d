"""Engineering benchmark: vectorized vs legacy-argsort retrieval latency.

The retrieval core replaced a full ``np.argsort`` scan (O(n log n)) with a
masked vectorized ``argmax`` (O(n)), and same-tick arrivals now score as
one matrix-matrix product (``retrieve_batch``) instead of one matvec plus
argsort each.  This bench measures per-query retrieval latency against
caches of 1k / 10k / 100k / 1M entries for three implementations:

* ``legacy_argsort`` — the pre-rebuild path (matvec + full descending
  argsort + python scan), replayed per query;
* ``vectorized`` — the rebuilt single-query path (matvec + masked argmax);
* ``batched`` — the rebuilt batch path (one gemm + row argmax), the hot
  path the Request Scheduler uses for same-tick arrival groups.

The embedding dimension matches the repo's semantic space (50), and the
acceptance bar is the batched path's >= 5x at the paper's 100k operating
point (§5.2: 0.05 s scans at 100k entries).

``REPRO_BENCH_SCALE=smoke`` stops at 100k entries; other scales include
the 1M point.
"""

from __future__ import annotations

import time

import numpy as np

from repro._rng import rng_for
from repro.core.cache import VectorCache
from repro.experiments.reporting import ExperimentResult

import _output
from conftest import bench_scale

EMBED_DIM = 50  # matches SemanticSpace().config.embed_dim
N_QUERIES = 32
SIZES = (1_000, 10_000, 100_000, 1_000_000)


def _legacy_matrix(cache: VectorCache) -> np.ndarray:
    """The float64 slot-indexed embedding matrix the pre-rebuild path
    scanned, rebuilt from the cache's entries (zero rows for dead
    slots)."""
    matrix = np.zeros((cache.capacity, EMBED_DIM))
    for slot, entry in enumerate(cache._entries):
        if entry is not None:
            matrix[slot] = entry.embedding
    return matrix


def _legacy_argsort_retrieve(
    cache: VectorCache, matrix: np.ndarray, query: np.ndarray
):
    """The pre-rebuild retrieval path: a float64 matrix-vector product,
    a full descending argsort, then the first live slot."""
    qnorm = float(np.linalg.norm(query))
    sims = matrix @ (query / qnorm)
    for slot in np.argsort(sims)[::-1]:
        entry = cache._entries[int(slot)]
        if entry is not None:
            return entry, float(sims[int(slot)])
    return None, 0.0


def _build_cache(n_entries: int) -> VectorCache:
    rng = rng_for("bench-retrieval-scale", n_entries)
    matrix = rng.standard_normal((n_entries, EMBED_DIM))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    cache = VectorCache(capacity=n_entries, embed_dim=EMBED_DIM)
    for i in range(n_entries):
        cache.insert(i, matrix[i], now=float(i))
    return cache


def _per_query_s(fn, repeats=3) -> float:
    fn()  # warm BLAS paths and page in the matrix outside the timed region
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats / N_QUERIES


def test_retrieval_scale(benchmark):
    sizes = [s for s in SIZES if bench_scale() != "smoke" or s <= 100_000]
    rng = rng_for("bench-retrieval-scale", "queries")
    queries = rng.standard_normal((N_QUERIES, EMBED_DIM))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    def experiment() -> ExperimentResult:
        result = ExperimentResult(
            experiment_id="retrieval-scale",
            title="vectorized/batched vs legacy argsort retrieval",
            paper_reference="§5.2: 0.05 s scans over 100k cached entries",
        )
        for n_entries in sizes:
            cache = _build_cache(n_entries)
            matrix = _legacy_matrix(cache)
            legacy_s = _per_query_s(
                lambda: [
                    _legacy_argsort_retrieve(cache, matrix, q)
                    for q in queries
                ]
            )
            del matrix
            single_s = _per_query_s(
                lambda: [cache.retrieve(q) for q in queries]
            )
            batch_s = _per_query_s(lambda: cache.retrieve_batch(queries))
            result.add_row(
                entries=n_entries,
                legacy_argsort_ms=legacy_s * 1e3,
                vectorized_ms=single_s * 1e3,
                batched_ms=batch_s * 1e3,
                vectorized_speedup=legacy_s / single_s,
                batched_speedup=legacy_s / batch_s,
            )
        return result

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print()
    print(result.render())
    _output.emit(result)

    by_size = {row["entries"]: row for row in result.rows}
    # The acceptance bar: >= 5x at the paper's 100k operating point on the
    # batched hot path, and neither rebuilt path may ever be slower.
    assert by_size[100_000]["batched_speedup"] >= 5.0
    for row in result.rows:
        assert row["vectorized_speedup"] >= 1.0
        assert row["batched_speedup"] >= 1.0
