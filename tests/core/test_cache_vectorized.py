"""Vectorized retrieval equivalence and the eviction-policy registry.

The retrieval core screens every slot with one vectorized product and
re-scores only the near-winners; these tests pin it, bit for bit, to a
brute-force argsort over the canonical per-entry similarity on
randomized caches (including dead slots, duplicate and ulp-apart rows,
and adversarial all-negative similarities), and pin the eviction order
of every policy in the registry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import rng_for, unit_vector
from repro.core.ann import IVFParams
from repro.core.cache import (
    EVICTION_POLICIES,
    EvictionPolicy,
    VectorCache,
    make_eviction_policy,
    register_eviction_policy,
)

DIM = 16


def _vec(key):
    return unit_vector(rng_for("vec-cache-test", key), DIM)


def _reference_ranking(cache, query):
    """Brute force: every live entry with its canonical similarity
    ``float(np.dot(embedding, unit query))``, best first, lowest slot
    breaking exact ties."""
    qnorm = float(np.linalg.norm(query))
    if len(cache) == 0 or qnorm == 0.0:
        return []
    qn = query / qnorm
    scored = [
        (float(np.dot(e.embedding, qn)), cache._slot_of[e.entry_id], e)
        for e in cache.entries()
    ]
    ranked = sorted(scored, key=lambda t: (-t[0], t[1]))
    return [(e, sim) for sim, _, e in ranked]


def _reference_argsort_retrieve(cache, query):
    """The brute-force canonical argmax the screened scan must
    reproduce bit for bit."""
    ranking = _reference_ranking(cache, query)
    return ranking[0] if ranking else (None, 0.0)


def _randomized_cache(seed, capacity, n_inserts, policy="fifo"):
    """A churned cache: inserts beyond capacity plus random recorded hits,
    so slots have been evicted, reused, and (when underfull) left dead."""
    rng = rng_for("randomized-cache", seed)
    cache = VectorCache(capacity=capacity, embed_dim=DIM, policy=policy)
    for i in range(n_inserts):
        cache.insert(f"p{i}", _vec((seed, i)), now=float(i))
        if i % 3 == 0 and len(cache):
            entry, _ = cache.retrieve(_vec((seed, "hitq", i)))
            if entry is not None and rng.random() < 0.5:
                cache.record_hit(entry, now=float(i))
    return cache


class TestArgmaxMatchesArgsort:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "capacity,n_inserts",
        [(8, 3), (8, 8), (8, 25), (32, 50)],
    )
    def test_randomized_equivalence(self, seed, capacity, n_inserts):
        for policy in sorted(EVICTION_POLICIES):
            cache = _randomized_cache(
                (seed, policy), capacity, n_inserts, policy=policy
            )
            for q in range(10):
                query = _vec((seed, "query", q))
                ref_entry, ref_sim = _reference_argsort_retrieve(
                    cache, query
                )
                entry, sim = cache.retrieve(query)
                assert entry is ref_entry
                assert sim == ref_sim  # same float path, bit-identical

    def test_all_negative_similarities_skip_dead_slots(self):
        # Dead slots are zero rows (sim exactly 0.0); a naive unmasked
        # argmax would prefer them over a live entry with sim < 0.
        cache = VectorCache(capacity=4, embed_dim=DIM)
        vec = _vec("only")
        cache.insert("only", vec, now=0.0)
        entry, sim = cache.retrieve(-vec)
        assert entry is not None and entry.payload == "only"
        assert sim < 0.0
        ref_entry, ref_sim = _reference_argsort_retrieve(cache, -vec)
        assert entry is ref_entry and sim == ref_sim

    def test_zero_query_and_empty_cache(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        assert cache.retrieve(np.zeros(DIM)) == (None, 0.0)
        assert cache.retrieve(_vec("q")) == (None, 0.0)
        cache.insert("x", _vec("x"), now=0.0)
        assert cache.retrieve(np.zeros(DIM)) == (None, 0.0)


class TestRetrieveTopK:
    def test_topk_sorted_and_complete(self):
        cache = _randomized_cache("topk", capacity=16, n_inserts=30)
        query = _vec("topk-query")
        top = cache.retrieve_topk(query, k=5)
        assert len(top) == 5
        sims = [s for _, s in top]
        assert sims == sorted(sims, reverse=True)
        best_entry, best_sim = cache.retrieve(query)
        assert top[0][0] is best_entry
        assert top[0][1] == best_sim

    def test_topk_exhaustive_against_bruteforce(self):
        cache = _randomized_cache("topk-bf", capacity=12, n_inserts=20)
        query = _vec("bf-query")
        qn = query / np.linalg.norm(query)
        brute = sorted(
            (
                (float(e.embedding @ qn), e.entry_id)
                for e in cache.entries()
            ),
            reverse=True,
        )
        top = cache.retrieve_topk(query, k=4)
        assert [(s, e.entry_id) for e, s in top] == brute[:4]

    def test_k_larger_than_occupancy(self):
        cache = VectorCache(capacity=8, embed_dim=DIM)
        cache.insert("a", _vec("a"), now=0.0)
        cache.insert("b", _vec("b"), now=1.0)
        top = cache.retrieve_topk(_vec("q"), k=10)
        assert len(top) == 2

    def test_invalid_k(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        with pytest.raises(ValueError):
            cache.retrieve_topk(_vec("q"), k=0)

    def test_empty_cache_returns_nothing(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        assert cache.retrieve_topk(_vec("q"), k=3) == []


class TestRetrieveBatch:
    def test_singleton_batch_bitwise_matches_retrieve(self):
        cache = _randomized_cache("batch1", capacity=16, n_inserts=24)
        query = _vec("batch1-query")
        [(entry_b, sim_b)] = cache.retrieve_batch(query[None, :])
        entry, sim = cache.retrieve(query)
        assert entry_b is entry
        assert sim_b == sim

    def test_batch_matches_sequential(self):
        cache = _randomized_cache("batchn", capacity=16, n_inserts=24)
        queries = np.stack([_vec(("bq", i)) for i in range(7)])
        batched = cache.retrieve_batch(queries)
        for i, (entry, sim) in enumerate(batched):
            ref_entry, ref_sim = cache.retrieve(queries[i])
            assert entry is ref_entry
            assert sim == ref_sim

    def test_zero_rows_and_empty_cache(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        queries = np.stack([np.zeros(DIM), _vec("q")])
        assert cache.retrieve_batch(queries) == [(None, 0.0), (None, 0.0)]
        cache.insert("x", _vec("x"), now=0.0)
        out = cache.retrieve_batch(queries)
        assert out[0] == (None, 0.0)
        assert out[1][0] is not None

    def test_bad_shape_rejected(self):
        cache = VectorCache(capacity=4, embed_dim=DIM)
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros((2, DIM + 1)))
        with pytest.raises(ValueError):
            cache.retrieve_batch(np.zeros(DIM))


def _nudge(vec, rng):
    """``vec`` with a few components moved 1-2 ulps: a near-tie that
    only a correct screen margin keeps on the shortlist."""
    out = vec.copy()
    for j in rng.choice(out.size, size=3, replace=False):
        toward = np.inf if rng.random() < 0.5 else -np.inf
        for _ in range(int(rng.integers(1, 3))):
            out[j] = np.nextafter(out[j], toward)
    return out


#: Backends under test: the float32 screen, the IVF backend's float64
#: exact fallback (never trains), and a trained IVF index probing every
#: cell with a re-rank shortlist as wide as the cache.
_BACKENDS = {
    "exact": lambda cap: dict(backend="exact"),
    "ivf-fallback": lambda cap: dict(
        backend="ivf", ann=IVFParams(nlist=2, train_min=10**6)
    ),
    "ivf-full": lambda cap: dict(
        backend="ivf",
        ann=IVFParams(nlist=2, nprobe=2, train_min=2, rerank=cap),
    ),
}


class TestCanonicalRetrievalProperty:
    """Every exact path returns the brute-force canonical argmax."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        capacity=st.integers(1, 24),
        n_inserts=st.integers(0, 40),
        dim=st.sampled_from([3, 50]),
        backend=st.sampled_from(sorted(_BACKENDS)),
        non_unit=st.booleans(),
        positive=st.booleans(),
    )
    def test_paths_match_bruteforce(
        self, seed, capacity, n_inserts, dim, backend, non_unit, positive
    ):
        rng = rng_for("canonical-property", seed)
        cache = VectorCache(
            capacity=capacity, embed_dim=dim, **_BACKENDS[backend](capacity)
        )
        inserted = []
        for i in range(n_inserts):
            pick = rng.random()
            if inserted and pick < 0.2:
                vec = inserted[int(rng.integers(len(inserted)))].copy()
            elif inserted and pick < 0.45:
                vec = _nudge(inserted[int(rng.integers(len(inserted)))], rng)
            else:
                vec = rng.standard_normal(dim)
                vec /= np.linalg.norm(vec)
                if non_unit:
                    vec *= rng.uniform(0.25, 4.0)
                if positive:
                    vec = np.abs(vec)
            inserted.append(vec)
            cache.insert(i, vec, now=float(i))

        queries = [np.zeros(dim)]
        for _ in range(6):
            q = rng.standard_normal(dim)
            # All-negative similarities when every row is non-negative.
            queries.append(-np.abs(q) if positive else q)
        for vec in inserted[-4:]:
            queries.append(vec.copy())  # exact duplicate / ulp-pair ties
        for query in queries:
            ranking = _reference_ranking(cache, query)
            entry, sim = cache.retrieve(query)
            if not ranking:
                assert (entry, sim) == (None, 0.0)
                assert cache.retrieve_topk(query, 3) == []
                continue
            ref_entry, ref_sim = ranking[0]
            assert entry is ref_entry
            assert sim == ref_sim
            for k in (1, 3):
                top = cache.retrieve_topk(query, k)
                assert [(e.entry_id, s) for e, s in top] == [
                    (e.entry_id, s) for e, s in ranking[:k]
                ]
        batch = np.stack(queries)
        singles = [cache.retrieve(q) for q in queries]
        batched = cache.retrieve_batch(batch)
        assert len(batched) == len(singles)
        for (be, bs), (se, ss) in zip(batched, singles):
            assert be is se
            assert bs == ss


class TestEvictionPolicyRegistry:
    def test_registry_contents(self):
        assert {"fifo", "lru", "utility"} <= set(EVICTION_POLICIES)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_eviction_policy("nope")

    def test_custom_policy_registration(self):
        @register_eviction_policy("_test_newest")
        class NewestEviction(EvictionPolicy):
            """Evicts the newest entry (for the registration test)."""

            def victim(self, entries):
                return max(
                    (e.entry_id, s)
                    for s, e in enumerate(entries)
                    if e is not None
                )[1]

        try:
            cache = VectorCache(
                capacity=2, embed_dim=DIM, policy="_test_newest"
            )
            cache.insert("old", _vec("old"), now=0.0)
            cache.insert("new", _vec("new"), now=1.0)
            evicted = cache.insert("newer", _vec("newer"), now=2.0)
            assert evicted.payload == "new"
        finally:
            del EVICTION_POLICIES["_test_newest"]


def _eviction_order(cache, n_total, hit_schedule=()):
    """Insert ``n_total`` payloads, applying ``hit_schedule`` as a mapping
    of insert-step -> payload to hit just before that insert; returns the
    payloads in eviction order."""
    evicted = []
    by_payload = {}
    for i in range(n_total):
        for step, payload in hit_schedule:
            if step == i:
                entry = by_payload[payload]
                cache.record_hit(entry, now=float(i))
        out = cache.insert(f"p{i}", _vec(("evo", i)), now=float(i))
        by_payload[f"p{i}"] = cache.last_inserted
        if out is not None:
            evicted.append(out.payload)
    return evicted


class TestEvictionOrder:
    def test_fifo_strict_insertion_order(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="fifo")
        assert _eviction_order(cache, 7) == ["p0", "p1", "p2", "p3"]

    def test_fifo_ignores_hits(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="fifo")
        # p0 is hit repeatedly but FIFO still evicts it first (§5.4).
        evicted = _eviction_order(
            cache, 5, hit_schedule=[(1, "p0"), (2, "p0")]
        )
        assert evicted == ["p0", "p1"]

    def test_lru_hit_refreshes_recency(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="lru")
        # Hit p0 just before inserting p3: p1 is now least recently used.
        evicted = _eviction_order(cache, 5, hit_schedule=[(3, "p0")])
        assert evicted == ["p1", "p2"]

    def test_lru_without_hits_degenerates_to_fifo(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="lru")
        assert _eviction_order(cache, 6) == ["p0", "p1", "p2"]

    def test_utility_evicts_fewest_hits_oldest_first(self):
        cache = VectorCache(capacity=3, embed_dim=DIM, policy="utility")
        entries = {}
        for i in range(3):
            cache.insert(f"p{i}", _vec(("ut", i)), now=float(i))
            entries[f"p{i}"] = cache.last_inserted
        cache.record_hit(entries["p0"], now=3.0)
        cache.record_hit(entries["p2"], now=4.0)
        # p1 has the fewest hits and goes first.
        assert cache.insert("p3", _vec(("ut", 3)), now=5.0).payload == "p1"
        cache.record_hit(cache.last_inserted, now=6.0)
        # Now p0, p2, p3 all have one hit: ties evict oldest (p0).
        assert cache.insert("p4", _vec(("ut", 4)), now=7.0).payload == "p0"

    def test_utility_heap_stays_bounded_under_hit_floods(self):
        # Hit-heavy runs with rare evictions must not grow the lazy
        # tombstone heap without bound: compaction keeps it O(live).
        cache = VectorCache(capacity=4, embed_dim=DIM, policy="utility")
        for i in range(4):
            cache.insert(f"p{i}", _vec(("hb", i)), now=float(i))
        hot = cache.last_inserted
        for i in range(10_000):
            cache.record_hit(hot, now=float(i))
        assert len(cache._policy._heap) <= 2 * 4 + 17
        # Eviction semantics survive compaction: fewest hits, oldest.
        assert cache.insert("new", _vec("hbn"), now=1e6).payload == "p0"

    def test_utility_heap_tracks_hit_updates(self):
        cache = VectorCache(capacity=2, embed_dim=DIM, policy="utility")
        cache.insert("a", _vec("ua"), now=0.0)
        a_entry = cache.last_inserted
        cache.insert("b", _vec("ub"), now=1.0)
        cache.record_hit(a_entry, now=2.0)
        cache.record_hit(a_entry, now=3.0)
        assert cache.insert("c", _vec("uc"), now=4.0).payload == "b"
        # "c" (0 hits) now loses to "a" (2 hits).
        assert cache.insert("d", _vec("ud"), now=5.0).payload == "c"
