"""Tiered cache: cold store, parity, promotion, snapshots, integration.

The tiered cache's core claim is *residency independence*: hot rows are
bit-exact copies of cold rows, so where an entry lives can change
modelled latency but never a retrieval result.  These tests pin that
claim three ways — against an exact brute-force cache, across hot-tier
sizes under hypothesis-driven churn, and across snapshot/restore
boundaries (including a fresh process-like object reattaching to a
durable cold file).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import rng_for
from repro.core.ann import IVFParams
from repro.core.cache import VectorCache, make_image_cache
from repro.core.config import (
    ClusterConfig,
    ClusterRoutingConfig,
    MoDMConfig,
)
from repro.core.tiering import (
    COLD_FETCH_UNITS,
    ColdStore,
    TieredCacheConfig,
    TieredImageCache,
    TieredVectorCache,
)

DIM = 16


def embeddings(n: int, seed: str = "tiering-test") -> np.ndarray:
    rows = rng_for(seed, n, DIM).standard_normal((n, DIM))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def exact_tiered(capacity: int, **tiering_kw) -> TieredVectorCache:
    """A tiered cache parameterized to be *exactly* exact: every cell
    probed and a shortlist as wide as the cache, so the f64 re-rank
    covers every live entry."""
    kw = dict(shortlist=capacity, cold_dir=None)
    kw.update(tiering_kw)
    return TieredVectorCache(
        capacity=capacity,
        embed_dim=DIM,
        tiering=TieredCacheConfig(**kw),
        ann=IVFParams(nlist=8, nprobe=8, train_min=32, seed="tier-t"),
    )


def churn(cache, data: np.ndarray, hit_every: int = 3) -> None:
    """Insert every row; periodically retrieve-and-hit to drive
    promotions (and demotions once the hot store fills)."""
    for i in range(data.shape[0]):
        cache.insert(i, data[i], now=float(i))
        if i % hit_every == 0:
            entry, _ = cache.retrieve(data[i // 2])
            if entry is not None:
                cache.record_hit(entry, now=float(i))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestTieredCacheConfig:
    def test_defaults_valid(self):
        cfg = TieredCacheConfig()
        assert cfg.block_dtype == "fp16"
        assert cfg.tier_policy == "utility"

    @pytest.mark.parametrize(
        "kw",
        [
            {"hot_capacity": -1},
            {"promote_hits": 0},
            {"tier_policy": "nope"},
            {"block_dtype": "fp8"},
            {"shortlist": 0},
        ],
    )
    def test_rejects_bad_knobs(self, kw):
        with pytest.raises(ValueError):
            TieredCacheConfig(**kw)

    def test_resolved_hot_capacity(self):
        assert TieredCacheConfig().resolved_hot_capacity(800) == 100
        assert TieredCacheConfig().resolved_hot_capacity(4) == 1
        cfg = TieredCacheConfig(hot_capacity=50)
        assert cfg.resolved_hot_capacity(800) == 50
        # Explicit hot capacity clamps to the cache capacity.
        assert cfg.resolved_hot_capacity(20) == 20

    def test_modm_config_requires_ivf_fifo_unsharded(self):
        base = dict(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=2),
            cache_capacity=100,
            small_models=("sdxl",),
            cache_tiering=TieredCacheConfig(),
        )
        with pytest.raises(ValueError, match="ivf"):
            MoDMConfig(**base)
        with pytest.raises(ValueError, match="fifo"):
            MoDMConfig(
                **base, retrieval_backend="ivf", cache_policy="utility"
            )
        cfg = MoDMConfig(**base, retrieval_backend="ivf")
        assert cfg.cache_tiering is not None

    def test_cache_requires_fifo_and_ivf(self):
        with pytest.raises(ValueError, match="fifo"):
            TieredVectorCache(
                10, DIM, TieredCacheConfig(), policy="utility"
            )
        with pytest.raises(ValueError, match="ivf"):
            TieredVectorCache(
                10, DIM, TieredCacheConfig(), backend="exact"
            )

    def test_make_image_cache_dispatches_on_tiering(self):
        cache = make_image_cache(
            capacity=32,
            embed_dim=DIM,
            tiering=TieredCacheConfig(),
            backend="ivf",
        )
        assert isinstance(cache, TieredImageCache)


# ----------------------------------------------------------------------
# Cold store
# ----------------------------------------------------------------------
class TestColdStore:
    def test_append_read_round_trip(self):
        store = ColdStore(DIM)
        data = embeddings(40, seed="cold-rt")
        start = store.append_rows(data[:25])
        assert start == 0
        assert store.append_rows(data[25:]) == 25
        assert store.rows == 40
        np.testing.assert_array_equal(store.read_row(7), data[7])
        picks = np.array([3, 39, 0, 17])
        np.testing.assert_array_equal(
            store.read_rows(picks), data[picks]
        )
        store.close()

    def test_chunks_stream_whole_extent(self):
        store = ColdStore(DIM)
        data = embeddings(100, seed="cold-chunks")
        store.append_rows(data)
        seen = []
        for start, rows in store.chunks(chunk_rows=33):
            assert start == sum(r.shape[0] for _, r in seen)
            seen.append((start, rows))
        np.testing.assert_array_equal(
            np.vstack([r for _, r in seen]), data
        )
        store.close()

    def test_rewind_backward_then_overwrite(self):
        store = ColdStore(DIM)
        data = embeddings(30, seed="cold-rw")
        store.append_rows(data[:20])
        store.append_rows(data[20:])
        store.rewind(20)
        assert store.rows == 20
        # Appends after a rewind overwrite the abandoned suffix.
        fresh = embeddings(5, seed="cold-rw-2")
        assert store.append_rows(fresh) == 20
        np.testing.assert_array_equal(store.read_row(22), fresh[2])
        store.close()

    def test_rewind_beyond_extent_rejected(self):
        store = ColdStore(DIM)
        store.append_rows(embeddings(10, seed="cold-ov"))
        with pytest.raises(ValueError, match="cannot rewind"):
            store.rewind(11)
        store.close()

    def test_reattach_persistent_file(self, tmp_path):
        path = str(tmp_path / "cold.f64")
        data = embeddings(12, seed="cold-persist")
        first = ColdStore(DIM, path=path)
        first.append_rows(data)
        first.close()
        # A fresh store starts with cursor 0; rewinding *forward* to the
        # snapshot's extent (which the on-disk file vouches for) exposes
        # the rows again — the cross-process warm-start handshake.
        second = ColdStore(DIM, path=path)
        assert second.rows == 0
        second.rewind(12)
        np.testing.assert_array_equal(second.read_rows(
            np.arange(12)), data)
        second.close()

    def test_shape_validation(self):
        store = ColdStore(DIM)
        with pytest.raises(ValueError, match="shape"):
            store.append_rows(np.zeros((3, DIM + 1)))
        with pytest.raises(IndexError):
            store.read_row(0)
        store.close()


# ----------------------------------------------------------------------
# Retrieval parity with the exact cache
# ----------------------------------------------------------------------
class TestExactParity:
    N, CAP = 600, 400

    def _pair(self):
        data = embeddings(self.N, seed="parity")
        exact = VectorCache(
            capacity=self.CAP, embed_dim=DIM, policy="fifo"
        )
        tiered = exact_tiered(self.CAP, hot_capacity=40)
        for i in range(self.N):
            exact.insert(i, data[i], now=float(i))
            tiered.insert(i, data[i], now=float(i))
        return data, exact, tiered

    def test_top1_matches_exact_after_churn(self):
        data, exact, tiered = self._pair()
        queries = embeddings(60, seed="parity-q")
        for q in queries:
            e_entry, e_sim = exact.retrieve(q)
            t_entry, t_sim = tiered.retrieve(q)
            assert t_sim == e_sim
            assert t_entry.payload == e_entry.payload

    def test_topk_matches_exact(self):
        data, exact, tiered = self._pair()
        for q in embeddings(20, seed="parity-topk"):
            e_top = exact.retrieve_topk(q, 5)
            t_top = tiered.retrieve_topk(q, 5)
            assert [s for _, s in t_top] == [s for _, s in e_top]
            assert [e.payload for e, _ in t_top] == [
                e.payload for e, _ in e_top
            ]

    def test_returned_similarity_is_exact_dot(self):
        data, _, tiered = self._pair()
        q = embeddings(1, seed="parity-sim")[0]
        entry, sim = tiered.retrieve(q)
        assert sim == float(entry.embedding @ q)

    def test_batch_matches_sequential(self):
        _, _, tiered = self._pair()
        queries = embeddings(10, seed="parity-batch")
        batched = tiered.retrieve_batch(queries)
        for i, (entry, sim) in enumerate(batched):
            # retrieve_batch routes through retrieve per row.
            single_entry, single_sim = tiered.retrieve(queries[i])
            assert sim == single_sim
            assert entry.payload == single_entry.payload


class TestResidencyIndependence:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hot_capacity_never_changes_results(self, seed):
        data = embeddings(120, seed=f"resid-{seed}")
        tiny = exact_tiered(80, hot_capacity=2, promote_hits=1)
        huge = exact_tiered(80, hot_capacity=80, promote_hits=1)
        for cache in (tiny, huge):
            churn(cache, data, hit_every=2)
        # The tiny cache was forced through promotion/demotion churn,
        # the huge one promoted freely — results must be identical.
        assert tiny.demotions > 0
        assert huge.demotions == 0
        for q in embeddings(25, seed=f"resid-q-{seed}"):
            t_entry, t_sim = tiny.retrieve(q)
            h_entry, h_sim = huge.retrieve(q)
            assert t_sim == h_sim
            assert t_entry.payload == h_entry.payload


# ----------------------------------------------------------------------
# Tier movement
# ----------------------------------------------------------------------
class TestPromotionDemotion:
    def test_insert_starts_cold_promotes_on_nth_hit(self):
        cache = exact_tiered(16, hot_capacity=4, promote_hits=2)
        data = embeddings(8, seed="promo")
        for i in range(8):
            cache.insert(i, data[i], now=float(i))
        entry, _ = cache.retrieve(data[3])
        assert entry.payload == 3 and not entry.hot
        cache.record_hit(entry, now=10.0)
        assert not entry.hot and cache.promotions == 0
        cache.record_hit(entry, now=11.0)
        assert entry.hot and cache.promotions == 1
        assert cache.hot_count == 1

    def test_full_hot_store_demotes_a_victim(self):
        cache = exact_tiered(16, hot_capacity=2, promote_hits=1)
        data = embeddings(6, seed="demo")
        for i in range(6):
            cache.insert(i, data[i], now=float(i))
        for i in range(3):
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(10 + i))
        assert cache.promotions == 3
        assert cache.demotions == 1
        assert cache.hot_count == 2

    def test_tier_events_fire_in_order(self):
        cache = exact_tiered(16, hot_capacity=1, promote_hits=1)
        events = []
        cache.on_tier_event = lambda now, kind, slot, eid: events.append(
            (now, kind, slot, eid)
        )
        data = embeddings(4, seed="events")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
        for i in range(2):
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(10 + i))
        kinds = [kind for _, kind, _, _ in events]
        assert kinds == ["promote", "demote", "promote"]
        # Events carry the live slot/entry-id pair at fire time.
        for _, _, slot, eid in events:
            assert 0 <= slot < cache.capacity

    def test_stale_view_is_inert(self):
        cache = exact_tiered(4, hot_capacity=2, promote_hits=1)
        data = embeddings(9, seed="stale")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
        entry, _ = cache.retrieve(data[0])
        before = cache.promotions
        # Wrap the ring: every original slot is recycled.
        for i in range(4, 9):
            cache.insert(i, data[i], now=float(i))
        cache.record_hit(entry, now=20.0)
        assert cache.promotions == before

    def test_eviction_frees_hot_row(self):
        cache = exact_tiered(4, hot_capacity=4, promote_hits=1)
        data = embeddings(8, seed="evict-hot")
        for i in range(4):
            cache.insert(i, data[i], now=float(i))
            entry, _ = cache.retrieve(data[i])
            cache.record_hit(entry, now=float(i))
        assert cache.hot_count == 4
        evicted = cache.insert(4, data[4], now=4.0)
        assert evicted is not None and evicted.entry_id == 0
        # The detached entry keeps a real embedding copy.
        np.testing.assert_array_equal(evicted.embedding, data[0])
        assert cache.hot_count == 3

    def test_cold_latency_exceeds_hot_latency(self):
        cold = exact_tiered(64, hot_capacity=1, promote_hits=10_000)
        hot = exact_tiered(64, hot_capacity=64, promote_hits=1)
        data = embeddings(64, seed="latency")
        for i in range(64):
            cold.insert(i, data[i], now=float(i))
            hot.insert(i, data[i], now=float(i))
        for i in range(64):
            entry, _ = hot.retrieve(data[i])
            hot.record_hit(entry, now=float(100 + i))
        assert hot.hot_count == 64
        assert cold.hot_count == 0
        assert cold.scan_entries() > hot.scan_entries()
        assert (
            cold.retrieval_latency_s() > hot.retrieval_latency_s()
        )
        # An all-cold untrained cache pays COLD_FETCH_UNITS per entry.
        tiny = exact_tiered(8, hot_capacity=1, promote_hits=10_000)
        tiny.insert(0, data[0], now=0.0)
        assert tiny.scan_entries() == 1 + (COLD_FETCH_UNITS - 1)


# ----------------------------------------------------------------------
# Snapshot / restore / clear
# ----------------------------------------------------------------------
def query_digest(cache, seed: str = "digest", n: int = 40):
    out = []
    for q in embeddings(n, seed=seed):
        entry, sim = cache.retrieve(q)
        out.append((entry.payload if entry else None, sim))
    return out


class TestSnapshotRestore:
    def test_restore_reproduces_results_in_process(self):
        cache = exact_tiered(64, hot_capacity=8, promote_hits=1)
        data = embeddings(200, seed="snap")
        churn(cache, data[:120])
        state = cache.snapshot()
        before = query_digest(cache)
        hot_before = cache.hot_count
        # Diverge: more churn, then restore back.
        churn(cache, data[120:])
        assert query_digest(cache) != before
        cache.restore(state)
        assert query_digest(cache) == before
        assert cache.hot_count == hot_before
        assert len(cache) == min(64, 120)

    def test_restore_replay_matches_original(self):
        data = embeddings(160, seed="snap-replay")
        a = exact_tiered(48, hot_capacity=6, promote_hits=1)
        churn(a, data[:100])
        state = a.snapshot()
        churn(a, data[100:])
        after = query_digest(a, seed="snap-replay-q")
        counters = (a.promotions, a.demotions, a.evictions)
        # Restore to the snapshot and replay the same suffix: the
        # rebuilt blocks and hot rows must reproduce the run bit-for-bit
        # (an anonymous cold file restores in-process only; the durable
        # cross-object path is tested separately).
        a.restore(state)
        churn(a, data[100:])
        assert query_digest(a, seed="snap-replay-q") == after
        assert (a.promotions, a.demotions, a.evictions) == counters

    def test_fresh_object_reattaches_durable_cold_file(self, tmp_path):
        cold_dir = str(tmp_path / "tier")
        data = embeddings(120, seed="snap-durable")
        a = exact_tiered(
            48, hot_capacity=6, promote_hits=1, cold_dir=cold_dir
        )
        churn(a, data)
        state = a.snapshot()
        before = query_digest(a, seed="snap-durable-q")
        a.cold_store.close()
        # A brand-new cache object (fresh process stand-in) adopts the
        # snapshot against the on-disk cold file.
        b = exact_tiered(
            48, hot_capacity=6, promote_hits=1, cold_dir=cold_dir
        )
        b.restore(state)
        assert query_digest(b, seed="snap-durable-q") == before
        assert b.hot_count == a.hot_count

    def test_snapshot_is_block_and_hot_free(self):
        cache = exact_tiered(64, hot_capacity=8, promote_hits=1)
        churn(cache, embeddings(100, seed="snap-lean"))
        state = cache.snapshot()
        assert state.index_state.blocks is None
        field_names = set(vars(state))
        assert not any("hot_store" in name for name in field_names)

    def test_restore_shape_mismatch_rejected(self):
        cache = exact_tiered(64, hot_capacity=8)
        state = cache.snapshot()
        other = exact_tiered(32, hot_capacity=8)
        with pytest.raises(ValueError, match="mismatch"):
            other.restore(state)

    def test_clear_then_refill_matches_fresh(self):
        data = embeddings(90, seed="clear")
        a = exact_tiered(32, hot_capacity=4, promote_hits=1)
        churn(a, data[:50])
        a.clear()
        assert len(a) == 0 and a.hot_count == 0
        assert a.cold_store.rows == 0
        churn(a, data[50:])
        b = exact_tiered(32, hot_capacity=4, promote_hits=1)
        # Align id streams: clear() keeps the counter position.
        for _ in range(50):
            next(b._ids)
        churn(b, data[50:])
        assert query_digest(a, seed="clear-q") == query_digest(
            b, seed="clear-q"
        )


# ----------------------------------------------------------------------
# Bulk load
# ----------------------------------------------------------------------
class TestBulkLoad:
    def test_matches_incremental_inserts(self):
        data = embeddings(400, seed="bulk")
        bulk = exact_tiered(400)
        bulk.bulk_load(
            lambda: (data[i : i + 150] for i in range(0, 400, 150)),
            now=0.0,
        )
        incr = exact_tiered(400)
        for i in range(400):
            incr.insert(None, data[i], now=0.0)
        assert len(bulk) == 400
        for q in embeddings(30, seed="bulk-q"):
            _, b_sim = bulk.retrieve(q)
            _, i_sim = incr.retrieve(q)
            assert b_sim == i_sim

    def test_requires_empty_cache(self):
        cache = exact_tiered(16)
        cache.insert(0, embeddings(1, seed="bulk-ne")[0], now=0.0)
        with pytest.raises(ValueError, match="empty"):
            cache.bulk_load(lambda: iter(()), now=0.0)

    def test_overflow_rejected(self):
        cache = exact_tiered(8)
        data = embeddings(9, seed="bulk-ov")
        with pytest.raises(ValueError, match="overflows"):
            cache.bulk_load(lambda: iter((data,)), now=0.0)


# ----------------------------------------------------------------------
# Serving / cluster integration
# ----------------------------------------------------------------------
class TestServingIntegration:
    def _config(self, **overrides):
        defaults = dict(
            cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
            cache_capacity=300,
            small_models=("sdxl",),
            retrieval_backend="ivf",
            cache_tiering=TieredCacheConfig(
                hot_capacity=32, promote_hits=1
            ),
        )
        defaults.update(overrides)
        return MoDMConfig(**defaults)

    def test_end_to_end_run_completes(self, space, ddb_trace):
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 120).rebase()
        system = MoDMSystem(space, self._config())
        assert isinstance(system.cache, TieredImageCache)
        report = system.run(trace)
        assert report.n_completed == len(trace)
        # Hits drove promotions through the serving loop.
        if report.hit_rate > 0:
            assert system.cache.promotions > 0

    def test_tiered_run_is_deterministic(self, space, ddb_trace):
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 100).rebase()
        r1 = MoDMSystem(space, self._config()).run(trace)
        r2 = MoDMSystem(space, self._config()).run(trace)
        assert np.allclose(r1.latencies(), r2.latencies())
        assert r1.hit_rate == r2.hit_rate

    def test_tier_events_are_journaled(self, space, ddb_trace):
        from repro.core.config import JournalConfig
        from repro.core.serving import MoDMSystem

        trace = ddb_trace.slice(0, 120).rebase()
        system = MoDMSystem(
            space,
            self._config(journal=JournalConfig()),
        )
        report = system.run(trace)
        counts = system._journal.kind_counts()
        assert counts["promote"] == system.cache.promotions
        assert counts["demote"] == system.cache.demotions
        if report.hit_rate > 0:
            assert counts["promote"] > 0

    def test_cluster_warm_rejoin_with_tiering(
        self, space, ddb_trace, tmp_path
    ):
        from repro.core.cluster_router import modm_cluster
        from repro.core.config import (
            FailureEvent,
            FailurePlan,
            JournalConfig,
        )

        trace = ddb_trace.slice(0, 160).rebase()
        span = trace.requests[-1].arrival_s
        config = self._config(
            journal=JournalConfig(snapshot_period_s=30.0),
            cache_tiering=TieredCacheConfig(
                hot_capacity=16,
                promote_hits=1,
                cold_dir=str(tmp_path / "fleet"),
            ),
        )
        system = modm_cluster(
            space,
            config,
            ClusterRoutingConfig(
                n_replicas=2,
                policy="cache_affinity",
                failures=FailurePlan(
                    events=(
                        FailureEvent(
                            time_s=0.4 * span, replica=1, action="kill"
                        ),
                        FailureEvent(
                            time_s=0.55 * span,
                            replica=1,
                            action="restart",
                            warm=True,
                        ),
                    ),
                    recovery_window_s=60.0,
                ),
            ),
        )
        report = system.run(trace)
        assert report.failures[0].warm
        assert report.n_completed == len(report.fleet.records)
        # Each replica owns a private cold file under the shared dir.
        for i, replica in enumerate(system.replicas):
            path = replica.cache.cold_store.path
            assert f"replica-{i}" in path
