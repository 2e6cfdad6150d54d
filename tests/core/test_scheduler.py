"""Tests for the Request Scheduler."""

import numpy as np
import pytest

from repro.cluster.stats import StatsCollector
from repro.core.cache import ImageCache
from repro.core.config import CacheAdmission
from repro.core.kselection import modm_default_selector
from repro.core.retrieval import TextToImageRetrieval
from repro.core.scheduler import RequestScheduler


@pytest.fixture
def scheduler_parts(space):
    retrieval = TextToImageRetrieval(space)
    cache = ImageCache(capacity=200, embed_dim=retrieval.embed_dim)
    stats = StatsCollector()
    scheduler = RequestScheduler(
        cache=cache,
        retrieval=retrieval,
        selector=modm_default_selector(),
        stats=stats,
        admission=CacheAdmission.ALL,
        large_model_name="sd3.5-large",
    )
    return scheduler, cache, stats


class TestDecide:
    def test_empty_cache_is_miss(self, scheduler_parts, prompts):
        scheduler, _, stats = scheduler_parts
        decision = scheduler.decide(prompts[0], now=0.0)
        assert not decision.hit
        assert stats.total_misses == 1

    def test_similar_prompt_hits_after_admit(
        self, scheduler_parts, large_model, ddb_trace
    ):
        scheduler, _, stats = scheduler_parts
        by_session = {}
        for r in ddb_trace:
            by_session.setdefault(r.prompt.session_id, []).append(r.prompt)
        session = next(p for p in by_session.values() if len(p) >= 2)
        image = large_model.generate(session[0], seed="sched").image
        scheduler.admit(session[0], image, now=0.0)
        decision = scheduler.decide(session[1], now=1.0)
        assert decision.hit
        assert decision.k_steps in modm_default_selector().k_set
        assert decision.retrieved_image is image
        assert stats.total_hits == 1

    def test_unrelated_prompt_misses(
        self, scheduler_parts, large_model, prompts
    ):
        scheduler, _, _ = scheduler_parts
        image = large_model.generate(prompts[0], seed="sched").image
        scheduler.admit(prompts[0], image, now=0.0)
        decision = scheduler.decide(prompts[500], now=1.0)
        assert not decision.hit

    def test_scheduler_latency_grows_with_cache(
        self, scheduler_parts, large_model, prompts
    ):
        scheduler, cache, _ = scheduler_parts
        d_empty = scheduler.decide(prompts[0], now=0.0)
        for p in prompts[1:50]:
            scheduler.admit(
                p, large_model.generate(p, seed="sched").image, now=0.0
            )
        d_full = scheduler.decide(prompts[51], now=1.0)
        assert d_full.scheduler_latency_s > d_empty.scheduler_latency_s

    def test_hit_records_cache_entry_hit(
        self, scheduler_parts, large_model, ddb_trace
    ):
        scheduler, cache, _ = scheduler_parts
        by_session = {}
        for r in ddb_trace:
            by_session.setdefault(r.prompt.session_id, []).append(r.prompt)
        session = next(p for p in by_session.values() if len(p) >= 2)
        image = large_model.generate(session[0], seed="sched").image
        scheduler.admit(session[0], image, now=0.0)
        scheduler.decide(session[1], now=1.0)
        assert cache.entries()[0].hits == 1


class TestDecideBatch:
    def _warmed(self, space, large_model, prompts, n=40):
        retrieval = TextToImageRetrieval(space)
        cache = ImageCache(capacity=200, embed_dim=retrieval.embed_dim)
        stats = StatsCollector()
        scheduler = RequestScheduler(
            cache=cache,
            retrieval=retrieval,
            selector=modm_default_selector(),
            stats=stats,
            admission=CacheAdmission.ALL,
            large_model_name="sd3.5-large",
        )
        for p in prompts[:n]:
            scheduler.admit(
                p, large_model.generate(p, seed="batch").image, now=0.0
            )
        return scheduler, stats

    def test_empty_batch(self, scheduler_parts):
        scheduler, _, _ = scheduler_parts
        assert scheduler.decide_batch([], now=0.0) == []

    def test_singleton_batch_matches_decide(
        self, space, large_model, prompts
    ):
        # decide() leaves retrieval state untouched (only stats/hit
        # counters move), so both paths can run on the same scheduler.
        scheduler, _ = self._warmed(space, large_model, prompts)
        d_seq = scheduler.decide(prompts[45], now=1.0)
        [d_bat] = scheduler.decide_batch([prompts[45]], now=1.0)
        assert (d_bat.hit, d_bat.k_steps, d_bat.similarity) == (
            d_seq.hit,
            d_seq.k_steps,
            d_seq.similarity,
        )

    def test_batch_matches_sequential_decisions(
        self, space, large_model, ddb_trace
    ):
        prompts = [r.prompt for r in ddb_trace]
        scheduler, stats = self._warmed(space, large_model, prompts)
        batch = prompts[40:60]
        d_seq = [scheduler.decide(p, now=2.0) for p in batch]
        hits_after_seq = stats.total_hits
        misses_after_seq = stats.total_misses
        d_bat = scheduler.decide_batch(batch, now=2.0)
        assert len(d_bat) == len(d_seq)
        for a, b in zip(d_seq, d_bat):
            assert a.hit == b.hit
            assert a.k_steps == b.k_steps
            assert np.isclose(b.similarity, a.similarity, atol=1e-12)
            assert a.scheduler_latency_s == b.scheduler_latency_s
            if a.hit:
                assert (
                    b.retrieved_image.image_id
                    == a.retrieved_image.image_id
                )
        assert stats.total_hits == 2 * hits_after_seq
        assert stats.total_misses == 2 * misses_after_seq

    def test_batch_records_cache_hits(
        self, space, large_model, ddb_trace
    ):
        prompts = [r.prompt for r in ddb_trace]
        scheduler, stats = self._warmed(space, large_model, prompts)
        decisions = scheduler.decide_batch(prompts[40:60], now=2.0)
        n_hits = sum(d.hit for d in decisions)
        assert stats.total_hits == n_hits
        cache_hits = sum(e.hits for e in scheduler.cache.entries())
        assert cache_hits == n_hits


class TestAdmission:
    def test_admission_none(self, space, large_model, prompts):
        retrieval = TextToImageRetrieval(space)
        cache = ImageCache(capacity=10, embed_dim=retrieval.embed_dim)
        scheduler = RequestScheduler(
            cache=cache,
            retrieval=retrieval,
            selector=modm_default_selector(),
            stats=StatsCollector(),
            admission=CacheAdmission.NONE,
        )
        image = large_model.generate(prompts[0], seed="adm").image
        assert not scheduler.admit(prompts[0], image, now=0.0)
        assert len(cache) == 0

    def test_admission_large_only(
        self, space, large_model, small_model, prompts
    ):
        retrieval = TextToImageRetrieval(space)
        cache = ImageCache(capacity=10, embed_dim=retrieval.embed_dim)
        scheduler = RequestScheduler(
            cache=cache,
            retrieval=retrieval,
            selector=modm_default_selector(),
            stats=StatsCollector(),
            admission=CacheAdmission.LARGE_ONLY,
            large_model_name="sd3.5-large",
        )
        large_img = large_model.generate(prompts[0], seed="adm").image
        small_img = small_model.generate(prompts[1], seed="adm").image
        assert scheduler.admit(prompts[0], large_img, now=0.0)
        assert not scheduler.admit(prompts[1], small_img, now=0.0)
        assert len(cache) == 1

    def test_large_only_requires_model_name(self, space):
        retrieval = TextToImageRetrieval(space)
        with pytest.raises(ValueError):
            RequestScheduler(
                cache=ImageCache(capacity=4, embed_dim=retrieval.embed_dim),
                retrieval=retrieval,
                selector=modm_default_selector(),
                stats=StatsCollector(),
                admission=CacheAdmission.LARGE_ONLY,
            )

    def test_bind_stats_redirects_recording(
        self, scheduler_parts, prompts
    ):
        scheduler, _, old_stats = scheduler_parts
        new_stats = StatsCollector()
        scheduler.bind_stats(new_stats)
        scheduler.decide(prompts[0], now=0.0)
        assert new_stats.total_arrivals == 1
        assert old_stats.total_arrivals == 0
