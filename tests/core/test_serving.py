"""Tests for the MoDM serving system and its event-loop plumbing."""


import numpy as np
import pytest

from repro.core.config import (
    CacheAdmission,
    ClusterConfig,
    MoDMConfig,
    MonitorMode,
)
from repro.core.request import RequestRecord
from repro.core.serving import MoDMSystem, _ReadyQueue
from repro.diffusion.registry import get_model


@pytest.fixture
def small_trace(ddb_trace):
    return ddb_trace.slice(0, 120).rebase()


def _system(space, **overrides):
    defaults = dict(
        cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
        cache_capacity=500,
        small_models=("sdxl",),
    )
    defaults.update(overrides)
    return MoDMSystem(space, MoDMConfig(**defaults))


class TestRunLifecycle:
    def test_all_requests_complete(self, space, small_trace):
        report = _system(space).run(small_trace)
        assert report.n_completed == len(small_trace)

    def test_records_have_full_lifecycle(self, space, small_trace):
        report = _system(space).run(small_trace)
        for record in report.completed():
            assert record.decision is not None
            assert record.enqueued_s >= record.arrival_s
            assert record.service_start_s >= record.enqueued_s - 1e-9
            assert record.completion_s > record.service_start_s
            assert record.model_name is not None
            assert record.image is not None

    def test_latencies_positive(self, space, small_trace):
        report = _system(space).run(small_trace)
        assert (report.latencies() > 0).all()

    def test_deterministic_across_runs(self, space, small_trace):
        r1 = _system(space).run(small_trace)
        r2 = _system(space).run(small_trace)
        assert np.allclose(r1.latencies(), r2.latencies())
        assert r1.hit_rate == r2.hit_rate

    def test_rerun_on_same_system_resets_state(self, space, small_trace):
        system = _system(space)
        r1 = system.run(small_trace)
        r2 = system.run(small_trace)
        assert r2.n_completed == len(small_trace)
        # Second run starts from the populated cache, so hit rate may rise,
        # but records/stats are fresh.
        assert len(r2.records) == len(small_trace)

    def test_store_images_flag(self, space, small_trace):
        system = _system(space, store_images=False)
        report = system.run(small_trace)
        assert all(r.image is None for r in report.completed())

    def test_out_of_order_trace_rejected(self, space, ddb_trace):
        # Trace construction rejects unsorted requests; a trace mutated
        # afterwards must be refused by the run, not silently served.
        from repro.core.cluster_router import modm_cluster
        from repro.core.config import ClusterRoutingConfig

        trace = ddb_trace.slice(0, 40).rebase()
        trace.requests.reverse()
        with pytest.raises(ValueError, match="sorted"):
            _system(space).run(trace)
        cluster = modm_cluster(
            space,
            MoDMConfig(
                cluster=ClusterConfig(gpu_name="MI210", n_workers=4),
                cache_capacity=200,
                small_models=("sdxl",),
            ),
            ClusterRoutingConfig(n_replicas=2),
        )
        with pytest.raises(ValueError, match="sorted"):
            cluster.run(trace)

    def test_until_cuts_run_short(self, space, small_trace):
        report = _system(space).run(small_trace, until=600.0)
        assert report.n_completed < len(small_trace)
        assert all(
            r.completion_s <= 600.0 for r in report.completed()
        )


class TestCacheBehaviour:
    def test_warm_cache_populates(self, space, prompts):
        system = _system(space)
        system.warm_cache(prompts[:50])
        assert len(system.cache) == 50

    def test_warm_cache_improves_hit_rate(self, space, ddb_trace):
        trace = ddb_trace.slice(200, 320).rebase()
        cold = _system(space).run(trace)
        warm_sys = _system(space)
        warm_sys.warm_cache([r.prompt for r in ddb_trace.requests[:200]])
        warm = warm_sys.run(trace)
        assert warm.hit_rate > cold.hit_rate

    def test_generated_images_admitted(self, space, small_trace):
        system = _system(space)
        report = system.run(small_trace)
        assert report.cache_size > 0
        assert report.cache_storage_bytes > 0

    def test_cache_large_only_admission(self, space, small_trace):
        system = _system(space, cache_admission=CacheAdmission.LARGE_ONLY)
        system.run(small_trace)
        for entry in system.cache.entries():
            assert entry.payload.model_name == "sd3.5-large"

    def test_threshold_shift_reduces_hits(self, space, ddb_trace):
        trace = ddb_trace.slice(100, 220).rebase()
        warm = [r.prompt for r in ddb_trace.requests[:100]]
        base = _system(space)
        base.warm_cache(warm)
        shifted = _system(space, threshold_shift=0.05)
        shifted.warm_cache(warm)
        r_base = base.run(trace)
        r_shift = shifted.run(trace)
        assert r_shift.hit_rate <= r_base.hit_rate


class TestDispatchPolicy:
    def test_hits_refined_misses_full(self, space, ddb_trace):
        trace = ddb_trace.slice(100, 200).rebase()
        system = _system(space)
        system.warm_cache([r.prompt for r in ddb_trace.requests[:100]])
        report = system.run(trace)
        for record in report.completed():
            if record.is_hit:
                assert record.steps_run < get_model(
                    record.model_name
                ).total_steps
            else:
                assert record.model_name == "sd3.5-large"
                assert record.steps_run == 50

    def test_small_workers_never_run_misses(self, space, ddb_trace):
        trace = ddb_trace.slice(100, 220).rebase()
        system = _system(space)
        system.warm_cache([r.prompt for r in ddb_trace.requests[:100]])
        report = system.run(trace)
        for record in report.completed():
            if record.model_name == "sdxl":
                assert record.is_hit

    def test_monitor_produces_allocations(self, space, small_trace):
        report = _system(space).run(small_trace)
        assert len(report.allocations) >= 1
        for event in report.allocations:
            assert event.n_large + event.n_small == 4
            assert event.n_large >= 1

    def test_quality_mode_runs(self, space, small_trace):
        system = _system(space, monitor_mode=MonitorMode.QUALITY)
        report = system.run(small_trace)
        assert report.n_completed == len(small_trace)

    def test_adaptive_small_model_choice(self, space, ddb_trace):
        """Under extreme overload the monitor switches SDXL -> SANA."""
        trace = ddb_trace.slice(100, 400).ignore_timestamps()
        system = _system(
            space,
            small_models=("sdxl", "sana-1.6b"),
            cluster=ClusterConfig(gpu_name="MI210", n_workers=2),
        )
        system.warm_cache([r.prompt for r in ddb_trace.requests[:100]])
        report = system.run(trace)
        small_models_used = {a.small_model for a in report.allocations}
        assert "sana-1.6b" in small_models_used


class TestReadyQueueOrdering:
    """Pop-order contract of the ready-deque + pending-heap queue.

    Covers the PR-1 head-of-line regression (a not-yet-ready record must
    not starve ready records queued behind it) plus the heap's ordering
    under mixed ``enqueued_s`` values.
    """

    def _record(self, prompts, request_id, enqueued_s):
        record = RequestRecord(
            request_id=request_id,
            prompt=prompts[request_id],
            arrival_s=0.0,
        )
        record.enqueued_s = enqueued_s
        return record

    def test_ready_record_behind_blocked_head_is_served(
        self, space, prompts
    ):
        queue = _ReadyQueue()
        blocked = self._record(prompts, 0, enqueued_s=100.0)
        ready = self._record(prompts, 1, enqueued_s=1.0)
        queue.push(blocked, now=0.0)
        queue.push(ready, now=0.0)
        assert queue.pop(now=5.0) is ready
        assert list(queue) == [blocked]

    def test_mixed_enqueued_pops_earliest_ready_first(
        self, space, prompts
    ):
        queue = _ReadyQueue()
        records = [
            self._record(prompts, 0, enqueued_s=50.0),
            self._record(prompts, 1, enqueued_s=5.0),
            self._record(prompts, 2, enqueued_s=30.0),
            self._record(prompts, 3, enqueued_s=2.0),
        ]
        for record in records:
            queue.push(record, now=0.0)
        # At t=10 records 3 and 1 are ready, earliest enqueued_s first.
        assert queue.has_ready(10.0)
        assert queue.pop(now=10.0) is records[3]
        assert queue.pop(now=10.0) is records[1]
        assert queue.pop(now=10.0) is None
        assert not queue.has_ready(10.0)
        assert len(queue) == 2
        assert list(queue) == [records[2], records[0]]
        # Once the remaining latencies elapse they are served normally.
        assert queue.pop(now=60.0) is records[2]
        assert queue.pop(now=60.0) is records[0]
        assert len(queue) == 0

    def test_equal_enqueued_pops_in_insertion_order(self, space, prompts):
        queue = _ReadyQueue()
        records = [
            self._record(prompts, i, enqueued_s=7.0) for i in range(4)
        ]
        for record in records:
            queue.push(record, now=0.0)
        assert [queue.pop(now=7.0) for _ in range(4)] == records

    def test_already_ready_records_keep_fifo_order(self, space, prompts):
        # Records whose latency elapsed before the push (enqueued_s <= now)
        # go straight to the ready deque in insertion order.
        queue = _ReadyQueue()
        records = [
            self._record(prompts, 0, enqueued_s=1.0),
            self._record(prompts, 1, enqueued_s=0.5),
            self._record(prompts, 2, enqueued_s=2.0),
        ]
        for record in records:
            queue.push(record, now=5.0)
        assert [queue.pop(now=5.0) for _ in range(3)] == records

    def test_nothing_ready_returns_none(self, space, prompts):
        queue = _ReadyQueue()
        queue.push(self._record(prompts, 0, enqueued_s=10.0), now=0.0)
        assert not queue.has_ready(0.0)
        assert queue.pop(now=0.0) is None
        assert len(queue) == 1

    def test_iteration_matches_legacy_deque_order_when_monotone(
        self, space, prompts
    ):
        # The Global Monitor float-sums the hit backlog in queue order;
        # with monotone enqueued_s (the serving invariant) iteration must
        # match the old single-deque insertion order exactly.
        queue = _ReadyQueue()
        records = [
            self._record(prompts, i, enqueued_s=float(2 * i))
            for i in range(6)
        ]
        for record in records:
            queue.push(record, now=0.0)
        queue.pop(now=4.0)  # promotes 0-2, pops 0
        assert list(queue) == records[1:]


class TestReportMetrics:
    def test_throughput_uses_serving_span(self, space, ddb_trace):
        # A trace with a late start must not dilute throughput.
        late = ddb_trace.slice(0, 60).with_arrivals(
            [3600.0 + i for i in range(60)]
        )
        report = _system(space).run(late)
        assert report.throughput_rpm > 1.0

    def test_energy_report_nonzero(self, space, small_trace):
        report = _system(space).run(small_trace)
        assert report.energy.busy_joules > 0
        assert report.energy.total_joules >= report.energy.busy_joules

    def test_k_rates_only_for_hits(self, space, ddb_trace):
        trace = ddb_trace.slice(100, 200).rebase()
        system = _system(space)
        system.warm_cache([r.prompt for r in ddb_trace.requests[:100]])
        report = system.run(trace)
        if report.hit_rate > 0:
            assert np.isclose(sum(report.k_rates().values()), 1.0)

    def test_images_pairs(self, space, small_trace):
        report = _system(space).run(small_trace)
        pairs = report.images()
        assert len(pairs) == report.n_completed
        prompt, image = pairs[0]
        assert image.prompt_id == prompt.prompt_id


class TestConfigValidation:
    def test_requires_small_model(self):
        with pytest.raises(ValueError):
            MoDMConfig(small_models=())

    def test_invalid_retrieval(self):
        with pytest.raises(ValueError):
            MoDMConfig(retrieval="image-to-image")

    def test_invalid_cache_capacity(self):
        with pytest.raises(ValueError):
            MoDMConfig(cache_capacity=0)

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            ClusterConfig(gpu_name="H100")
        with pytest.raises(ValueError):
            ClusterConfig(n_workers=0)
