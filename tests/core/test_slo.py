"""Tests for the SLO subsystem: policy, EDF queue, gate, and serving."""

import hashlib
import json

import pytest

from repro.cluster.stats import StatsCollector
from repro.core.config import (
    ClusterConfig,
    MoDMConfig,
    MonitorMode,
    SLOClass,
    SLOPolicy,
)
from repro.core.baselines import NirvanaSystem, VanillaSystem
from repro.core.monitor import GlobalMonitor
from repro.core.request import RequestRecord
from repro.core.serving import MoDMSystem, _ReadyQueue
from repro.core.slo import PathEstimate, SloGate, summarize_slo
from repro.diffusion.registry import get_model
from repro.cluster.arrivals import poisson_arrivals
from repro.workloads import DiffusionDBConfig, diffusiondb_trace


def _record(
    request_id=0,
    arrival=0.0,
    enqueued=0.0,
    priority=0,
    deadline=None,
):
    rec = RequestRecord(
        request_id=request_id, prompt=None, arrival_s=arrival
    )
    rec.enqueued_s = enqueued
    rec.priority = priority
    rec.deadline_s = deadline
    return rec


# ----------------------------------------------------------------------
# SLOPolicy / SLOClass configuration
# ----------------------------------------------------------------------
class TestSLOPolicyConfig:
    def test_deadline_from_multiplier(self):
        cls = SLOClass(name="std", multiplier=2.0)
        assert cls.deadline_budget_s(50.0) == 100.0

    def test_absolute_deadline_wins(self):
        cls = SLOClass(name="std", multiplier=2.0, deadline_s=30.0)
        assert cls.deadline_budget_s(50.0) == 30.0

    def test_needs_multiplier_or_deadline(self):
        with pytest.raises(ValueError):
            SLOClass(name="bad", multiplier=None)
        with pytest.raises(ValueError):
            SLOClass(name="bad", multiplier=-1.0)

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError):
            SLOPolicy(
                classes=(SLOClass(name="a"), SLOClass(name="a"))
            )

    def test_class_assignment_deterministic_and_weighted(self):
        policy = SLOPolicy(
            classes=(
                SLOClass(name="premium", priority=0, share=1.0),
                SLOClass(name="batch", priority=1, share=3.0),
            )
        )
        first = [policy.class_of(i).name for i in range(400)]
        again = [policy.class_of(i).name for i in range(400)]
        assert first == again
        premium_share = first.count("premium") / len(first)
        assert 0.15 < premium_share < 0.35  # ~1/4 by share weights

    def test_single_class_shortcut(self):
        policy = SLOPolicy()
        assert policy.class_of(123).name == "standard"

    def test_class_named_unknown(self):
        with pytest.raises(KeyError):
            SLOPolicy().class_named("nope")


# ----------------------------------------------------------------------
# EDF ready-queue ordering
# ----------------------------------------------------------------------
class TestEdfReadyQueue:
    def test_orders_by_deadline(self):
        q = _ReadyQueue(edf=True)
        late = _record(request_id=1, deadline=300.0)
        soon = _record(request_id=2, deadline=100.0)
        q.push(late, now=0.0)
        q.push(soon, now=0.0)
        assert q.pop(0.0).request_id == 2
        assert q.pop(0.0).request_id == 1

    def test_equal_deadlines_fifo_tiebreak(self):
        q = _ReadyQueue(edf=True)
        for i in range(5):
            q.push(_record(request_id=i, deadline=100.0), now=0.0)
        assert [q.pop(0.0).request_id for _ in range(5)] == list(range(5))

    def test_priority_dominates_deadline(self):
        # Priority inversion: an urgent-deadline low-priority record must
        # not jump a high-priority one.
        q = _ReadyQueue(edf=True)
        q.push(
            _record(request_id=1, priority=1, deadline=10.0), now=0.0
        )
        q.push(
            _record(request_id=2, priority=0, deadline=500.0), now=0.0
        )
        assert q.pop(0.0).request_id == 2
        assert q.pop(0.0).request_id == 1

    def test_zero_slack_still_served_in_order(self):
        q = _ReadyQueue(edf=True)
        q.push(_record(request_id=1, deadline=50.0), now=50.0)
        q.push(_record(request_id=2, deadline=60.0), now=50.0)
        assert q.pop(50.0).request_id == 1

    def test_no_deadline_sorts_last_in_band(self):
        q = _ReadyQueue(edf=True)
        q.push(_record(request_id=1, deadline=None), now=0.0)
        q.push(_record(request_id=2, deadline=1e9), now=0.0)
        assert q.pop(0.0).request_id == 2
        assert q.pop(0.0).request_id == 1

    def test_pending_promotion_rekeys_by_deadline(self):
        q = _ReadyQueue(edf=True)
        # Not ready yet: pending is keyed by enqueued_s, but once both
        # promote, pops must come out in deadline order.
        q.push(_record(request_id=1, enqueued=5.0, deadline=900.0), 0.0)
        q.push(_record(request_id=2, enqueued=6.0, deadline=100.0), 0.0)
        assert q.pop(4.0) is None
        assert q.pop(6.0).request_id == 2

    def test_iteration_matches_pop_order(self):
        q = _ReadyQueue(edf=True)
        q.push(_record(request_id=1, deadline=300.0), now=0.0)
        q.push(_record(request_id=2, deadline=100.0), now=0.0)
        q.push(_record(request_id=3, enqueued=50.0, deadline=10.0), 0.0)
        assert [r.request_id for r in q] == [2, 1, 3]
        assert len(q) == 3

    def test_fifo_mode_unchanged(self):
        q = _ReadyQueue()
        q.push(_record(request_id=1, deadline=900.0), now=0.0)
        q.push(_record(request_id=2, deadline=1.0), now=0.0)
        assert q.pop(0.0).request_id == 1  # insertion order, not EDF


# ----------------------------------------------------------------------
# Gate state machine: accept / degrade / shed / late boundaries
# ----------------------------------------------------------------------
class TestSloGate:
    def _gate(self, policy=None, stats=None):
        return SloGate(policy or SLOPolicy(), 50.0, stats)

    def _stamped(self, gate, arrival=0.0):
        rec = _record(request_id=7, arrival=arrival, enqueued=arrival)
        gate.assign(rec)
        return rec

    def test_assign_stamps_class_and_deadline(self):
        gate = self._gate()
        rec = self._stamped(gate, arrival=10.0)
        assert rec.slo_class == "standard"
        assert rec.deadline_s == 10.0 + 2.0 * 50.0
        assert rec.slack_s(10.0) == 100.0

    def test_accept_when_primary_feasible(self):
        gate = self._gate()
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec, 0.0, PathEstimate("large", wait_s=40.0, service_s=60.0)
        )
        assert verdict.action == "accept"
        assert not rec.shed

    def test_exact_deadline_boundary_is_feasible(self):
        gate = self._gate()
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec, 0.0, PathEstimate("large", wait_s=50.0, service_s=50.0)
        )
        assert verdict.action == "accept"

    def test_degrade_when_only_fallback_feasible(self):
        gate = self._gate()
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec,
            0.0,
            PathEstimate("large", wait_s=90.0, service_s=50.0),
            (
                PathEstimate(
                    "small", wait_s=10.0, service_s=20.0, degraded=True
                ),
            ),
        )
        assert verdict.action == "degrade"
        assert verdict.path.name == "small"

    def test_shed_when_nothing_feasible(self):
        gate = self._gate()
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec,
            0.0,
            PathEstimate("large", wait_s=90.0, service_s=50.0),
            (PathEstimate("small", wait_s=90.0, service_s=30.0, degraded=True),),
        )
        assert verdict.action == "shed"
        assert rec.shed
        assert rec.rejection.slo_class == "standard"
        assert rec.rejection.best_estimate_s == 120.0
        assert rec.rejection.best_estimate_s > rec.deadline_s

    def test_shed_best_estimate_ignores_forbidden_fallbacks(self):
        # With degrade off, a feasible fallback the request cannot take
        # must not make the shed look avoidable.
        gate = self._gate(SLOPolicy(degrade=False))
        rec = self._stamped(gate)
        gate.admit(
            rec,
            0.0,
            PathEstimate("large", wait_s=90.0, service_s=50.0),
            (PathEstimate("small", wait_s=0.0, service_s=10.0, degraded=True),),
        )
        assert rec.rejection.best_estimate_s == 140.0  # primary, not 10
        assert rec.rejection.best_estimate_s > rec.deadline_s

    def test_degrade_disabled_skips_fallbacks(self):
        gate = self._gate(SLOPolicy(degrade=False))
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec,
            0.0,
            PathEstimate("large", wait_s=200.0, service_s=50.0),
            (PathEstimate("small", wait_s=0.0, service_s=10.0, degraded=True),),
        )
        assert verdict.action == "shed"

    def test_non_degradable_class_skips_fallbacks(self):
        policy = SLOPolicy(
            classes=(SLOClass(name="strict", degradable=False),)
        )
        gate = self._gate(policy)
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec,
            0.0,
            PathEstimate("large", wait_s=200.0, service_s=50.0),
            (PathEstimate("small", wait_s=0.0, service_s=10.0, degraded=True),),
        )
        assert verdict.action == "shed"

    def test_non_sheddable_class_rides_late(self):
        policy = SLOPolicy(
            classes=(SLOClass(name="vip", sheddable=False),)
        )
        gate = self._gate(policy)
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec, 0.0, PathEstimate("large", wait_s=500.0, service_s=50.0)
        )
        assert verdict.action == "late"
        assert verdict.admitted
        assert not rec.shed

    def test_admission_disabled_rides_late(self):
        gate = self._gate(SLOPolicy(admission=False, degrade=False))
        rec = self._stamped(gate)
        verdict = gate.admit(
            rec, 0.0, PathEstimate("large", wait_s=500.0, service_s=50.0)
        )
        assert verdict.action == "late"

    def test_events_streamed_to_stats(self):
        stats = StatsCollector()
        gate = self._gate(stats=stats)
        rec = self._stamped(gate)
        gate.admit(
            rec, 0.0, PathEstimate("large", wait_s=0.0, service_s=50.0)
        )
        gate.record_completion(rec, 60.0)
        window = stats.slo_window(60.0, 300.0)
        assert window.accepted == 1
        assert window.met == 1
        assert window.pressure == 0.0


# ----------------------------------------------------------------------
# Stats: SLO window and pressure
# ----------------------------------------------------------------------
class TestSloWindowStats:
    def test_counts_and_pressure(self):
        stats = StatsCollector()
        for t, kind in (
            (1.0, "accept"),
            (2.0, "accept"),
            (3.0, "shed"),
            (4.0, "degrade"),
            (5.0, "violation"),
            (6.0, "met"),
        ):
            stats.record_slo(t, kind, 10.0)
        window = stats.slo_window(6.0, 10.0)
        assert (window.accepted, window.shed, window.degraded) == (2, 1, 1)
        assert (window.met, window.violated) == (1, 1)
        # bad = shed + violation + 0.5*degrade = 2.5 of 6 events
        assert window.pressure == pytest.approx(2.5 / 6)

    def test_old_events_age_out(self):
        stats = StatsCollector()
        stats.record_slo(0.0, "shed", -5.0)
        stats.record_slo(100.0, "accept", 5.0)
        window = stats.slo_window(100.0, 50.0)
        assert window.shed == 0
        assert window.accepted == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StatsCollector().record_slo(0.0, "bogus", 0.0)

    def test_mean_slack_admissions_only(self):
        stats = StatsCollector()
        stats.record_slo(1.0, "accept", 10.0)
        stats.record_slo(2.0, "shed", -30.0)
        stats.record_slo(3.0, "met", 99.0)  # outcome: not in mean
        window = stats.slo_window(3.0, 10.0)
        assert window.mean_slack_s == pytest.approx(-10.0)


# ----------------------------------------------------------------------
# Monitor: SLO pressure shifts allocation toward the small model
# ----------------------------------------------------------------------
class TestMonitorPressure:
    def _monitor(self):
        return GlobalMonitor(
            mode=MonitorMode.THROUGHPUT,
            use_pid=False,
            large_model=get_model("sd3.5-large"),
            small_models=[get_model("sdxl")],
            gpu_name="MI210",
            n_workers=16,
        )

    def _window(self):
        stats = StatsCollector()
        for i in range(100):
            stats.record_decision(float(i), hit=(i % 2 == 0), k=10)
        return stats.window(100.0, 300.0)

    def test_pressure_reduces_large_allocation(self):
        window = self._window()
        calm = self._monitor().allocate(window)
        pressed = self._monitor().allocate(window, slo_pressure=0.9)
        assert pressed.n_large < calm.n_large
        assert pressed.n_small > calm.n_small

    def test_zero_pressure_identical(self):
        window = self._window()
        assert self._monitor().allocate(window) == self._monitor().allocate(
            window, slo_pressure=0.0
        )

    def test_invalid_pressure_rejected(self):
        with pytest.raises(ValueError):
            self._monitor().allocate(self._window(), slo_pressure=1.5)


# ----------------------------------------------------------------------
# Serving integration: shed/degrade accounting + disabled bit-identity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def slo_trace(space):
    trace = diffusiondb_trace(
        space, DiffusionDBConfig(n_requests=260, seed="slo-serving")
    )
    base = trace.slice(60, 260).rebase()
    arrivals = poisson_arrivals(20.0, len(base), seed="slo-serving-rate")
    return trace, base.with_arrivals(arrivals)


class TestServingWithSlo:
    def _modm(self, space, policy):
        return MoDMSystem(
            space,
            MoDMConfig(
                cluster=ClusterConfig(gpu_name="A40", n_workers=2),
                cache_capacity=300,
                small_models=("sdxl",),
                slo=policy,
            ),
        )

    def test_overloaded_vanilla_sheds_and_terminates(
        self, space, slo_trace
    ):
        _, timed = slo_trace
        system = VanillaSystem(
            space,
            ClusterConfig(gpu_name="A40", n_workers=2),
            slo=SLOPolicy(),
        )
        report = system.run(timed)
        summary = report.slo()
        assert report.n_shed > 0
        assert summary.shed == report.n_shed
        assert summary.total == len(timed)
        # Terminal states cover the whole trace: nothing left hanging.
        assert summary.shed + summary.completed_in_time + \
            summary.completed_late + summary.unfinished == summary.total
        assert summary.unfinished == 0
        # Shed records are excluded from latency metrics.
        assert report.latencies().size == report.n_completed

    def test_nirvana_sheds_under_overload(self, space, slo_trace):
        _, timed = slo_trace
        system = NirvanaSystem(
            space,
            ClusterConfig(gpu_name="A40", n_workers=2),
            cache_capacity=300,
            slo=SLOPolicy(),
        )
        report = system.run(timed)
        assert report.slo().shed > 0

    def test_modm_degrades_instead_of_shedding(self, space, slo_trace):
        trace, timed = slo_trace
        system = self._modm(space, SLOPolicy())
        system.warm_cache([r.prompt for r in trace.requests[:60]])
        report = system.run(timed)
        summary = report.slo()
        vanilla = VanillaSystem(
            space,
            ClusterConfig(gpu_name="A40", n_workers=2),
            slo=SLOPolicy(),
        ).run(timed)
        assert summary.shed < vanilla.slo().shed
        assert summary.violation_rate < vanilla.slo().violation_rate
        assert report.n_degraded == summary.degraded
        # Degraded requests completed on the hit path: the small model,
        # or an idle large worker draining the hit queue — in which case
        # the record must carry a refine anchor (a candidate-less
        # degraded miss served by a large worker is full primary service
        # and loses the flag).
        degraded = [
            r for r in report.records if r.degraded and not r.shed
        ]
        assert degraded
        for r in degraded:
            if not r.completed:
                continue
            assert r.model_name in ("sdxl", "sd3.5-large")
            if r.model_name == "sd3.5-large":
                assert r.degrade_source is not None

    def test_non_sheddable_class_never_sheds(self, space, slo_trace):
        _, timed = slo_trace
        policy = SLOPolicy(
            classes=(SLOClass(name="vip", sheddable=False),),
            degrade=False,
        )
        system = VanillaSystem(
            space,
            ClusterConfig(gpu_name="A40", n_workers=2),
            slo=policy,
        )
        report = system.run(timed)
        assert report.n_shed == 0
        assert report.n_completed == len(timed)

    def test_summarize_none_without_deadlines(self, space, slo_trace):
        _, timed = slo_trace
        report = VanillaSystem(
            space, ClusterConfig(gpu_name="A40", n_workers=2)
        ).run(timed)
        assert report.slo() is None
        assert summarize_slo(report.records) is None


class TestDisabledBitIdentity:
    """With the SLO subsystem off, decisions are bit-for-bit unchanged.

    The seed golden regression (tests/integration) pins ``slo=None``
    against the pre-SLO engine; this adds the observe-only equivalence —
    a policy with every behaviour knob off must not perturb the engine
    either (it only annotates and accounts).
    """

    OBSERVE_ONLY = SLOPolicy(
        edf=False,
        admission=False,
        degrade=False,
        monitor_pressure=False,
    )

    def _run(self, space, trace, timed, policy):
        system = MoDMSystem(
            space,
            MoDMConfig(
                cluster=ClusterConfig(gpu_name="A40", n_workers=2),
                cache_capacity=300,
                small_models=("sdxl",),
                slo=policy,
            ),
        )
        system.warm_cache([r.prompt for r in trace.requests[:60]])
        return system.run(timed)

    @staticmethod
    def _fingerprint(report):
        payload = [
            (
                r.request_id,
                r.decision.hit,
                r.decision.k_steps,
                round(r.decision.similarity, 12),
                round(r.completion_s, 9) if r.completed else None,
                r.worker_id,
                r.model_name,
            )
            for r in report.records
        ]
        return hashlib.sha256(json.dumps(payload).encode()).hexdigest()

    def test_observe_only_policy_is_bit_identical(
        self, space, slo_trace
    ):
        trace, timed = slo_trace
        baseline = self._run(space, trace, timed, None)
        observed = self._run(space, trace, timed, self.OBSERVE_ONLY)
        assert self._fingerprint(baseline) == self._fingerprint(observed)
        # ...while still annotating deadlines and accounting.
        assert baseline.slo() is None
        summary = observed.slo()
        assert summary is not None
        assert summary.shed == 0
        assert summary.total == len(timed)
