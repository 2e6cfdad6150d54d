"""Tests for the PID controller and the Global Monitor (Algorithm 1)."""

import pytest

from repro.cluster.stats import WindowStats
from repro.core.config import MonitorMode
from repro.core.monitor import Allocation, GlobalMonitor
from repro.core.pid import PIDController
from repro.diffusion.registry import get_model


def _window(rate_rpm, hit_rate, k_rates=None, window_s=60.0):
    arrivals = int(round(rate_rpm * window_s / 60.0))
    hits = int(round(arrivals * hit_rate))
    return WindowStats(
        window_s=window_s,
        arrivals=arrivals,
        hits=hits,
        misses=arrivals - hits,
        k_rates=k_rates or {15: 1.0},
    )


class TestPIDController:
    def test_zero_error_zero_output(self):
        pid = PIDController()
        assert pid.compute(5.0, 5.0) == 0.0

    def test_proportional_direction(self):
        pid = PIDController(kp=0.6, ki=0.0, kd=0.0)
        assert pid.compute(10.0, 5.0) > 0
        assert pid.compute(0.0, 5.0) < 0

    def test_paper_tuning_defaults(self):
        pid = PIDController()
        assert (pid.kp, pid.ki, pid.kd) == (0.6, 0.05, 0.05)

    def test_converges_to_setpoint(self):
        pid = PIDController()
        current = 0.0
        for _ in range(60):
            current += pid.compute(8.0, current)
        assert abs(current - 8.0) < 0.5

    def test_damps_step_change(self):
        """One period never jumps the full distance (stability, §5.3)."""
        pid = PIDController()
        delta = pid.compute(16.0, 4.0)
        assert 0 < delta < 12.0

    def test_integral_windup_clamped(self):
        pid = PIDController(integral_limit=2.0)
        for _ in range(100):
            pid.compute(100.0, 0.0)
        assert pid.integral == 2.0

    def test_reset_clears_state(self):
        pid = PIDController()
        pid.compute(10.0, 0.0)
        pid.reset()
        assert pid.integral == 0.0
        assert pid.compute(5.0, 5.0) == 0.0

    def test_invalid_integral_limit(self):
        with pytest.raises(ValueError):
            PIDController(integral_limit=0.0)


@pytest.fixture
def monitor():
    return GlobalMonitor(
        mode=MonitorMode.THROUGHPUT,
        use_pid=False,
        large_model=get_model("sd3.5-large"),
        small_models=[get_model("sdxl"), get_model("sana-1.6b")],
        gpu_name="MI210",
        n_workers=16,
    )


class TestThroughputMode:
    def test_all_misses_all_large(self, monitor):
        alloc = monitor.allocate(_window(10.0, hit_rate=0.0))
        assert alloc.n_large == 16
        assert alloc.n_small == 0

    def test_high_hit_rate_shifts_small(self, monitor):
        alloc = monitor.allocate(_window(20.0, hit_rate=0.9))
        assert alloc.n_small > alloc.n_large

    def test_split_tracks_workload_ratio(self, monitor):
        # Eq. 12: n_large = miss / (miss + weighted_hit) * N.
        window = _window(20.0, hit_rate=0.8, k_rates={25: 1.0})
        alloc = monitor.allocate(window)
        p_large = monitor.profiled_throughput(get_model("sd3.5-large"))
        p_small = monitor.profiled_throughput(get_model("sdxl"))
        miss = 0.2 * 20.0
        hit = 0.8 * 20.0 * (1 - 25 / 50)
        weighted = hit * p_large / p_small
        expected = round(miss / (miss + weighted) * 16)
        assert abs(alloc.n_large - expected) <= 1

    def test_minimum_one_large(self, monitor):
        alloc = monitor.allocate(_window(20.0, hit_rate=1.0))
        assert alloc.n_large >= 1

    def test_no_demand_holds_allocation(self, monitor):
        first = monitor.allocate(_window(20.0, hit_rate=0.5))
        idle = monitor.allocate(_window(0.0, hit_rate=0.0))
        assert idle.n_large == first.n_large
        assert idle.miss_workload == 0.0


class TestQualityMode:
    @pytest.fixture
    def qmonitor(self):
        return GlobalMonitor(
            mode=MonitorMode.QUALITY,
            use_pid=False,
            large_model=get_model("sd3.5-large"),
            small_models=[get_model("sdxl")],
            gpu_name="MI210",
            n_workers=16,
        )

    def test_low_load_maximizes_large(self, qmonitor):
        alloc = qmonitor.allocate(_window(4.0, hit_rate=0.8))
        # Plenty of headroom: nearly all workers stay on the large model.
        assert alloc.n_large >= 14

    def test_quality_mode_uses_more_large_than_throughput(self, qmonitor, monitor):
        window = _window(14.0, hit_rate=0.8)
        q = qmonitor.allocate(window)
        t = monitor.allocate(window)
        assert q.n_large >= t.n_large

    def test_meets_miss_constraint(self, qmonitor):
        window = _window(12.0, hit_rate=0.5)
        alloc = qmonitor.allocate(window)
        p_large = qmonitor.profiled_throughput(get_model("sd3.5-large"))
        assert alloc.n_large * p_large >= alloc.miss_workload - 1e-9


class TestSmallModelSelection:
    def test_prefers_first_candidate_when_feasible(self, monitor):
        alloc = monitor.allocate(_window(10.0, hit_rate=0.8))
        assert alloc.small_model == "sdxl"

    def test_falls_back_to_faster_model_under_load(self, monitor):
        # Demand beyond what SDXL-based serving can cover (Fig. 10).
        alloc = monitor.allocate(
            _window(40.0, hit_rate=0.8, k_rates={15: 1.0})
        )
        assert alloc.small_model == "sana-1.6b"

    def test_single_candidate_always_used(self):
        monitor = GlobalMonitor(
            mode=MonitorMode.THROUGHPUT,
            use_pid=False,
            large_model=get_model("sd3.5-large"),
            small_models=[get_model("sdxl")],
            gpu_name="MI210",
            n_workers=16,
        )
        alloc = monitor.allocate(_window(50.0, hit_rate=0.9))
        assert alloc.small_model == "sdxl"


class TestBacklogAwareness:
    def test_miss_backlog_pulls_large(self, monitor):
        no_backlog = monitor.allocate(_window(10.0, hit_rate=0.9))
        monitor.reset()
        with_backlog = monitor.allocate(
            _window(10.0, hit_rate=0.9), miss_backlog=200
        )
        assert with_backlog.n_large > no_backlog.n_large

    def test_hit_backlog_pulls_small(self, monitor):
        no_backlog = monitor.allocate(_window(10.0, hit_rate=0.1))
        monitor.reset()
        with_backlog = monitor.allocate(
            _window(10.0, hit_rate=0.1), hit_backlog_workload=150.0
        )
        assert with_backlog.n_small > no_backlog.n_small

    def test_negative_backlog_rejected(self, monitor):
        with pytest.raises(ValueError):
            monitor.allocate(_window(1.0, 0.5), miss_backlog=-1)


class TestPidIntegration:
    def test_pid_damps_reallocation(self):
        damped = GlobalMonitor(
            mode=MonitorMode.THROUGHPUT,
            use_pid=True,
            large_model=get_model("sd3.5-large"),
            small_models=[get_model("sdxl")],
            gpu_name="MI210",
            n_workers=16,
        )
        # From all-large toward a small-heavy allocation: the first step
        # must not jump all the way.
        alloc = damped.allocate(_window(30.0, hit_rate=0.95))
        assert alloc.n_large > alloc.raw_target

    def test_pid_converges_over_periods(self):
        monitor = GlobalMonitor(
            mode=MonitorMode.THROUGHPUT,
            use_pid=True,
            large_model=get_model("sd3.5-large"),
            small_models=[get_model("sdxl")],
            gpu_name="MI210",
            n_workers=16,
        )
        window = _window(20.0, hit_rate=0.8)
        last = None
        for _ in range(30):
            last = monitor.allocate(window)
        assert abs(last.n_large - round(last.raw_target)) <= 1

    def test_reset_restores_initial_state(self, monitor):
        monitor.allocate(_window(30.0, hit_rate=0.9))
        monitor.reset()
        assert monitor.current_num_large == 16.0
        assert monitor.current_small == "sdxl"


class TestAllocationValidation:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Allocation(
                n_large=-1,
                n_small=2,
                small_model="sdxl",
                raw_target=1.0,
                miss_workload=0.0,
                hit_workload=0.0,
            )

    def test_monitor_requires_candidates(self):
        with pytest.raises(ValueError):
            GlobalMonitor(
                mode=MonitorMode.THROUGHPUT,
                use_pid=True,
                large_model=get_model("sd3.5-large"),
                small_models=[],
                gpu_name="MI210",
                n_workers=4,
            )
