"""The Global Monitor: dynamic model allocation (Algorithm 1, §5.3).

Each monitoring period the monitor reads the last window's request rate,
cache hit rate, and refinement-step distribution, derives the cache-miss and
cache-hit workloads, and allocates the ``N`` GPU workers between the large
model and a small model:

* **Quality-optimized** — maximize the number of large-model workers
  subject to meeting both workloads (Eqs. 6-10);
* **Throughput-optimized** — split workers proportionally to the workloads
  with the hit workload re-weighted by the small/large throughput ratio
  (Eqs. 11-12).

A PID controller (``Kp=0.6, Ki=0.05, Kd=0.05``) damps the heuristic's
period-to-period jumps.  On top of Algorithm 1, the monitor picks *which*
small model to serve with: the highest-quality candidate whose capacity
meets demand, falling back to faster ones under load (the SDXL -> SANA
switch of Fig. 10).  The period, window, PID gains and SLO-pressure gain
are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.cluster.stats import WindowStats
from repro.core.config import MonitorMode
from repro.core.kselection import REFERENCE_TOTAL_STEPS
from repro.core.pid import PIDController
from repro.diffusion.registry import ModelSpec


#: Seconds between monitoring periods (allocation ticks).
MONITOR_PERIOD_S = 60.0
#: Seconds of history each period's window statistics cover.
MONITOR_WINDOW_S = 300.0
#: PID gains damping the period-to-period large-worker target.
MONITOR_KP = 0.6
MONITOR_KI = 0.05
MONITOR_KD = 0.05
#: How strongly SLO pressure (0-1) shifts the split toward the small
#: model: the large-worker target is scaled by ``1 - gain * pressure``.
SLO_PRESSURE_GAIN = 0.5


def estimate_workloads(
    window: WindowStats,
    miss_backlog: int = 0,
    hit_backlog_workload: float = 0.0,
    period_s: float = MONITOR_PERIOD_S,
) -> Tuple[float, float]:
    """(miss, hit) workloads in full-generations/min (Alg. 1 lines 3-8).

    The demand-estimation core of the Global Monitor, shared with the
    cluster layer's :class:`~repro.core.cluster_router.ReplicaAutoscaler`
    (which runs it per replica to derive worker shares).  Queued work is
    folded in scaled to clear within one period.
    """
    if miss_backlog < 0 or hit_backlog_workload < 0:
        raise ValueError("backlogs must be non-negative")
    rate = window.request_rate_per_min
    hit_rate = window.hit_rate
    # Queued work should clear within roughly one monitoring period.
    backlog_scale = 60.0 / period_s
    miss_workload = (
        (1.0 - hit_rate) * rate + miss_backlog * backlog_scale
    )

    # Refinement workload factor: sum over k of P(K=k) * (1 - k/T).
    if window.k_rates:
        refine_factor = sum(
            share * (1.0 - k / REFERENCE_TOTAL_STEPS)
            for k, share in window.k_rates.items()
        )
    else:
        refine_factor = 1.0
    hit_workload = (
        hit_rate * rate * refine_factor
        + hit_backlog_workload * backlog_scale
    )
    return miss_workload, hit_workload


@dataclass(frozen=True)
class Allocation:
    """One period's worker split."""

    n_large: int
    n_small: int
    small_model: str
    raw_target: float
    miss_workload: float
    hit_workload: float

    def __post_init__(self) -> None:
        if self.n_large < 0 or self.n_small < 0:
            raise ValueError("allocations must be non-negative")


class GlobalMonitor:
    """Stateful allocator over a fixed worker pool."""

    def __init__(
        self,
        mode: MonitorMode,
        use_pid: bool,
        large_model: ModelSpec,
        small_models: Sequence[ModelSpec],
        gpu_name: str,
        n_workers: int,
    ):
        if not small_models:
            raise ValueError("need at least one small-model candidate")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._mode = mode  # snap: derived (constructor config)
        self._use_pid = use_pid  # snap: derived (constructor config)
        self._large = large_model  # snap: derived (constructor config)
        self._smalls = list(small_models)  # snap: derived (config)
        self._gpu = gpu_name  # snap: derived (constructor config)
        self._n = n_workers
        self._pid = PIDController(
            kp=MONITOR_KP, ki=MONITOR_KI, kd=MONITOR_KD
        )
        # Start fully on the large model (quality first); the first period
        # with traffic pulls the split toward the workload.
        self.current_num_large: float = float(n_workers)
        self.current_small: str = self._smalls[0].name

    @property
    def n_workers(self) -> int:
        return self._n

    def profiled_throughput(self, spec: ModelSpec) -> float:
        """Full-generation requests/min/GPU — Table 1's P_large / P_small."""
        return spec.throughput_rpm(self._gpu, spec.total_steps)

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def allocate(
        self,
        window: WindowStats,
        miss_backlog: int = 0,
        hit_backlog_workload: float = 0.0,
        slo_pressure: float = 0.0,
    ) -> Allocation:
        """Run one monitoring period over the window's statistics.

        ``miss_backlog`` (queued cache misses) and ``hit_backlog_workload``
        (queued cache-hit refinement work, in full-generation equivalents)
        make the allocator react to accumulated queues as well as fresh
        arrivals; without them a demand burst larger than the stats window
        would starve once its arrivals age out of the window.

        ``slo_pressure`` (0-1, from the stats collector's SLO window) pulls
        the split toward the small model when deadlines are being missed:
        the mode target is scaled by ``1 - SLO_PRESSURE_GAIN * pressure``
        before damping, trading per-request quality for the throughput
        that restores slack.  At 0 (the default, and always when the SLO
        subsystem is off) the allocation is untouched.
        """
        if not 0.0 <= slo_pressure <= 1.0:
            raise ValueError("slo_pressure must be in [0, 1]")
        miss_workload, hit_workload = estimate_workloads(
            window,
            miss_backlog=miss_backlog,
            hit_backlog_workload=hit_backlog_workload,
            period_s=MONITOR_PERIOD_S,
        )

        small = self._choose_small(miss_workload, hit_workload)
        p_large = self.profiled_throughput(self._large)
        p_small = self.profiled_throughput(small)

        if miss_workload + hit_workload <= 0.0:
            # No demand signal: hold the allocation and controller steady.
            self.current_small = small.name
            n_large = max(
                1, min(round(self.current_num_large), self._n)
            )
            return Allocation(
                n_large=n_large,
                n_small=self._n - n_large,
                small_model=small.name,
                raw_target=self.current_num_large,
                miss_workload=0.0,
                hit_workload=0.0,
            )
        if self._mode is MonitorMode.QUALITY:
            target = float(
                self._quality_target(
                    miss_workload, hit_workload, p_large, p_small
                )
            )
        else:
            target = self._throughput_target(
                miss_workload, hit_workload, p_large, p_small
            )
        if slo_pressure > 0.0:
            target *= 1.0 - SLO_PRESSURE_GAIN * slo_pressure

        if self._use_pid:
            delta = self._pid.compute(target, self.current_num_large)
            self.current_num_large += delta
        else:
            self.current_num_large = target
        n_large = max(1, min(round(self.current_num_large), self._n))
        self.current_small = small.name
        return Allocation(
            n_large=n_large,
            n_small=self._n - n_large,
            small_model=small.name,
            raw_target=target,
            miss_workload=miss_workload,
            hit_workload=hit_workload,
        )

    def reset(self) -> None:
        """Clear controller state for a fresh run."""
        self._pid.reset()
        self.current_num_large = float(self._n)
        self.current_small = self._smalls[0].name

    def snapshot_state(self) -> tuple:
        """Monitor + PID state for snapshot/restore."""
        return (
            self.current_num_large,
            self.current_small,
            self._n,
            self._pid.snapshot_state(),
        )

    def restore_state(self, state: tuple) -> None:
        (
            self.current_num_large,
            self.current_small,
            self._n,
            pid_state,
        ) = state
        self._pid.restore_state(pid_state)

    def resize(self, n_workers: int) -> None:
        """Re-anchor the monitor to a changed worker-pool size.

        Called by the replica autoscaler when workers move between
        replicas mid-run; the controller state carries over, clamped to
        the new pool so the next allocation cannot address workers the
        replica no longer has.  A same-size resize is a no-op.
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_workers == self._n:
            return
        self._n = n_workers
        self.current_num_large = min(
            self.current_num_large, float(n_workers)
        )

    # ------------------------------------------------------------------
    # Mode-specific targets
    # ------------------------------------------------------------------
    def _quality_target(
        self,
        miss_workload: float,
        hit_workload: float,
        p_large: float,
        p_small: float,
    ) -> int:
        """Maximum large-model count meeting Eqs. 6-9 (Alg. 1 lines 9-19)."""
        num_large = int(math.ceil(miss_workload / p_large))
        num_large = max(1, min(num_large, self._n))
        while num_large <= self._n:
            available = (
                num_large * p_large
                - miss_workload
                + (self._n - num_large) * p_small
            )
            if available >= hit_workload:
                num_large += 1
            else:
                num_large -= 1
                break
        return max(1, min(num_large, self._n))

    def _throughput_target(
        self,
        miss_workload: float,
        hit_workload: float,
        p_large: float,
        p_small: float,
    ) -> float:
        """Workload-proportional split with weighting (Alg. 1 lines 20-24)."""
        hit_weighted = hit_workload * (p_large / p_small)
        total = hit_weighted + miss_workload
        if total <= 0.0:
            return self.current_num_large
        return (miss_workload / total) * self._n

    # ------------------------------------------------------------------
    # Small-model selection (Fig. 10's adaptive switch)
    # ------------------------------------------------------------------
    def _choose_small(
        self, miss_workload: float, hit_workload: float
    ) -> ModelSpec:
        """Highest-quality small candidate whose capacity meets demand.

        A candidate is feasible when some split covers both workloads:
        enough large workers for the misses (Eq. 7) and the remaining
        throughput covering the hits (Eq. 9).
        """
        p_large = self.profiled_throughput(self._large)
        for candidate in self._smalls:
            p_small = self.profiled_throughput(candidate)
            min_large = int(math.ceil(miss_workload / p_large))
            if min_large > self._n:
                continue
            min_large = max(min_large, 0)
            spare_large = min_large * p_large - miss_workload
            capacity = spare_large + (self._n - min_large) * p_small
            if capacity >= hit_workload:
                return candidate
        return self._smalls[-1]
