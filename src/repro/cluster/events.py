"""Deterministic discrete-event loop.

A minimal priority-queue scheduler: callbacks fire in timestamp order with a
monotonically increasing sequence number breaking ties, so runs are
bit-for-bit reproducible regardless of insertion order at equal timestamps.

Two extensions support the columnar engine core:

- a **timeline lane** (:meth:`EventLoop.schedule_timeline`): a serving run
  knows every arrival cohort up front, so instead of pre-pushing one heap
  entry (tuple + closure) per cohort the loop walks a sorted timestamp
  array with a cursor.  Timeline entries win ties against heap events,
  which reproduces the historical order exactly — arrivals were always
  scheduled before any completion/wakeup could be, so they carried the
  lowest sequence numbers at any shared timestamp;
- a **fused drain** (:meth:`EventLoop.run`): one lane decision per event
  with the hot state in locals, firing in the exact (time, seq) order of
  repeated :meth:`EventLoop.step` calls, which stays the reference.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

import numpy as np

Callback = Callable[[float], None]
TimelineFire = Callable[[float, int], None]


class EventLoop:
    """Priority-queue event loop with a monotonic clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callback]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        # Timeline lane state: the validated timestamp array, a plain
        # python-float list twin (scalar indexing off a list is several
        # times cheaper than off an ndarray in the hot loop), the fire
        # callback, and the cursor.
        self._tl_times: Optional[np.ndarray] = None
        self._tl_list: List[float] = []
        self._tl_fire: Optional[TimelineFire] = None
        self._tl_idx = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        tl = 0
        if self._tl_times is not None:
            tl = len(self._tl_times) - self._tl_idx
        return len(self._heap) + tl

    @property
    def processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def timeline_index(self) -> int:
        """Cursor into the installed timeline (entries already fired)."""
        return self._tl_idx

    def heap_entries(self) -> List[Tuple[float, int, Callback]]:
        """Pending heap events in firing order (snapshot support).

        Only the *relative* sequence order is meaningful to a consumer —
        re-scheduling the returned callbacks in this order through
        :meth:`schedule` reproduces the firing order exactly.
        """
        return sorted(self._heap)

    def restore_clock(self, now: float, timeline_index: int = 0) -> None:
        """Reset the clock and timeline cursor on a *fresh* loop.

        Snapshot restore installs the run's timeline first (while the
        clock still reads 0, so past arrivals validate), then jumps the
        clock and cursor to the capture instant; already-fired entries
        are skipped, not re-fired.
        """
        if self._heap:
            raise ValueError(
                "restore_clock requires an empty heap; restore the "
                "clock before re-scheduling events"
            )
        if self._tl_times is not None and not (
            0 <= timeline_index <= len(self._tl_times)
        ):
            raise ValueError(
                f"timeline index {timeline_index} out of range"
            )
        self._now = now
        self._tl_idx = timeline_index

    def schedule(self, time: float, callback: Callback) -> None:
        """Schedule ``callback(now)`` to fire at ``time``.

        Scheduling in the past is a logic error in a simulation and raises.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time:.6f} before now "
                f"({self._now:.6f})"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def schedule_in(self, delay: float, callback: Callback) -> None:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self._now + delay, callback)

    def schedule_timeline(
        self, times: np.ndarray, fire: TimelineFire
    ) -> None:
        """Install the pre-sorted event timeline ``fire(time, index)``.

        ``times`` must be non-decreasing and start at or after ``now``.
        Timeline entries fire *before* heap events at equal timestamps
        (they stand in for events that would otherwise have been
        scheduled first, e.g. a run's arrival cohorts).  One timeline at
        a time: installing a second while entries remain raises.
        """
        if self._tl_times is not None and self._tl_idx < len(self._tl_times):
            raise ValueError("a timeline with pending entries is installed")
        times = np.ascontiguousarray(times, dtype=np.float64)
        if len(times):
            if times[0] < self._now:
                raise ValueError(
                    f"cannot schedule timeline starting at "
                    f"{times[0]:.6f} before now ({self._now:.6f})"
                )
            if np.any(np.diff(times) < 0):
                raise ValueError("timeline timestamps must be sorted")
        self._tl_times = times
        self._tl_list = times.tolist()
        self._tl_fire = fire
        self._tl_idx = 0

    def _next_is_timeline(self) -> Optional[bool]:
        """Which lane fires next: True=timeline, False=heap, None=empty."""
        tl = self._tl_list
        has_tl = self._tl_idx < len(tl)
        if not self._heap:
            return True if has_tl else None
        if not has_tl:
            return False
        # Ties go to the timeline lane (see class docstring).
        return tl[self._tl_idx] <= self._heap[0][0]

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        lane = self._next_is_timeline()
        if lane is None:
            return False
        if lane:
            i = self._tl_idx
            time = self._tl_list[i]
            self._tl_idx = i + 1
            self._now = time
            self._processed += 1
            self._tl_fire(time, i)
        else:
            time, _, callback = heapq.heappop(self._heap)
            self._now = time
            self._processed += 1
            callback(time)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` passes.

        Events scheduled exactly at ``until`` still fire; later ones stay
        queued (the clock never advances past the last fired event).
        Fires in the exact (time, seq) order of repeated :meth:`step` —
        the lane choice below mirrors ``_next_is_timeline`` (ties go to
        the timeline) with the hot state in locals.
        """
        heap = self._heap
        tl = self._tl_list
        n_tl = len(tl)
        fire = self._tl_fire
        heappop = heapq.heappop
        while True:
            if tl is not self._tl_list:
                # A callback installed a fresh timeline mid-run.
                tl = self._tl_list
                n_tl = len(tl)
                fire = self._tl_fire
            i = self._tl_idx
            if i < n_tl:
                t_tl = tl[i]
                if heap and heap[0][0] < t_tl:
                    head = heap[0][0]
                    use_tl = False
                else:
                    head = t_tl
                    use_tl = True
            elif heap:
                head = heap[0][0]
                use_tl = False
            else:
                return
            if until is not None and head > until:
                return
            if use_tl:
                self._tl_idx = i + 1
                self._now = head
                self._processed += 1
                fire(head, i)
            else:
                time, _, callback = heappop(heap)
                self._now = time
                self._processed += 1
                callback(time)
