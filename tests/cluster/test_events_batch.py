"""The fused ``run`` drain pinned to repeated ``step``, event for event.

``run`` fuses the lane decision and the firing into one loop with the
hot state in locals; it must fire callbacks in the exact
(time, seq, timeline-ties-first) order of the one-event ``step``.  These
properties build the same schedule twice — heap events with duplicate
timestamps, callbacks that schedule more work at their own timestamp or
later, and a timeline lane that ties against heap entries — and assert
the firing logs are identical.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.events import EventLoop

_SLOW = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)

#: Few distinct timestamps so duplicates (same-tick cohorts) are common.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 2.5, 3.0])

#: What a fired callback does: nothing, schedule another event at its
#: own timestamp, or one second later.
_ACTIONS = st.sampled_from(["none", "same", "later"])

_EVENTS = st.lists(st.tuples(_TIMES, _ACTIONS), max_size=25)
_TIMELINE = st.lists(_TIMES, max_size=10).map(sorted)


def _build(events, timeline, log):
    """One loop holding the generated schedule, firing into ``log``."""
    loop = EventLoop()

    def make_callback(label, action):
        def callback(now):
            log.append((now, label))
            if action == "same":
                loop.schedule(
                    now,
                    lambda t, lbl=f"{label}+same": log.append((t, lbl)),
                )
            elif action == "later":
                loop.schedule(
                    now + 1.0,
                    lambda t, lbl=f"{label}+later": log.append((t, lbl)),
                )

        return callback

    for i, (time, action) in enumerate(events):
        loop.schedule(time, make_callback(f"e{i}", action))
    if timeline:
        loop.schedule_timeline(
            np.asarray(timeline, dtype=np.float64),
            lambda t, i: log.append((t, f"tl{i}")),
        )
    return loop


@given(events=_EVENTS, timeline=_TIMELINE)
@_SLOW
def test_run_drain_matches_step(events, timeline):
    reference_log = []
    loop = _build(events, timeline, reference_log)
    while loop.step():
        pass

    run_log = []
    loop = _build(events, timeline, run_log)
    loop.run()
    assert run_log == reference_log
    assert loop.pending == 0


@given(
    events=_EVENTS,
    timeline=_TIMELINE,
    until=st.sampled_from([0.0, 1.0, 2.0, 2.75]),
)
@_SLOW
def test_run_until_matches_stepped_prefix(events, timeline, until):
    reference_log = []
    loop = _build(events, timeline, reference_log)
    while loop.step():
        pass
    expected = [entry for entry in reference_log if entry[0] <= until]

    run_log = []
    loop = _build(events, timeline, run_log)
    loop.run(until=until)
    assert run_log == expected
