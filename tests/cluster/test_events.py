"""Tests for the discrete-event loop."""

import pytest

from repro.cluster.events import EventLoop


class TestEventLoop:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda t: fired.append(("c", t)))
        loop.schedule(1.0, lambda t: fired.append(("a", t)))
        loop.schedule(2.0, lambda t: fired.append(("b", t)))
        loop.run()
        assert [f[0] for f in fired] == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        loop = EventLoop()
        fired = []
        for name in "abc":
            loop.schedule(1.0, lambda t, n=name: fired.append(n))
        loop.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        loop = EventLoop()
        times = []
        loop.schedule(5.0, lambda t: times.append(loop.now))
        loop.run()
        assert times == [5.0]
        assert loop.now == 5.0

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(2.0, lambda t: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda t: None)

    def test_schedule_in_relative(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: loop.schedule_in(2.0, fired.append))
        loop.run()
        assert fired == [3.0]

    def test_schedule_in_negative_delay(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule_in(-1.0, lambda t: None)

    def test_callbacks_may_schedule_more(self):
        loop = EventLoop()
        fired = []

        def chain(t):
            fired.append(t)
            if t < 5:
                loop.schedule(t + 1, chain)

        loop.schedule(1.0, chain)
        loop.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_run_until_boundary_inclusive(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append)
        loop.schedule(2.0, fired.append)
        loop.schedule(3.0, fired.append)
        loop.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert loop.pending == 1

    def test_step_empty_returns_false(self):
        assert EventLoop().step() is False

    def test_processed_counter(self):
        loop = EventLoop()
        for i in range(4):
            loop.schedule(float(i), lambda t: None)
        loop.run()
        assert loop.processed == 4


class TestRunEdgeCases:
    """run(until=...) boundary behaviour."""

    def test_event_exactly_at_until_fires(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, fired.append)
        loop.run(until=2.0)
        assert fired == [2.0]
        assert loop.pending == 0
        assert loop.now == 2.0

    def test_multiple_events_at_until_all_fire(self):
        loop = EventLoop()
        fired = []
        for tag in range(3):
            loop.schedule(5.0, lambda t, tag=tag: fired.append(tag))
        loop.schedule(5.0 + 1e-9, lambda t: fired.append("late"))
        loop.run(until=5.0)
        assert fired == [0, 1, 2]
        assert loop.pending == 1

    def test_until_before_first_event_is_noop(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, fired.append)
        loop.run(until=9.0)
        assert fired == []
        assert loop.now == 0.0
        assert loop.pending == 1
