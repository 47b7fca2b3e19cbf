"""EventLoop and PeriodicTask semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, PeriodicTask


@pytest.fixture
def loop():
    return EventLoop(SimClock())


def test_schedule_and_run_until(loop):
    fired = []
    loop.schedule_at(5.0, lambda: fired.append(loop.clock.now()))
    loop.run_until(10.0)
    assert fired == [5.0]
    assert loop.clock.now() == 10.0


def test_timers_fire_in_timestamp_order(loop):
    order = []
    loop.schedule_at(3.0, lambda: order.append("b"))
    loop.schedule_at(1.0, lambda: order.append("a"))
    loop.schedule_at(7.0, lambda: order.append("c"))
    loop.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_ties_fire_in_insertion_order(loop):
    order = []
    loop.schedule_at(1.0, lambda: order.append("first"))
    loop.schedule_at(1.0, lambda: order.append("second"))
    loop.run_until(2.0)
    assert order == ["first", "second"]


def test_schedule_after_uses_relative_delay(loop):
    loop.clock.charge(2.0)
    fired = []
    loop.schedule_after(1.5, lambda: fired.append(loop.clock.now()))
    loop.run_until(5.0)
    assert fired == [3.5]


def test_schedule_in_past_rejected(loop):
    loop.clock.charge(5.0)
    with pytest.raises(SimulationError):
        loop.schedule_at(4.0, lambda: None)


def test_run_due_fires_overdue_without_advancing(loop):
    fired = []
    loop.schedule_at(1.0, lambda: fired.append(1))
    loop.clock.charge(2.0)
    assert loop.run_due() == 1
    assert fired == [1]
    assert loop.clock.now() == 2.0


def test_run_due_skips_future(loop):
    loop.schedule_at(10.0, lambda: None)
    assert loop.run_due() == 0
    assert len(loop) == 1


def test_timer_can_schedule_another(loop):
    fired = []

    def chain():
        fired.append(loop.clock.now())
        if len(fired) < 3:
            loop.schedule_after(1.0, chain)

    loop.schedule_at(1.0, chain)
    loop.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_periodic_task_fires_every_period(loop):
    fired = []
    PeriodicTask(loop, 2.0, lambda: fired.append(loop.clock.now()))
    loop.run_until(7.0)
    assert fired == [2.0, 4.0, 6.0]


def test_periodic_task_cancel(loop):
    fired = []
    task = PeriodicTask(loop, 1.0, lambda: fired.append(1))
    loop.run_until(2.5)
    task.cancel()
    loop.run_until(10.0)
    assert len(fired) == 2


def test_periodic_task_rejects_nonpositive_period(loop):
    with pytest.raises(SimulationError):
        PeriodicTask(loop, 0.0, lambda: None)
