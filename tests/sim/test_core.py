"""Unit tests for the DES kernel: events, processes, time, domains."""

import gc

import pytest

from repro.sim import (
    Interrupted,
    Killed,
    SimError,
    Simulator,
    ms,
    run_with,
    us,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.5)
        return sim.now

    assert run_with(sim, proc()) == pytest.approx(1.5)


def test_timeouts_fire_in_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.spawn(waiter(3.0, "c"))
    sim.spawn(waiter(1.0, "a"))
    sim.spawn(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_ties_broken_by_spawn_order():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.spawn(waiter(tag))
    sim.run()
    assert order == list("abcde")


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_negative_event_delay_rejected():
    """Regression: a negative delay used to be accepted and the event
    fired at ``now``; it is rejected, as a negative timeout is, and the
    event stays untriggered."""
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError, match="negative"):
        ev.succeed("v", delay=-0.5)
    with pytest.raises(ValueError, match="negative"):
        ev.fail(RuntimeError("boom"), delay=-0.5)
    assert not ev.triggered
    assert sim.peek() is None


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(0.1, value="payload")
        return got

    assert run_with(sim, proc()) == "payload"


def test_event_succeed_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event("e")

    def waiter():
        v = yield ev
        return v

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed(42)

    p = sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert p.value == 42
    assert sim.now == pytest.approx(1.0)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        with pytest.raises(RuntimeError, match="boom"):
            yield ev
        return "survived"

    def trigger():
        yield sim.timeout(0.5)
        ev.fail(RuntimeError("boom"))

    assert ev.triggered is False
    p = sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert p.value == "survived"


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)
    with pytest.raises(SimError):
        ev.fail(RuntimeError())


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimError):
        _ = ev.value


def test_late_waiter_on_fired_event_still_resumed():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late():
        yield sim.timeout(2.0)
        v = yield ev
        return v

    assert run_with(sim, late()) == "early"


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        v = yield sim.spawn(child())
        return v

    assert run_with(sim, parent()) == "done"


def test_process_join_propagates_exception():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        with pytest.raises(ValueError, match="child died"):
            yield sim.spawn(child())
        return "handled"

    assert run_with(sim, parent()) == "handled"


def test_unobserved_crash_surfaces_at_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.1)
        raise RuntimeError("silent failure")

    sim.spawn(bad())
    with pytest.raises(SimError, match="died"):
        sim.run()


def test_crash_at_a_reused_address_still_surfaces():
    """Whether a crash was observed is a property of the process, not of
    its address: a process that reuses the address of an earlier, joined
    and collected process still has its crash raised by run()."""
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)

    def joiner(proc):
        yield proc

    joined = sim.spawn(quick())
    sim.spawn(joiner(joined))
    sim.run()
    old_id = id(joined)
    del joined
    gc.collect()

    def body(armed):
        yield sim.timeout(0.1)
        if armed:
            raise RuntimeError("crash at a reused address")

    procs = []
    for _ in range(1000):
        armed = []
        procs.append(sim.spawn(body(armed)))
        if id(procs[-1]) == old_id:
            armed.append(True)
            break
    else:
        pytest.skip("the interpreter reused no address within 1000 processes")
    with pytest.raises(SimError, match="reused address"):
        sim.run()
    assert not procs[-1].ok
    assert sim._crashes == []  # raised once, then dropped


def test_observed_crash_is_not_kept():
    sim = Simulator()

    def child():
        yield sim.timeout(0.1)
        raise ValueError("joined")

    def parent():
        with pytest.raises(ValueError):
            yield sim.spawn(child())

    sim.spawn(parent())
    sim.run()
    assert sim._crashes == []


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    p = sim.spawn(bad())
    with pytest.raises(SimError):
        sim.run()
    assert p.triggered and not p.ok


def test_interrupt_raises_interrupted_with_cause():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupted as e:
            return ("interrupted", e.cause, sim.now)
        return "not reached"

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt("wakeup-call")

    p = sim.spawn(sleeper())
    sim.spawn(interrupter(p))
    sim.run()
    assert p.value == ("interrupted", "wakeup-call", pytest.approx(1.0))


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.1)
        return 1

    p = sim.spawn(quick())
    sim.run()
    p.interrupt("too late")
    sim.run()
    assert p.value == 1


def test_kill_terminates_process():
    sim = Simulator()

    def immortal():
        while True:
            yield sim.timeout(1.0)

    def killer(target):
        yield sim.timeout(2.5)
        target.kill()

    p = sim.spawn(immortal())

    def parent():
        with pytest.raises(Killed):
            yield p
        return "ok"

    par = sim.spawn(parent())
    sim.spawn(killer(p))
    sim.run()
    assert par.value == "ok"
    assert not p.alive


def test_run_until_stops_clock():
    sim = Simulator()

    def forever():
        while True:
            yield sim.timeout(10.0)

    def parent():
        child = sim.spawn(forever())
        yield sim.timeout(1.0)
        child.kill()
        with pytest.raises(Killed):
            yield child

    sim.spawn(parent())
    end = sim.run(until=25.0)
    assert end == pytest.approx(25.0)


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    hits = []

    def proc():
        yield sim.timeout(10.0)
        hits.append(sim.now)

    sim.spawn(proc())
    sim.run(until=5.0)
    assert hits == []
    sim.run()
    assert hits == [pytest.approx(10.0)]


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def proc():
        evs = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        vals = yield sim.all_of(evs)
        return vals

    assert run_with(sim, proc()) == ["c", "a", "b"]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def proc():
        vals = yield sim.all_of([])
        return (vals, sim.now)

    assert run_with(sim, proc()) == ([], 0.0)


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        idx, val = yield sim.any_of(
            [sim.timeout(3.0, "c"), sim.timeout(1.0, "a")]
        )
        return idx, val, sim.now

    assert run_with(sim, proc()) == (1, "a", pytest.approx(1.0))


def test_call_at_runs_callback():
    sim = Simulator()
    hits = []
    sim.call_at(5.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [pytest.approx(5.0)]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.spawn(proc())
    sim.run()
    with pytest.raises(SimError):
        sim.call_at(5.0, lambda: None)


def test_peek_and_step():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)

    sim.spawn(proc())
    assert sim.peek() == pytest.approx(0.0)  # process start thunk
    assert sim.step() is True
    assert sim.peek() == pytest.approx(2.0)
    while sim.step():
        pass
    assert sim.peek() is None


class TestDomain:
    def test_paused_domain_defers_resumption(self):
        sim = Simulator()
        dom = sim.domain("vm0")
        hits = []

        def guest():
            yield sim.timeout(1.0)
            hits.append(("guest", sim.now))

        def host():
            dom.pause()
            yield sim.timeout(5.0)
            dom.resume()
            hits.append(("host", sim.now))

        sim.spawn(guest(), domain=dom)
        sim.spawn(host())
        sim.run()
        # guest's 1.0s wakeup was deferred until the domain resumed at 5.0
        assert hits == [("host", 5.0), ("guest", 5.0)]

    def test_nested_pause_requires_matching_resumes(self):
        sim = Simulator()
        dom = sim.domain()
        hits = []

        def guest():
            yield sim.timeout(1.0)
            hits.append(sim.now)

        def host():
            dom.pause()
            dom.pause()
            yield sim.timeout(3.0)
            dom.resume()
            yield sim.timeout(3.0)
            dom.resume()

        sim.spawn(guest(), domain=dom)
        sim.spawn(host())
        sim.run()
        assert hits == [pytest.approx(6.0)]

    def test_resume_without_pause_raises(self):
        sim = Simulator()
        dom = sim.domain()
        with pytest.raises(SimError):
            dom.resume()

    def test_paused_time_accounting(self):
        sim = Simulator()
        dom = sim.domain()

        def host():
            dom.pause()
            yield sim.timeout(2.0)
            dom.resume()
            yield sim.timeout(1.0)
            dom.pause()
            yield sim.timeout(3.0)
            dom.resume()

        sim.spawn(host())
        sim.run()
        assert dom.paused_time == pytest.approx(5.0)

    def test_paused_seconds_counts_the_open_pause(self):
        """paused_time only settles at resume; paused_seconds includes
        the pause still open right now (windowed accounting needs it)."""
        sim = Simulator()
        dom = sim.domain()
        seen = {}

        def host():
            dom.pause()
            yield sim.timeout(2.0)
            seen["mid"] = (dom.paused_time, dom.paused_seconds)
            yield sim.timeout(1.0)
            dom.resume()
            seen["after"] = (dom.paused_time, dom.paused_seconds)

        sim.spawn(host())
        sim.run()
        assert seen["mid"] == (0.0, pytest.approx(2.0))
        assert seen["after"] == (pytest.approx(3.0), pytest.approx(3.0))

    def test_interrupt_deferred_while_paused(self):
        sim = Simulator()
        dom = sim.domain()
        hits = []

        def guest():
            try:
                yield sim.timeout(100.0)
            except Interrupted:
                hits.append(sim.now)

        def host(target):
            dom.pause()
            target.interrupt()
            yield sim.timeout(4.0)
            dom.resume()

        g = sim.spawn(guest(), domain=dom)
        sim.spawn(host(g))
        sim.run()
        assert hits == [pytest.approx(4.0)]

    def test_fifo_replay_order_on_resume(self):
        sim = Simulator()
        dom = sim.domain()
        order = []

        def guest(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        def host():
            dom.pause()
            yield sim.timeout(10.0)
            dom.resume()

        sim.spawn(guest("first", 1.0), domain=dom)
        sim.spawn(guest("second", 2.0), domain=dom)
        sim.spawn(guest("third", 3.0), domain=dom)
        sim.spawn(host())
        sim.run()
        assert order == ["first", "second", "third"]


def test_us_ms_helpers():
    assert us(7) == pytest.approx(7e-6)
    assert ms(2) == pytest.approx(2e-3)
