"""AllOf/AnyOf combinators: failure propagation, mixed events."""

import pytest

from repro.sim import Simulator, run_with


def test_allof_fails_fast_on_child_failure():
    sim = Simulator()
    bad = sim.event("bad")
    slow = sim.timeout(100.0)

    def trigger():
        yield sim.timeout(1.0)
        bad.fail(RuntimeError("child broke"))

    def waiter():
        with pytest.raises(RuntimeError, match="child broke"):
            yield sim.all_of([slow, bad])
        return sim.now

    sim.spawn(trigger())
    p = sim.spawn(waiter())
    sim.run()
    # failed at t=1, long before the 100s timeout
    assert p.value == pytest.approx(1.0)


def test_anyof_failure_of_first_child_propagates():
    sim = Simulator()
    bad = sim.event("bad")

    def trigger():
        yield sim.timeout(0.5)
        bad.fail(ValueError("boom"))

    def waiter():
        with pytest.raises(ValueError):
            yield sim.any_of([bad, sim.timeout(10.0)])
        return True

    sim.spawn(trigger())
    p = sim.spawn(waiter())
    sim.run()
    assert p.value is True


def test_anyof_ignores_later_events_after_first():
    sim = Simulator()

    def waiter():
        first = sim.timeout(1.0, "fast")
        second = sim.timeout(2.0, "slow")
        idx, val = yield sim.any_of([second, first])
        # the slow loser is dropped without disturbing anyone
        yield sim.timeout(5.0)
        return idx, val

    assert run_with(sim, waiter()) == (1, "fast")


def test_anyof_drops_losing_timeouts():
    """A quick event raced against a long watchdog, many times over: each
    losing watchdog is tombstoned, so nothing is left queued after the
    races and run() ends at the last real event, not the last watchdog."""
    sim = Simulator()
    left = []

    def racer():
        for _ in range(1000):
            idx, _ = yield sim.any_of([sim.timeout(1e-6), sim.timeout(5.0)])
            assert idx == 0
        left.append(len(sim._queue))

    sim.spawn(racer())
    end = sim.run()
    assert left == [0]
    assert end == pytest.approx(1000 * 1e-6)


def test_anyof_loser_still_fires_for_its_other_waiter():
    sim = Simulator()
    shared = sim.timeout(5.0, "watchdog")

    def racer():
        idx, _ = yield sim.any_of([sim.timeout(1e-6), shared])
        return idx

    def sleeper():
        value = yield shared
        return value, sim.now

    r = sim.spawn(racer())
    s = sim.spawn(sleeper())
    sim.run()
    assert r.value == 0
    assert s.value == ("watchdog", pytest.approx(5.0))


def test_allof_mixed_processes_and_timeouts():
    sim = Simulator()

    def child(delay, value):
        yield sim.timeout(delay)
        return value

    def parent():
        vals = yield sim.all_of(
            [sim.spawn(child(2.0, "b")), sim.timeout(1.0, "t"),
             sim.spawn(child(0.5, "a"))]
        )
        return vals, sim.now

    vals, t = run_with(sim, parent())
    assert vals == ["b", "t", "a"]
    assert t == pytest.approx(2.0)


def test_anyof_requires_events():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.any_of([])


def test_nested_combinators():
    sim = Simulator()

    def proc():
        inner = sim.all_of([sim.timeout(1.0, 1), sim.timeout(2.0, 2)])
        idx, val = yield sim.any_of([inner, sim.timeout(10.0)])
        return idx, val, sim.now

    idx, val, t = run_with(sim, proc())
    assert idx == 0
    assert val == [1, 2]
    assert t == pytest.approx(2.0)
