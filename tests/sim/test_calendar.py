"""The kernel's queue must be observationally identical to a plain heap.

``CalendarQueue`` (a heap plus a same-tick FIFO lane) must fire in
*exactly* the single heap's ``(time, seq)`` order — every golden digest
depends on it.  These tests drive the queue directly with adversarial
schedules (Hypothesis) and through the Simulator, and pin the
tombstone/compaction behavior that keeps abandoned timeouts from growing
the queue without bound.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CalendarQueue, Interrupted, Simulator


# ----------------------------------------------------------------------
# reference model: the original single-heap scheduler
# ----------------------------------------------------------------------
class HeapModel:
    def __init__(self):
        self._q = []
        self._seq = 0
        self.now = 0.0

    def push(self, when, label):
        heapq.heappush(self._q, (when, self._seq, label))
        self._seq += 1

    def drain(self):
        order = []
        while self._q:
            when, _, label = heapq.heappop(self._q)
            self.now = max(self.now, when)
            order.append((when, label))
        return order


#: delays spanning the simulator's regimes: zero-delay (the same-tick
#: lane), microsecond device costs, and far-future sleeps — plus exact
#: duplicates to exercise FIFO tie-breaks.
_delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=20e-6),
    st.sampled_from([1e-6, 5e-6, 375e-6, 1e-3, 0.5, 2.0]),
    st.floats(min_value=0.0, max_value=3.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_delays, min_size=0, max_size=120), st.randoms())
def test_firing_order_indistinguishable_from_heap(delays, rng):
    """Random schedules, including pushes interleaved with pops, fire in
    identical order on the queue and the reference heap."""
    cq = CalendarQueue()
    ref = HeapModel()
    pending = list(enumerate(delays))
    got, want = [], []
    now = 0.0
    # interleave: push a random prefix, pop a few, repeat — mid-drain
    # insertion is where lane/heap ordering bugs hide
    while pending or len(cq):
        take = rng.randint(0, len(pending)) if pending else 0
        for label, delay in pending[:take]:
            cq.push(now + delay, ("t", label), now)
            ref.push(now + delay, ("t", label))
        del pending[:take]
        pops = rng.randint(1, 5)
        for _ in range(pops):
            entry = cq.pop()
            if entry is None:
                break
            now = max(now, entry[0])
            got.append((entry[0], entry[2]))
    want = ref.drain()
    assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(_delays, min_size=1, max_size=80))
def test_simulator_timeout_order_matches_heap_order(delays):
    """End-to-end through the Simulator: processes sleeping random delays
    complete in (time, spawn-order) order, same-timestamp ties FIFO."""
    sim = Simulator()
    fired = []

    def sleeper(i, d):
        yield sim.timeout(d)
        fired.append((sim.now, i))

    for i, d in enumerate(delays):
        sim.spawn(sleeper(i, d))
    sim.run()
    assert fired == sorted(fired, key=lambda p: (p[0], p[1]))
    # same-delay spawns must complete in spawn order (FIFO tie-break)
    by_time = {}
    for t, i in fired:
        by_time.setdefault(t, []).append(i)
    for ids in by_time.values():
        assert ids == sorted(ids)


def test_zero_delay_fast_lane_respects_earlier_heap_entries():
    """A heap entry at time T with a smaller seq must fire before a
    zero-delay entry created later at the same instant."""
    cq = CalendarQueue()
    cq.push(1e-6, "scheduled-first", 0.0)   # lands in the heap
    entry = cq.pop()
    assert entry[2] == "scheduled-first"
    now = entry[0]
    cq.push(now, "lane-a", now)
    cq.push(now + 1e-6, "wheel-later", now)
    cq.push(now, "lane-b", now)
    assert [cq.pop()[2] for _ in range(3)] == ["lane-a", "lane-b", "wheel-later"]


def test_pop_limit_stops_at_horizon():
    cq = CalendarQueue()
    cq.push(1.0, "a", 0.0)
    cq.push(2.0, "b", 0.0)
    assert cq.pop(limit=1.5)[2] == "a"
    assert cq.pop(limit=1.5) is None
    assert cq.peek() == 2.0
    assert cq.pop(limit=None)[2] == "b"


# ----------------------------------------------------------------------
# a far-future head, then earlier work (the run(until=...) reordering bug
# of the earlier three-tier calendar queue)
# ----------------------------------------------------------------------
def test_pop_limit_rebase_then_earlier_push_keeps_order():
    """The regression: pop(limit) stops short of a far-future head; a
    later push *between* now and that head must still fire first, not
    after it."""
    cq = CalendarQueue()
    cq.push(100.0, "late", 0.0)
    assert cq.pop(limit=5.0) is None     # parks short of t=100
    cq.push(50.0, "early", 5.0)          # now < when < parked head
    a = cq.pop()
    b = cq.pop()
    assert (a[0], a[2]) == (50.0, "early")
    assert (b[0], b[2]) == (100.0, "late")
    assert cq.pop() is None


def test_peek_rebase_then_earlier_push_keeps_order():
    """peek() at a far-future head; a later, earlier push must win."""
    cq = CalendarQueue()
    cq.push(100.0, "late", 0.0)
    assert cq.peek() == 100.0
    cq.push(50.0, "early", 0.0)
    assert cq.peek() == 50.0
    assert [cq.pop()[2] for _ in range(2)] == ["early", "late"]


def test_run_until_then_earlier_schedule_fires_in_order():
    """End-to-end repro from the review: run(until=) short of a distant
    callback, then schedule an earlier one — it must run first, at its
    own time, and the distant one at its own time."""
    sim = Simulator()
    fired = []
    sim.call_at(100.0, lambda: fired.append(("late", sim.now)))
    sim.run(until=5.0)
    assert sim.now == 5.0 and fired == []
    sim.call_at(50.0, lambda: fired.append(("early", sim.now)))
    sim.run()
    assert fired == [("early", 50.0), ("late", 100.0)]


def test_rewind_rebase_with_far_entries_below_start():
    """Compaction after a parked pop(limit), then a push between the
    survivors: order holds across the compacted heap (the rewind-rebase
    case of the earlier three-tier calendar queue)."""
    cq = CalendarQueue(compact_threshold=0)
    a = cq.push(100.0, "a", 0.0)
    assert cq.pop(limit=1.0) is None     # parks short of t=100
    cq.push(3.0, "b", 1.0)               # earlier than the parked head
    c = cq.push(100.2, "c", 1.0)         # later than it
    cq.cancel(a)
    cq.cancel(c)                         # tombstones > live: compaction
    assert cq.compactions >= 1
    cq.push(5.0, "d", 1.0)               # lands after the survivor
    assert [(e[0], e[2]) for e in (cq.pop(), cq.pop())] == [
        (3.0, "b"), (5.0, "d")]
    assert cq.pop() is None
    assert len(cq) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(_delays, min_size=0, max_size=100), st.randoms())
def test_limited_pops_and_peeks_never_reorder(delays, rng):
    """Random schedules interleaved with peek(), pop(limit) and cancel()
    of a random live entry still fire in exact reference heap order,
    including pushes landing below a head a limited pop stopped short
    of; the reference heap skips cancelled labels."""
    cq = CalendarQueue(compact_threshold=2)
    ref = []
    seq = 0
    live, cancelled = {}, set()
    pending = list(enumerate(delays))
    now = 0.0

    def skip_cancelled():
        while ref and ref[0][2] in cancelled:
            heapq.heappop(ref)

    while pending or len(cq):
        take = rng.randint(0, len(pending)) if pending else 0
        for label, delay in pending[:take]:
            live[label] = cq.push(now + delay, ("t", label), now)
            heapq.heappush(ref, (now + delay, seq, ("t", label)))
            seq += 1
        del pending[:take]
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.15 and live:
                label = rng.choice(list(live))
                cq.cancel(live.pop(label))  # may compact
                cancelled.add(("t", label))
                continue
            if roll < 0.3:
                cq.peek()  # reaps dead heads; must never reorder
                continue
            limit = None
            if roll < 0.7:
                head = cq.peek()
                limit = (head if head is not None else now) * rng.uniform(0.0, 1.5)
            entry = cq.pop(limit)
            skip_cancelled()
            if entry is None:
                assert not ref or (limit is not None and ref[0][0] > limit)
                break
            when, _, label = heapq.heappop(ref)
            assert (entry[0], entry[2]) == (when, label)
            del live[label[1]]
            now = max(now, entry[0])
    skip_cancelled()
    assert not ref


# ----------------------------------------------------------------------
# tombstones and compaction (the run(until=...) leak)
# ----------------------------------------------------------------------
def test_cancelled_entries_compact_instead_of_accumulating():
    cq = CalendarQueue(compact_threshold=64)
    entries = [cq.push(10.0 + i, i, 0.0) for i in range(500)]
    for e in entries[:400]:
        cq.cancel(e)
    # lazy delete reaped in bulk: far more than threshold cancelled, so
    # at least one compaction ran and the backlog stayed bounded
    assert cq.compactions >= 1
    assert cq.tombstones <= len(cq)
    assert len(cq) == 100
    got = [cq.pop()[2] for _ in range(100)]
    assert got == list(range(400, 500))
    assert cq.pop() is None


def test_interrupted_sleepers_do_not_grow_the_queue():
    """The regression: interrupting processes parked on far-future
    timeouts used to leave dead entries queued until their expiry."""
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(3600.0)
        except Interrupted:
            pass

    procs = [sim.spawn(sleeper()) for _ in range(300)]
    sim.run(until=1e-3)  # everyone is now parked on its hour-long timeout
    backlog = len(sim._queue)
    for p in procs:
        p.interrupt("teardown")
    sim.run(until=2e-3)
    # the interrupt deliveries ran and the abandoned timeout entries were
    # tombstoned + compacted away instead of lingering for the hour
    assert len(sim._queue) < backlog - 250
    assert sim._queue.compactions >= 1
    assert sim.now < 1.0  # nothing waited for the hour to elapse


def test_revived_timeout_still_fires():
    """Cancel-then-rewait: if a new waiter subscribes to a timeout whose
    entry was tombstoned, the firing must come back."""
    sim = Simulator()
    t = sim.timeout(5e-3, value="late")
    got = []

    def first():
        try:
            yield t
        except Interrupted:
            got.append("interrupted")

    def second():
        yield sim.timeout(1e-3)
        got.append((yield t))

    p1 = sim.spawn(first())
    sim.spawn(second())
    sim.run(until=5e-4)
    p1.interrupt("bail")  # tombstones the shared timeout's entry
    sim.run()
    assert got == ["interrupted", "late"]
    assert sim.now >= 5e-3


def test_run_until_and_peek_semantics_unchanged():
    sim = Simulator()
    seen = []

    def ticker():
        for _ in range(5):
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.spawn(ticker())
    sim.run(until=2.5)
    assert sim.now == 2.5
    assert seen == [1.0, 2.0]
    assert sim.peek() == 3.0
    sim.run()
    assert seen == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_queue_survives_randomized_cancel_storms():
    rng = random.Random(7)
    cq = CalendarQueue(compact_threshold=16)
    live = {}
    fired = []
    now = 0.0
    next_label = 0
    for _ in range(3000):
        op = rng.random()
        if op < 0.55 or not live:
            when = now + rng.choice([0.0, 1e-6, 4e-6, 1e-3, 1.0])
            live[next_label] = cq.push(when, next_label, now)
            next_label += 1
        elif op < 0.75:
            label = rng.choice(list(live))
            cq.cancel(live.pop(label))
        else:
            entry = cq.pop()
            if entry is not None:
                now = max(now, entry[0])
                live.pop(entry[2], None)
                fired.append((entry[0], entry[1]))
    while True:
        entry = cq.pop()
        if entry is None:
            break
        now = max(now, entry[0])
        fired.append((entry[0], entry[1]))
    assert fired == sorted(fired)      # global (when, seq) order held
    assert len(cq) == 0
    assert cq.tombstones == 0
