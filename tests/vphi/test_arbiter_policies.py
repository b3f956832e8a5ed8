"""CardArbiter policy layer: rr/wfq/priority selection + credit accounting.

The unit half drives a bare arbiter on a fresh simulator — acquire() is
synchronous when slots are free and release() pumps the next grant, so
policy behaviour is fully observable without a machine.  The e2e half
pins the nastiest credit-accounting corners: abort_inflight restitution
and a fenced epoch (session recovery) while holding a credit must never
shrink the slot pool or invert priorities permanently.
"""

import numpy as np
import pytest

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.sim import SimError, Simulator
from repro.vphi import VPhiConfig
from repro.vphi.pool import CardArbiter

KB = 1 << 10
PORT = 9700


def make(slots=1, policy="rr"):
    return CardArbiter(Simulator(), slots=slots, policy=policy)


def drain(arb, vm, ev):
    """Consume a granted credit immediately (grant -> release)."""
    assert ev.triggered, f"{vm} expected a grant"
    arb.release(vm)


class TestRoundRobin:
    def test_contention_onset_does_not_double_grant(self):
        """Regression: the uncontended grant must advance the rotor, so
        the VM running when contention begins holds no hidden head
        start — the first freed slot goes to the *other* tenant."""
        arb = make(slots=1)
        first = arb.acquire("a")        # uncontended: granted immediately
        assert first.triggered
        again = arb.acquire("a")        # a queues more work
        other = arb.acquire("b")        # b arrives: contention begins
        arb.release("a")
        assert other.triggered, "b must win the first contended slot"
        assert not again.triggered
        arb.release("b")
        assert again.triggered
        arb.release("a")
        assert arb.free == arb.slots

    def test_rotation_is_fair_over_many_grants(self):
        arb = make(slots=1)
        vms = ["a", "b", "c"]
        pending = {v: [arb.acquire(v) for _ in range(10)] for v in vms}
        order = []
        for _ in range(30):
            granted = [(v, e) for v in vms for e in pending[v] if e.triggered]
            assert len(granted) == 1
            v, ev = granted[0]
            pending[v].remove(ev)
            order.append(v)
            arb.release(v)
        assert order[:6] == ["a", "b", "c", "a", "b", "c"]
        assert arb.grants_by_vm == {"a": 10, "b": 10, "c": 10}

    def test_idle_vm_keeps_its_rotation_slot_on_resume(self):
        """A tenant that goes idle is never dropped from the order; when
        it resumes it is served at its old position, not re-queued last."""
        arb = make(slots=1)
        drain(arb, "a", arb.acquire("a"))
        drain(arb, "b", arb.acquire("b"))
        drain(arb, "c", arb.acquire("c"))
        # a idles; b and c contend
        hold = arb.acquire("b")          # granted, rotor now past b
        assert hold.triggered
        q_c = arb.acquire("c")
        q_b2 = arb.acquire("b")
        arb.release("b")
        assert q_c.triggered, "c is next after b in the rotation"
        # a resumes mid-contention: its slot between c and b is intact,
        # so it is served before b comes around again
        q_a = arb.acquire("a")
        arb.release("c")
        assert q_a.triggered and not q_b2.triggered
        arb.release("a")
        assert q_b2.triggered
        arb.release("b")
        assert arb.free == arb.slots


class TestCreditAccounting:
    def test_double_release_raises(self):
        arb = make(slots=2)
        drain(arb, "a", arb.acquire("a"))
        with pytest.raises(SimError, match="double release"):
            arb.release("a")

    def test_cancel_ungranted_dequeues(self):
        arb = make(slots=1)
        drain_me = arb.acquire("a")
        queued = arb.acquire("b")
        arb.cancel("b", queued)
        assert arb.waiting == 0
        arb.release("a")
        assert not queued.triggered
        assert arb.free == arb.slots
        assert drain_me.triggered

    def test_cancel_granted_returns_the_credit(self):
        arb = make(slots=1)
        ev = arb.acquire("a")
        arb.cancel("a", ev)  # granted but the waiter was interrupted
        assert arb.free == arb.slots


class TestWfq:
    def test_grants_converge_to_weight_ratio(self):
        arb = make(slots=1, policy="wfq")
        arb.configure("heavy", weight=3.0)
        arb.configure("light", weight=1.0)
        pending = {v: [arb.acquire(v) for _ in range(40)]
                   for v in ("heavy", "light")}
        order = []
        for _ in range(40):
            granted = [(v, e) for v in pending for e in pending[v]
                       if e.triggered]
            assert len(granted) == 1
            v, ev = granted[0]
            pending[v].remove(ev)
            order.append(v)
            arb.release(v)
        # 3:1 over the contended window, up to tag-tie rounding at the
        # 1.0-multiple boundaries
        assert abs(order.count("heavy") - 30) <= 1
        assert abs(order.count("light") - 10) <= 1

    def test_zero_weight_served_only_when_no_weighted_waiter(self):
        arb = make(slots=1, policy="wfq")
        arb.configure("paying", weight=1.0)
        arb.configure("effort", weight=0.0)
        hold = arb.acquire("paying")
        q_effort = arb.acquire("effort")
        q_paying = arb.acquire("paying")
        arb.release("paying")
        assert q_paying.triggered, "weighted waiter outranks best-effort"
        assert not q_effort.triggered
        arb.release("paying")
        assert q_effort.triggered, "best-effort served once queue is clear"
        arb.release("effort")
        assert hold.triggered
        assert arb.free == arb.slots

    def test_weight_change_mid_flight_applies_to_next_grant(self):
        """configure() while waiters are queued re-ranks them from the
        next selection on — no grant is recalled, nothing is stranded."""
        arb = make(slots=1, policy="wfq")
        arb.configure("a", weight=1.0)
        arb.configure("b", weight=1.0)
        drain_me = arb.acquire("a")
        pending = {v: [arb.acquire(v) for _ in range(10)] for v in ("a", "b")}
        arb.configure("b", weight=4.0)   # promotion lands mid-flight
        arb.release("a")
        order = []
        while any(pending.values()):
            granted = [(v, e) for v in pending for e in pending[v]
                       if e.triggered]
            assert len(granted) == 1, "exactly one grant per free slot"
            v, ev = granted[0]
            pending[v].remove(ev)
            order.append(v)
            arb.release(v)
        # the promotion applies from the very next selection: while both
        # stay backlogged b takes ~4 of every 5 contended grants
        assert order[:5].count("b") >= 4
        assert order[:10].count("b") >= 8
        # and nothing is stranded: every queued acquire was granted
        assert sorted(arb.grants_by_vm.values()) == [10, 11]
        assert drain_me.triggered
        assert arb.free == arb.slots

    def test_invalid_weight_rejected(self):
        arb = make(policy="wfq")
        with pytest.raises(ValueError, match=">= 0"):
            arb.configure("a", weight=-1.0)


class TestPriority:
    def test_lower_class_always_wins(self):
        arb = make(slots=1, policy="priority")
        arb.configure("bg", priority=5)
        arb.configure("fg", priority=0)
        hold = arb.acquire("bg")
        q_bg = arb.acquire("bg")
        q_fg = arb.acquire("fg")
        arb.release("bg")
        assert q_fg.triggered and not q_bg.triggered
        arb.release("fg")
        assert q_bg.triggered
        arb.release("bg")
        assert hold.triggered
        assert arb.free == arb.slots

    def test_round_robin_within_a_class(self):
        arb = make(slots=1, policy="priority")
        for v in ("x", "y"):
            arb.configure(v, priority=1)
        pending = {v: [arb.acquire(v) for _ in range(6)] for v in ("x", "y")}
        order = []
        for _ in range(12):
            granted = [(v, e) for v in pending for e in pending[v]
                       if e.triggered]
            assert len(granted) == 1
            v, ev = granted[0]
            pending[v].remove(ev)
            order.append(v)
            arb.release(v)
        assert order == ["x", "y"] * 6

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown arbiter policy"):
            make(policy="edf")
        arb = make()
        with pytest.raises(ValueError, match="unknown arbiter policy"):
            arb.set_policy("fifo")


# ----------------------------------------------------------------------
# e2e: credit restitution across aborts and session recovery
# ----------------------------------------------------------------------
def window_server(machine, port, size=64 * KB, fill=0x5A):
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        while True:
            conn, _ = yield from slib.accept(ep)
            vma = sproc.address_space.mmap(size, populate=True)
            sproc.address_space.write(
                vma.start, np.full(size, fill, dtype=np.uint8))
            roff = yield from slib.register(conn, vma.start, size)
            if not ready.triggered:
                ready.succeed(roff)

    machine.sim.spawn(server())
    return ready


def reader(machine, vm, port, ready, rounds, size=64 * KB, swallow=()):
    gproc = vm.guest_process(f"reader-{port}")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), port))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        done = 0
        for _ in range(rounds):
            try:
                yield from glib.vreadfrom(ep, vma.start, size, roff)
            except swallow:
                continue
            done += 1
        return done

    return vm.spawn_guest(client())


class TestCreditRestitutionE2E:
    def test_abort_inflight_restores_credits(self):
        """A CARD_RESET aborts every in-flight pooled request; once the
        dust settles the arbiter must hold its full slot complement and
        both tenants' workers must be parked idle."""
        from repro.scif import ScifError

        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="vreadfrom", vm="vm0", at=(2,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        cfg = VPhiConfig(backend_workers=2, recovery_policy="queue")
        vm0 = m.create_vm("vm0", ram_bytes=2 << 30, vphi_config=cfg)
        vm1 = m.create_vm("vm1", ram_bytes=2 << 30, vphi_config=cfg)
        r0 = window_server(m, PORT)
        r1 = window_server(m, PORT + 1)
        c0 = reader(m, vm0, PORT, r0, rounds=6, swallow=(ScifError,))
        c1 = reader(m, vm1, PORT + 1, r1, rounds=6, swallow=(ScifError,))
        m.run()
        assert c0.triggered and c1.triggered
        arb = m.arbiter_for(0)
        assert arb.free == arb.slots, "abort path leaked dispatch credits"
        assert c1.value >= 1, "the clean VM must make progress post-reset"

    def test_fenced_epoch_while_holding_credit_no_priority_inversion(self):
        """Priority policy + a reset fencing the high-class VM mid-op
        (it holds a credit at the moment its epoch is invalidated): the
        credit must come back, and the low-class VM must still drain —
        a stranded high-class credit would be a permanent inversion."""
        from repro.scif import ScifError

        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="vreadfrom", vm="fg", at=(1,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        fg = m.create_vm("fg", ram_bytes=2 << 30, vphi_config=VPhiConfig(
            backend_workers=2, recovery_policy="queue", qos_priority=0))
        bg = m.create_vm("bg", ram_bytes=2 << 30, vphi_config=VPhiConfig(
            backend_workers=2, recovery_policy="queue", qos_priority=3))
        arb = m.arbiter_for(0)
        arb.set_policy("priority")
        assert arb.priority_of("fg") == 0
        assert arb.priority_of("bg") == 3
        r0 = window_server(m, PORT + 10)
        r1 = window_server(m, PORT + 11)
        c_fg = reader(m, fg, PORT + 10, r0, rounds=4, swallow=(ScifError,))
        c_bg = reader(m, bg, PORT + 11, r1, rounds=8, swallow=(ScifError,))
        m.run()
        assert c_fg.triggered and c_bg.triggered
        assert arb.free == arb.slots, "fenced epoch stranded a credit"
        assert c_bg.value >= 1, "background class starved permanently"
