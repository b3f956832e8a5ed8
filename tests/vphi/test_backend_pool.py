"""Worker-pool dispatch: unit and integration behaviour.

Covers the pool's dispatch invariants (classification, the in-flight
window, no whole-VM pauses, out-of-order completion by tag), the
machine-wide card arbiter's round-robin credits, pool-member death and
respawn, and the regression fixed alongside the pool: an ENODEV re-open
must produce a *fresh* backend endpoint instead of aliasing the dead
descriptor (with concurrent re-opens collapsed through the per-handle
gate).
"""

import numpy as np
import pytest

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.faults import ENODEV
from repro.scif.endpoint import EpState
from repro.scif.errors import EBADF
from repro.sim import SimError, Simulator
from repro.vphi import (
    CardArbiter, VPhiConfig, VPhiOp, registered_ops, spec_for, temporary_op,
)
from repro.vphi.ops import NONBLOCKING

PORT = 8800
KB = 1 << 10
MB = 1 << 20


def pooled_vm(machine, name="vm0", workers=4, **kw):
    return machine.create_vm(
        name, ram_bytes=2 << 30,
        vphi_config=VPhiConfig(backend_workers=workers, **kw),
    )


def window_server(machine, port, size, fill=0x5A):
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)

    machine.sim.spawn(server())
    return ready


# ----------------------------------------------------------------------
# registry: pool eligibility
# ----------------------------------------------------------------------
class TestPoolEligibility:
    def test_rides_pool_derives_from_blocking_class(self):
        for spec in registered_ops():
            assert spec.rides_pool == spec.blocking

    def test_unbounded_ops_never_ride_by_default(self):
        parked = {s.op_name for s in registered_ops() if not s.rides_pool}
        assert parked == {"accept", "poll", "fence_wait", "fence_signal"}

    def test_explicit_flag_overrides_derivation(self):
        class _Op:
            value = "fake_parked"

        def handler(backend, req, elem, a):
            yield backend.sim.timeout(0)
            return 0, 0

        with temporary_op(_Op(), handler, blocking_class=NONBLOCKING,
                          pool_eligible=True) as spec:
            assert not spec.blocking
            assert spec.rides_pool
            assert spec.pooled_key == "vphi.op.fake_parked.pooled"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VPhiConfig(backend_workers=-1)
        with pytest.raises(ValueError):
            VPhiConfig(max_inflight=0)
        assert not VPhiConfig().pooled
        assert VPhiConfig(backend_workers=2).pooled


# ----------------------------------------------------------------------
# the card arbiter
# ----------------------------------------------------------------------
class TestCardArbiter:
    def test_fast_path_grants_immediately(self):
        sim = Simulator()
        arb = CardArbiter(sim, slots=2)
        ev = arb.acquire("vm0")
        assert ev.triggered and arb.free == 1
        arb.release("vm0")
        assert arb.free == 2

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            CardArbiter(Simulator(), slots=0)

    def test_round_robin_over_waiting_vms(self):
        """With one slot and a deep vm0 queue, vm1's single waiter gets
        the next credit — the deep queue cannot starve its neighbour."""
        sim = Simulator()
        arb = CardArbiter(sim, slots=1)
        held = arb.acquire("vm0")
        assert held.triggered
        w0a = arb.acquire("vm0")
        w0b = arb.acquire("vm0")
        w1 = arb.acquire("vm1")
        assert not (w0a.triggered or w0b.triggered or w1.triggered)
        arb.release("vm0")       # vm0 just held the slot: vm1's turn
        assert w1.triggered and not w0a.triggered
        arb.release("vm1")       # rotation comes back to vm0
        assert w0a.triggered and not w0b.triggered
        arb.release("vm0")
        assert w0b.triggered
        arb.release("vm0")
        assert arb.free == arb.slots
        assert arb.grants_by_vm == {"vm0": 3, "vm1": 1}


# ----------------------------------------------------------------------
# pooled dispatch end-to-end
# ----------------------------------------------------------------------
class TestPooledDispatch:
    def test_vm_never_pauses_under_pooled_dispatch(self):
        """The tentpole's headline: the whole-VM pause is gone, so a
        concurrent guest timer is not stretched by a blocking SEND."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        ready = window_server(m, PORT, 4 * KB)
        glib = vm.vphi.libscif(vm.guest_process("app"))
        ticks = []

        def timer():
            t0 = m.sim.now
            yield m.sim.timeout(20e-6)
            ticks.append(m.sim.now - t0)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            yield ready
            vm.spawn_guest(timer())
            yield from glib.send(ep, b"x" * 64)

        vm.spawn_guest(client())
        m.run()
        assert vm.domain.paused_time == 0.0
        assert ticks == [pytest.approx(20e-6)]
        assert vm.vphi.backend.pool.completed >= 3
        assert vm.tracer.counters[spec_for(VPhiOp.SEND).pooled_key] == 1

    def test_pooled_counters_sum_to_submissions(self):
        """Every pool submission is counted under its op's pooled key,
        including an op registered after the backend was built."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        ready = window_server(m, PORT, 4 * KB)
        glib = vm.vphi.libscif(vm.guest_process("app"))

        class _Op:
            value = "late_pooled"

        def handler(backend, req, elem, a):
            yield backend.sim.timeout(0)
            return 0, 0

        with temporary_op(_Op(), handler, wants_endpoint=False) as late:
            assert late.rides_pool

            def client():
                ep = yield from glib.open()
                yield from glib.connect(ep, (card, PORT))
                yield ready
                yield from glib.send(ep, b"x" * 64)
                for _ in range(3):
                    yield from vm.vphi.frontend.submit(late.op, args={})

            vm.spawn_guest(client())
            m.run()
            counters = vm.tracer.counters
            pooled = {s.op_name: counters[s.pooled_key]
                      for s in registered_ops() if counters[s.pooled_key]}
        assert pooled["late_pooled"] == 3
        assert pooled["send"] == 1
        assert sum(pooled.values()) == vm.vphi.backend.pool.submitted

    def test_max_inflight_window_is_honoured(self):
        """A burst far wider than the window never exceeds it, and the
        parked chains all drain once completions retire."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m, workers=2, max_inflight=2)
        glib = vm.vphi.libscif(vm.guest_process("app"))

        def burst():
            for _ in range(3):
                yield from glib.get_node_ids()

        clients = [vm.spawn_guest(burst()) for _ in range(6)]
        m.run()
        assert all(c.triggered for c in clients)
        pool = vm.vphi.backend.pool
        assert pool.completed == 18
        assert 1 <= pool.peak_inflight <= 2
        assert pool.inflight == 0
        assert vm.vphi.backend.in_flight == 0
        ring = vm.vphi.virtio.ring
        assert ring.num_free == ring.size

    def test_parked_accept_does_not_stall_the_pool(self):
        """Unbounded ops keep their ad-hoc worker: a forever-parked guest
        accept must not occupy a pool shard and starve pooled traffic."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m, workers=2)
        glib = vm.vphi.libscif(vm.guest_process("app"))

        def listener():
            ep = yield from glib.open()
            yield from glib.bind(ep, PORT + 1)
            yield from glib.listen(ep)
            # nobody ever connects: this accept never completes
            yield from glib.accept(ep)

        def worker():
            out = []
            for _ in range(4):
                ids = yield from glib.get_node_ids()
                out.append(ids)
            return out

        vm.spawn_guest(listener())
        w = vm.spawn_guest(worker())
        m.run(until=m.sim.now + 0.01)
        assert w.triggered, "pooled traffic starved behind a parked accept"
        assert vm.qemu.worker_events >= 1   # the accept's ad-hoc worker
        assert vm.vphi.backend.pool.inflight == 0

    def test_out_of_order_completion_by_tag(self):
        """A fast op submitted after a slow one completes first; the
        frontend counts the reorder and still matches strictly by tag."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        size = 16 * MB   # ~2.6ms of DMA: dwarfs the fast op's overhead
        ready = window_server(m, PORT, size, fill=0x77)
        gproc = vm.guest_process("slow")
        glib = vm.vphi.libscif(gproc)
        glib2 = vm.vphi.libscif(vm.guest_process("fast"))

        rma_started = m.sim.event()

        def slow():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            vma = gproc.address_space.mmap(size, populate=True)
            rma_started.succeed()
            n = yield from glib.vreadfrom(ep, vma.start, size, roff)
            return n, int(gproc.address_space.read(vma.start, size).sum()), m.sim.now

        def fast():
            # warm-up call advances the endpoint-less round-robin so the
            # measured op lands on a member not sharded to the RMA handle
            yield from glib2.get_node_ids()
            # start once the slow RMA's tag is already on the wire
            yield rma_started
            yield m.sim.timeout(50e-6)
            yield from glib2.get_node_ids()
            return m.sim.now

        s = vm.spawn_guest(slow())
        f = vm.spawn_guest(fast())
        m.run()
        n, csum, slow_done = s.value
        assert n == size and csum == 0x77 * size
        # the later-submitted fast op completed while the RMA was in
        # flight — its newer tag retired first, and the frontend noticed
        assert f.value < slow_done
        assert vm.vphi.frontend.out_of_order >= 1

    def test_claiming_an_unparked_tag_is_a_driver_bug(self):
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)
        with pytest.raises(SimError):
            vm.vphi.frontend.claim_response(9999)

    def test_pool_member_death_respawns_in_place(self):
        """WORKER_DEATH under pooled dispatch kills the servicing member;
        it respawns on the same shard and the idempotent op recovers."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.WORKER_DEATH, op="vreadfrom", max_fires=1,
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        size = 64 * KB
        ready = window_server(m, PORT, size, fill=0x42)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            vma = gproc.address_space.mmap(size, populate=True)
            yield from glib.vreadfrom(ep, vma.start, size, roff)
            return int(gproc.address_space.read(vma.start, size).sum())

        c = vm.spawn_guest(client())
        m.run()
        assert c.value == 0x42 * size
        pool = vm.vphi.backend.pool
        assert pool.deaths == 1
        assert sum(vm.tracer.counters[s.recovered_key] for s in registered_ops()) == 1
        assert pool.inflight == 0


# ----------------------------------------------------------------------
# the re-open regression: fresh endpoint, no aliasing, one gate
# ----------------------------------------------------------------------
class TestEndpointReopen:
    def test_reopen_swaps_in_a_fresh_endpoint(self):
        """An injected ENODEV re-opens the backend descriptor as a *new*
        Endpoint: the dead object is detached (no peer alias), the peer
        is re-wired to the survivor, and the retried RMA still lands."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.SCIF_ERROR, errno=ENODEV, op="vreadfrom",
            max_fires=1,
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        size = 64 * KB
        ready = window_server(m, PORT, size, fill=0x66)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            vma = gproc.address_space.mmap(size, populate=True)
            yield from glib.vreadfrom(ep, vma.start, size, roff)
            return ep.handle, int(gproc.address_space.read(vma.start, size).sum())

        c = vm.spawn_guest(client())
        m.run()
        handle, csum = c.value
        assert csum == 0x66 * size  # the retry succeeded post-re-open
        backend = vm.vphi.backend
        assert backend.endpoint_reopens == 1
        live = backend.endpoints[handle]
        # the survivor is connected and mutually linked with its peer —
        # no third object aliases the pair
        assert live.state is EpState.CONNECTED
        assert live.peer is not None and live.peer.peer is live
        # the dead descriptor was detached, not left aliasing the peer
        dead = [e for e in m.kernel.scif_node.endpoints
                if e.owner == f"qemu-{vm.name}" and e is not live
                and e.peer_addr == live.peer_addr]
        assert dead, "the revoked descriptor object should still exist"
        for e in dead:
            assert e.peer is None
            assert e.state is EpState.CLOSED

    def test_concurrent_reopens_collapse_through_the_gate(self):
        """Two workers hitting ENODEV from one outage trigger exactly one
        re-open; the second caller waits for the first's descriptor."""
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)
        card = m.card_node_id(0)
        ready = window_server(m, PORT, 4 * KB)
        glib = vm.vphi.libscif(vm.guest_process("app"))
        backend = vm.vphi.backend

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            yield ready
            before = backend.endpoints[ep.handle]
            a = m.sim.spawn(backend.reopen_endpoint(ep.handle))
            b = m.sim.spawn(backend.reopen_endpoint(ep.handle))
            while not (a.triggered and b.triggered):
                yield m.sim.timeout(10e-6)
            return before, ep.handle

        c = vm.spawn_guest(client())
        m.run()
        before, handle = c.value
        assert backend.endpoint_reopens == 1
        assert backend.endpoints[handle] is not before
        assert not backend._reopening  # the gate was torn down

    def test_reopen_of_unknown_handle_raises_typed_error(self):
        # a silent no-op here let a corrupted handle table go unnoticed;
        # the backend now rejects the re-open loudly with a typed error.
        m = Machine(cards=1).boot()
        vm = pooled_vm(m)

        def driver():
            with pytest.raises(EBADF):
                yield from vm.vphi.backend.reopen_endpoint(12345)

        m.sim.spawn(driver())
        m.run()
        assert vm.vphi.backend.endpoint_reopens == 0
        assert vm.vphi.backend.bogus_reopens == 1
