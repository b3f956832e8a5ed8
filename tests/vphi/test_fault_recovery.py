"""Fault injection + recovery through the full vPHI datapath.

Idempotent ops (the registry declares which) must ride out transient
faults — injected ECONNRESET/ENODEV, worker death, ring corruption, link
flaps — via the frontend's bounded-backoff retry; non-idempotent ops must
fail fast with the typed ScifError; and one VM's faults must not corrupt
another VM's results.
"""

import numpy as np
import pytest

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.analysis import per_op_stats
from repro.faults import ENODEV
from repro.scif.errors import ECONNRESET, ETIMEDOUT
from repro.vphi import VPhiConfig, VPhiOp, registered_ops, spec_for

PORT = 4400
MB = 1 << 20
SIZE = 1 * MB


def faulty_machine(*specs, **machine_kw):
    return Machine(
        cards=1, fault_plan=FaultPlan.of(*specs), **machine_kw
    ).boot()


def window_server(machine, port=PORT, size=SIZE, fill=0x5A):
    """Card-side server exposing a registered window; returns the
    ready-event that fires with the window's registered offset."""
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
        yield from slib.recv(conn, 1)

    machine.sim.spawn(server())
    return ready


def guest_rma_read(machine, vm, ready, port=PORT, size=SIZE, reads=1):
    """Guest client: connect, vreadfrom `reads` times, return checksums."""
    gproc = vm.guest_process("reader")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), port))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        sums = []
        for _ in range(reads):
            yield from glib.vreadfrom(ep, vma.start, size, roff)
            sums.append(int(gproc.address_space.read(vma.start, 4096).sum()))
        yield from glib.send(ep, b"x")
        return sums

    return vm.spawn_guest(client())


def op_stats(vm, name):
    return next(s for s in per_op_stats(vm.vphi.frontend) if s.op == name)


def test_idempotent_op_retries_injected_econnreset():
    """An injected host ECONNRESET on an RMA read is retried and the
    payload still arrives intact — the caller never sees the fault."""
    m = faulty_machine(
        FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET,
                  op="vreadfrom", at=(0,)),
    )
    vm = m.create_vm("vm0")
    ready = window_server(m)
    client = guest_rma_read(m, vm, ready)
    m.run()
    assert client.value == [0x5A * 4096]
    fe = vm.vphi.frontend
    assert fe.retries == 1
    s = op_stats(vm, "vreadfrom")
    assert (s.injected, s.retried, s.recovered, s.failed) == (1, 1, 1, 0)
    assert sum(vm.tracer.counters[s.recovered_key] for s in registered_ops()) == 1


def test_non_idempotent_op_fails_fast_with_typed_error():
    """send mutates peer state, so an injected fault must surface as the
    typed ScifError immediately — no retry."""
    m = faulty_machine(
        FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET,
                  op="send", at=(0,)),
    )
    vm = m.create_vm("vm0")
    ready = window_server(m)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        yield ready
        try:
            yield from glib.send(ep, b"boom")
        except ECONNRESET as err:
            return err
        return None

    c = vm.spawn_guest(client())
    m.run()
    assert isinstance(c.value, ECONNRESET)
    assert vm.vphi.frontend.retries == 0
    s = op_stats(vm, "send")
    assert (s.injected, s.retried, s.failed) == (1, 0, 1)


def test_worker_death_recovers_and_frees_descriptors():
    """A worker dying mid-request completes the orphan with ECONNRESET
    after the respawn delay; the retry succeeds and no ring descriptor
    leaks."""
    m = faulty_machine(
        FaultSpec(kind=FaultKind.WORKER_DEATH, op="vreadfrom", at=(0,)),
    )
    vm = m.create_vm("vm0")
    ready = window_server(m)
    client = guest_rma_read(m, vm, ready)
    m.run()
    assert client.value == [0x5A * 4096]
    assert vm.vphi.frontend.retries == 1
    ring = vm.vphi.virtio.ring
    assert ring.num_free == ring.size
    assert m.faults.fires_of(FaultKind.WORKER_DEATH) == 1


def test_enodev_reopens_backend_endpoint():
    """Driver death (ENODEV) makes the backend re-open its host endpoint;
    the retried idempotent op then succeeds on the same guest handle."""
    m = faulty_machine(
        FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ENODEV,
                  op="vreadfrom", at=(0,)),
    )
    vm = m.create_vm("vm0")
    ready = window_server(m)
    client = guest_rma_read(m, vm, ready)
    m.run()
    assert client.value == [0x5A * 4096]
    be = vm.vphi.backend
    assert be.endpoint_reopens == 1


def test_ring_corruption_detected_and_retried():
    """A corrupted descriptor chain is detected at pop time, completed
    with ECONNRESET, and the idempotent request retried."""
    m = faulty_machine(
        FaultSpec(kind=FaultKind.RING_CORRUPT, op="vreadfrom", at=(0,)),
    )
    vm = m.create_vm("vm0")
    ready = window_server(m)
    client = guest_rma_read(m, vm, ready)
    m.run()
    assert client.value == [0x5A * 4096]
    assert vm.vphi.frontend.retries == 1
    ring = vm.vphi.virtio.ring
    assert ring.num_free == ring.size


def test_link_flap_stalls_but_never_fails():
    """A flap takes the PCIe link down mid-workload: the RMA rides out
    the retraining as pure added latency (PCIe replays, nothing is
    lost) and the payload arrives intact."""
    flap = 10e-3

    def run_once(plan_specs):
        m = (Machine(cards=1, fault_plan=FaultPlan.of(*plan_specs)).boot()
             if plan_specs else Machine(cards=1).boot())
        vm = m.create_vm("vm0")
        ready = window_server(m)
        client = guest_rma_read(m, vm, ready)
        t0 = m.sim.now
        m.run()
        return m, client.value, m.sim.now - t0

    _, clean_sums, clean_t = run_once([])
    m, flap_sums, flap_t = run_once([
        FaultSpec(kind=FaultKind.LINK_FLAP, op="vreadfrom", at=(0,),
                  duration=flap),
    ])
    assert flap_sums == clean_sums == [0x5A * 4096]
    assert m.devices[0].link.flaps == 1
    assert m.devices[0].link.stall_time > 0
    # the whole outage shows up as latency, never as a failure
    assert flap_t >= clean_t + flap * 0.5
    assert m.faults.fires_of(FaultKind.LINK_FLAP) == 1


def test_watchdog_times_out_hung_backend():
    """When the backend truly hangs, the per-op watchdog bounds the wait:
    idempotent ops retry then surface ETIMEDOUT; the abandoned tags are
    recorded."""
    cfg = VPhiConfig(op_timeout=1e-3, max_retries=2)
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0", vphi_config=cfg)

    # hang the device: kicks are swallowed, nothing ever completes
    def swallow():
        yield m.sim.timeout(0)

    vm.vphi.virtio.bind_backend(swallow)
    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        try:
            yield from glib.open()  # idempotent: retried, then times out
        except ETIMEDOUT as err:
            return err
        return None

    c = vm.spawn_guest(client())
    m.run()
    assert isinstance(c.value, ETIMEDOUT)
    fe = vm.vphi.frontend
    assert fe.timeouts == 3  # initial attempt + 2 retries
    assert fe.retries == 2
    assert len(fe._abandoned) == 3


def test_one_vms_faults_do_not_corrupt_the_other_vm():
    """Faults pinned to vm1 leave vm2's results intact and its op
    latencies within 5% of a fault-free run (graceful degradation)."""

    def run(specs):
        m = (Machine(cards=1, fault_plan=FaultPlan.of(*specs)).boot()
             if specs else Machine(cards=1).boot())
        vm1 = m.create_vm("vm1")
        vm2 = m.create_vm("vm2")
        r1 = window_server(m, port=PORT)
        r2 = window_server(m, port=PORT + 1, fill=0x33)
        c1 = guest_rma_read(m, vm1, r1, port=PORT, reads=6)
        c2 = guest_rma_read(m, vm2, r2, port=PORT + 1, reads=6)
        m.run()
        lat2 = vm2.tracer.stats[spec_for(VPhiOp.VREADFROM).latency_key].mean
        return m, vm1, vm2, c1.value, c2.value, lat2

    _, _, _, _, base_c2, base_lat2 = run([])
    m, vm1, vm2, got_c1, got_c2, lat2 = run([
        FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET,
                  op="vreadfrom", vm="vm1", every=3),
    ])
    # vm1 recovered every injected fault; vm2 saw none
    assert got_c1 == [0x5A * 4096] * 6
    assert got_c2 == base_c2 == [0x33 * 4096] * 6
    assert vm1.vphi.frontend.retries == m.faults.injected > 0
    assert vm2.vphi.frontend.retries == 0
    assert sum(vm2.tracer.counters[s.injected_key] for s in registered_ops()) == 0
    # vm2's mean latency stays within 5% of the fault-free run
    assert lat2 == pytest.approx(base_lat2, rel=0.05)
