"""Admission control: the depth watermark, hysteresis, and the no-strand
property.

Unit half drives the AdmissionController against a stub frontend (the
gate is pure accounting); the e2e half arms the watermark on a live
frontend and pins the three documented invariants: one admission per
guest-visible submit (segmentation never double-admits), replay bypasses
the gate, and no admission decision can strand a request — every arrival
gets a typed completion even under Hypothesis-generated load patterns.
"""

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif import ScifError
from repro.scif.errors import EBUSY
from repro.vphi import VPhiConfig
from repro.vphi.ops import VPhiOp, spec_for
from repro.vphi.qos import ADMIT_HYSTERESIS, AdmissionController

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "10"))

KB = 1 << 10
PORT = 9800


# ----------------------------------------------------------------------
# unit: the gate is pure accounting
# ----------------------------------------------------------------------
class _StubTracer:
    def __init__(self):
        self.counters = Counter()

    def count(self, key, n=1):
        self.counters[key] += n


class _StubVm:
    name = "vm-stub"


class _StubFrontend:
    def __init__(self, **cfg):
        self.config = VPhiConfig(**cfg)
        self.tracer = _StubTracer()
        self.vm = _StubVm()


def make(**cfg) -> AdmissionController:
    return AdmissionController(_StubFrontend(**cfg))


SEND = spec_for(VPhiOp.SEND)


class TestDepthWatermark:
    def test_disabled_without_watermarks(self):
        adm = make()
        assert not adm.enabled

    def test_sheds_at_high_water_resumes_at_low(self):
        adm = make(admit_queue_depth=4)
        assert adm.depth_low == 4 * ADMIT_HYSTERESIS == 2
        for _ in range(4):
            adm.admit(SEND)
        assert adm.depth == 4
        with pytest.raises(EBUSY):
            adm.admit(SEND)
        assert adm.shed == 1
        # drain to 3: still above low water (2) -> still shedding
        adm.finish()
        with pytest.raises(EBUSY):
            adm.admit(SEND)
        # drain to 2 == low water: gate re-opens
        adm.finish()
        adm.admit(SEND)
        assert adm.admitted == 5
        assert adm.shed == 2
        assert adm.tracer.counters[SEND.shed_key] == 2

    def test_batch_admits_or_sheds_atomically(self):
        adm = make(admit_queue_depth=8)
        adm.admit(SEND, n=5)
        assert adm.depth == 5
        adm.admit(SEND, n=3)   # reaches high water only after admitting
        with pytest.raises(EBUSY):
            adm.admit(SEND, n=4)
        assert adm.shed == 4, "the whole refused batch counts as shed"
        assert adm.tracer.counters[SEND.shed_key] == 4
        assert adm.depth == 8, "a refused batch admits nothing"


# ----------------------------------------------------------------------
# e2e: live frontend with the watermark armed
# ----------------------------------------------------------------------
def window_server(machine, port, size=256 * KB, fill=0x5A):
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


def test_segmented_transfer_admits_once():
    """A read bigger than one segment re-enters the batch path
    internally; the gate must see ONE guest-visible request."""
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig(
        chunk_size=4 * KB, max_inflight=4, admit_queue_depth=100))
    ready = window_server(m, PORT)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    size = 200 * KB  # far beyond one segment at 4 KB chunks

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        yield from glib.vreadfrom(ep, vma.start, size, roff)
        return gproc.address_space.read(vma.start, size).sum()

    c = vm.spawn_guest(client())
    m.run()
    assert c.triggered and c.value == size * 0x5A
    adm = vm.vphi.frontend.admission
    # open + connect + vreadfrom = 3 guest-visible submits, regardless
    # of how many segments the read fanned into
    assert adm.admitted == 3
    assert adm.depth == 0


def test_replay_bypasses_admission():
    """Session-recovery replay re-issues journaled ops through the
    frontend; those must not be re-admitted (or re-shed)."""
    plan = FaultPlan.of(FaultSpec(
        kind=FaultKind.CARD_RESET, op="vreadfrom", vm="vm0", at=(1,),
    ))
    m = Machine(cards=1, fault_plan=plan).boot()
    vm = m.create_vm("vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig(
        recovery_policy="queue", admit_queue_depth=100))
    ready = window_server(m, PORT + 1)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    size = 16 * KB

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT + 1))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        done = 0
        for _ in range(3):
            try:
                yield from glib.vreadfrom(ep, vma.start, size, roff)
                done += 1
            except ScifError:
                pass
        return done

    c = vm.spawn_guest(client())
    m.run()
    assert c.triggered and c.value >= 1
    adm = vm.vphi.frontend.admission
    # the reset triggers a journal replay of open+connect (+ registers);
    # admitted must still equal the guest-visible submits only
    assert adm.admitted == 5  # open, connect, 3x vreadfrom
    assert adm.shed == 0
    assert adm.depth == 0


# ----------------------------------------------------------------------
# the no-strand property
# ----------------------------------------------------------------------
@settings(max_examples=N_EXAMPLES, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    depth=st.integers(1, 6),
    burst=st.lists(st.integers(1, 16 * KB), min_size=1, max_size=24),
)
def test_no_admission_decision_strands_a_request(depth, burst):
    """Whatever the watermark config and open-loop burst shape, every
    submitted request resolves with a typed completion — admitted work
    finishes, shed work raises EBUSY, nothing waits forever — and the
    admission ledger balances."""
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig(
        backend_workers=2, max_inflight=4, admit_queue_depth=depth))
    ready = window_server(m, PORT + 2)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    outcomes = {"ok": 0, "shed": 0}
    setup_done = m.sim.event()

    def opener():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT + 2))
        roff = yield ready
        vma = gproc.address_space.mmap(64 * KB, populate=True)
        setup_done.succeed((ep, vma, roff))

    def one(nbytes):
        ep, vma, roff = yield setup_done
        try:
            yield from glib.vreadfrom(ep, vma.start, min(nbytes, 64 * KB),
                                      roff)
        except EBUSY:
            outcomes["shed"] += 1
        else:
            outcomes["ok"] += 1

    vm.spawn_guest(opener())
    for nbytes in burst:
        vm.spawn_guest(one(nbytes))
    m.run()  # termination at all = nothing stranded
    assert outcomes["ok"] + outcomes["shed"] == len(burst)
    adm = vm.vphi.frontend.admission
    assert adm.depth == 0, "admitted work not retired"
    assert adm.shed == outcomes["shed"]
    # ledger: every admission was retired through finish()
    assert adm.admitted >= outcomes["ok"]
