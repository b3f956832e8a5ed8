"""Declared metrics: a VM's tracer holds only registry-declared keys.

Every key a VM's tracer counts, accumulates or observes is an ``*_key``
field of a registered :class:`~repro.vphi.ops.OpSpec`, or the poll-CPU
accumulator.  Every other count is a typed attribute of the object that
owns it (frontend, backend, session, admission gate, KVM MMU), so a
misspelled metric name raises AttributeError instead of reading 0.
"""

import dataclasses

import pytest

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif import MapFlag
from repro.scif.errors import EBUSY, ECONNRESET
from repro.vphi import VPhiConfig, WaitMode, registered_ops
from repro.vphi.wait import POLL_CPU_KEY

PORT = 9950
WIN = 64 * 1024
#: the card peer re-registers its window here on every accept, so a
#: replayed connect after a card reset finds the same remote window.
FIXED_ROFF = 0x40000


def declared_keys() -> set:
    keys = {POLL_CPU_KEY}
    for spec in registered_ops():
        keys.update(getattr(spec, f.name) for f in dataclasses.fields(spec)
                    if f.name.endswith("_key"))
    return keys


def window_server(machine):
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        vma = sproc.address_space.mmap(WIN, populate=True)
        while True:
            conn, _ = yield from slib.accept(ep)
            roff = yield from slib.register(
                conn, vma.start, WIN,
                offset=FIXED_ROFF, flags=MapFlag.SCIF_MAP_FIXED,
            )
            if not ready.triggered:
                ready.succeed(roff)

    machine.sim.spawn(server())
    return ready


def run_session(config, plan=None, readers=1):
    """One guest session: open, connect, register, mmap (touched before
    and after the RMA pair), writeto, readfrom, then ``readers``
    concurrent vreadfroms.  Returns the VM once the run drains."""
    m = Machine(cards=1, fault_plan=plan).boot()
    vm = m.create_vm("vm0", vphi_config=config)
    ready = window_server(m)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def reader(ep, roff):
        vma = gproc.address_space.mmap(WIN, populate=True)
        try:
            yield from glib.vreadfrom(ep, vma.start, WIN, roff)
        except EBUSY:
            pass

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        roff = yield ready
        lvma = gproc.address_space.mmap(WIN, populate=True)
        loff = yield from glib.register(ep, lvma.start, WIN)
        mvma = yield from glib.mmap(ep, roff, 4096)
        gproc.address_space.read(mvma.start, 16)
        yield from glib.writeto(ep, loff, WIN, roff)
        yield from glib.readfrom(ep, loff, WIN, roff)
        gproc.address_space.read(mvma.start, 16)
        yield m.sim.all_of([vm.spawn_guest(reader(ep, roff))
                            for _ in range(readers)])

    c = vm.spawn_guest(client())
    m.run()
    assert c.triggered, "guest session did not finish"
    return vm


FAULTS = FaultPlan.of(
    FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET, op="readfrom",
              at=(0,)),
    FaultSpec(kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=(0,)),
)

SCENARIOS = {
    "blocking": (
        VPhiConfig(), None, 1,
        lambda vm: vm.mmu.pfnphi_faults > 0,
    ),
    "pooled-faults-queue": (
        VPhiConfig(backend_workers=2, recovery_policy="queue"), FAULTS, 1,
        lambda vm: (vm.vphi.frontend.session.recoveries == 1
                    and vm.vphi.backend.card_resets == 1
                    and vm.vphi.frontend.retries >= 2
                    and vm.mmu.vma_zaps == 1),
    ),
    "admission-sheds": (
        VPhiConfig(backend_workers=2, admit_queue_depth=1), None, 4,
        lambda vm: vm.vphi.frontend.admission.shed > 0,
    ),
    "polling": (
        VPhiConfig(wait_mode=WaitMode.POLLING), None, 1,
        lambda vm: vm.tracer.accumulators[POLL_CPU_KEY] > 0,
    ),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_vm_tracer_holds_only_declared_keys(scenario):
    config, plan, readers, exercised = SCENARIOS[scenario]
    vm = run_session(config, plan, readers)
    assert exercised(vm), f"{scenario}: the workload missed its path"
    t = vm.tracer
    used = set(t.counters) | set(t.accumulators) | set(t.stats)
    assert used
    assert not used - declared_keys(), sorted(used - declared_keys())
