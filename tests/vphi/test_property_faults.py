"""Chaos property: random fault plans never break the invariants.

Whatever deterministic fault plan Hypothesis dreams up — any mix of link
flaps, syscall errors, ring corruption, worker deaths and card resets,
on any cadence — over a random op sequence, the frontend must never
deadlock, never leak a ring descriptor or bounce buffer, and never
corrupt the results of a second, fault-free VM sharing the card.
"""

import os

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif import ScifError
from repro.vphi import VPhiConfig, registered_ops

# the nightly chaos job raises this well past the CI default
N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "10"))

PORT = 8600
KB = 1 << 10
CHAOS_VM = "vm-chaos"

# CARD_RESET and BACKEND_RESTART are *machine-wide* invalidations (every
# VM sharing the card loses its endpoints), so they cannot satisfy this
# test's clean-VM-isolation invariant by design; their blast radius is
# covered by tests/vphi/test_session_recovery.py and
# test_property_session.py instead.
PER_VM_KINDS = tuple(
    k for k in FaultKind.ALL
    if k not in (FaultKind.CARD_RESET, FaultKind.BACKEND_RESTART)
)

fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(PER_VM_KINDS),
    op=st.sampled_from([None, "vreadfrom", "vwriteto", "fence_mark"]),
    vm=st.just(CHAOS_VM),  # faults pinned to the chaos VM
    every=st.integers(1, 4),
    max_fires=st.one_of(st.none(), st.integers(1, 3)),
    duration=st.floats(50e-6, 500e-6),
)

chaos_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(1, 64 * KB)),
        st.tuples(st.just("write"), st.integers(1, 64 * KB)),
        st.tuples(st.just("fence"), st.just(0)),
        st.tuples(st.just("nodes"), st.just(0)),
    ),
    min_size=2, max_size=6,
)


def window_pair(machine, port, size=256 * KB, fill=0x5A):
    """Card server exposing one registered read/write window."""
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


@settings(max_examples=N_EXAMPLES, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(fault_specs, min_size=1, max_size=3), ops=chaos_ops)
def test_chaos_plan_never_deadlocks_leaks_or_cross_corrupts(specs, ops):
    m = Machine(cards=1, fault_plan=FaultPlan.of(*specs)).boot()
    # the chaos VM gets the watchdog + retry machinery armed
    chaos = m.create_vm(
        CHAOS_VM, vphi_config=VPhiConfig(op_timeout=2e-3, max_retries=2)
    )
    clean = m.create_vm("vm-clean")
    card = m.card_node_id(0)
    r_chaos = window_pair(m, PORT)
    r_clean = window_pair(m, PORT + 1, fill=0x33)

    def chaos_client():
        gproc = chaos.guest_process("chaos-app")
        glib = chaos.vphi.libscif(gproc)
        outcomes = []
        try:
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
        except ScifError as err:
            return [("aborted", type(err).__name__)]
        roff = yield r_chaos
        vma = gproc.address_space.mmap(64 * KB, populate=True)
        for verb, nbytes in ops:
            try:
                if verb == "read":
                    yield from glib.vreadfrom(ep, vma.start, nbytes, roff)
                elif verb == "write":
                    yield from glib.vwriteto(ep, vma.start, nbytes, roff)
                elif verb == "fence":
                    yield from glib.fence_mark(ep)
                else:
                    yield from glib.get_node_ids()
                outcomes.append((verb, "ok"))
            except ScifError as err:
                # faults may surface as typed errors — never anything else
                outcomes.append((verb, type(err).__name__))
        return outcomes

    def clean_client():
        gproc = clean.guest_process("clean-app")
        glib = clean.vphi.libscif(gproc)
        ep = yield from glib.open()
        yield from glib.connect(ep, (card, PORT + 1))
        roff = yield r_clean
        vma = gproc.address_space.mmap(4 * KB, populate=True)
        sums = []
        for _ in range(3):
            yield from glib.vreadfrom(ep, vma.start, 4 * KB, roff)
            sums.append(int(gproc.address_space.read(vma.start, 4 * KB).sum()))
        return sums

    c_chaos = chaos.spawn_guest(chaos_client())
    c_clean = clean.spawn_guest(clean_client())
    m.run()

    # 1) no deadlock: both clients ran to completion
    assert c_chaos.triggered, "chaos client deadlocked"
    assert c_clean.triggered, "clean client deadlocked"
    assert c_chaos.value  # every op produced an outcome or typed error

    # 2) no descriptor or bounce-buffer leaks on either VM
    for vm in (chaos, clean):
        ring = vm.vphi.virtio.ring
        assert ring.num_free == ring.size, f"{vm.name} leaked descriptors"
        assert vm.guest_kernel.kmalloc.live == 0, f"{vm.name} leaked kmalloc"

    # 3) the fault-free VM's data is untouched by the chaos next door
    assert c_clean.value == [0x33 * 4 * KB] * 3
    assert sum(clean.tracer.counters[s.injected_key] for s in registered_ops()) == 0
    assert clean.vphi.frontend.retries == 0
