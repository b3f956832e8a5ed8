"""Pool properties: random mixes never violate the dispatch invariants.

Whatever Hypothesis draws — pool sizes, in-flight windows, per-VM op
mixes across three VMs sharing the card, with a random fault plan layered
on top — pooled dispatch must:

* never reorder two ops bound for the same endpoint (the shard-by-handle
  ordering promise, audited via the pool's completion log);
* never let popped-but-incomplete requests exceed ``max_inflight``;
* always drain to zero: no outstanding tags, no in-flight requests, no
  leaked ring descriptors or bounce buffers, idle pool;
* keep a fault-free VM's data byte-exact while a chaos VM retries.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif import ScifError
from repro.vphi import VPhiConfig, registered_ops

PORT = 8700
KB = 1 << 10
CHAOS_VM = "vm-p0"

fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(FaultKind.ALL),
    op=st.sampled_from([None, "vreadfrom", "vwriteto", "fence_mark"]),
    vm=st.just(CHAOS_VM),  # faults pinned to one VM; the others stay clean
    every=st.integers(1, 4),
    max_fires=st.one_of(st.none(), st.integers(1, 3)),
    duration=st.floats(50e-6, 500e-6),
)

vm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(1, 32 * KB)),
        st.tuples(st.just("write"), st.integers(1, 32 * KB)),
        st.tuples(st.just("fence"), st.just(0)),
        st.tuples(st.just("nodes"), st.just(0)),
    ),
    min_size=2, max_size=5,
)


def window_pair(machine, port, size=128 * KB, fill=0x5A):
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


def pooled_client(vm, card, port, ready, ops):
    """One VM's guest workload: its op mix against its own card window."""
    gproc = vm.guest_process(f"{vm.name}-app")
    glib = vm.vphi.libscif(gproc)

    def client():
        outcomes = []
        try:
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, port))
        except ScifError as err:
            return [("aborted", type(err).__name__)]
        roff = yield ready
        vma = gproc.address_space.mmap(32 * KB, populate=True)
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
                outcomes.append((verb, type(err).__name__))
        return outcomes

    return vm.spawn_guest(client())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workers=st.lists(st.integers(1, 6), min_size=3, max_size=3),
    windows=st.lists(st.integers(1, 8), min_size=3, max_size=3),
    op_mixes=st.lists(vm_ops, min_size=3, max_size=3),
    specs=st.lists(fault_specs, min_size=0, max_size=2),
)
def test_pool_invariants_hold_under_random_mixes(workers, windows,
                                                 op_mixes, specs):
    m = Machine(cards=1, fault_plan=FaultPlan.of(*specs)).boot()
    vms = [
        m.create_vm(
            f"vm-p{i}",
            vphi_config=VPhiConfig(
                backend_workers=workers[i], max_inflight=windows[i],
                op_timeout=2e-3, max_retries=2,
            ),
        )
        for i in range(3)
    ]
    card = m.card_node_id(0)
    clients = []
    for i, vm in enumerate(vms):
        ready = window_pair(m, PORT + i)
        clients.append(pooled_client(vm, card, PORT + i, ready, op_mixes[i]))
    m.run()

    for vm, client in zip(vms, clients):
        # 1) no deadlock, every op accounted for (result or typed error)
        assert client.triggered, f"{vm.name} deadlocked"
        assert client.value

        # 2) the in-flight window was honoured and everything drained
        pool = vm.vphi.backend.pool
        assert pool is not None
        assert pool.peak_inflight <= vm.vphi.config.max_inflight
        assert pool.inflight == 0
        assert vm.vphi.backend.in_flight == 0
        assert not vm.vphi.frontend.responses, f"{vm.name} parked tags"
        ring = vm.vphi.virtio.ring
        assert ring.num_free == ring.size, f"{vm.name} leaked descriptors"
        assert vm.guest_kernel.kmalloc.live == 0, f"{vm.name} leaked kmalloc"

        # 3) per-endpoint FIFO: completion order preserves submission
        #    order for every handle (the shard-by-handle promise)
        last: dict[int, int] = {}
        for handle, seq in pool.completion_log:
            assert last.get(handle, 0) < seq, (
                f"{vm.name}: endpoint {handle} completions reordered"
            )
            last[handle] = seq

    # 4) the shared arbiter granted every VM that submitted work
    arb = m.arbiter_for(0)
    assert arb.free == arb.slots  # every credit returned
    for vm in vms:
        if vm.vphi.backend.pool.submitted:
            assert arb.grants_by_vm.get(vm.name, 0) > 0

    # 5) chaos stayed contained: the fault-free VMs saw no injections
    for vm in vms[1:]:
        assert sum(vm.tracer.counters[s.injected_key] for s in registered_ops()) == 0
