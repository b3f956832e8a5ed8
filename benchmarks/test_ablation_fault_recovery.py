"""Ablation: what does fault recovery cost, and who pays it?

The acceptance scenario for the fault subsystem: a plan injecting one
PCIe link flap plus one host ECONNRESET per 100 ops into vm1's RMA
workload, while vm2 runs the Fig 4 latency series fault-free next door.
Every idempotent op on vm1 must complete (retried, never dropped),
non-idempotent ops must surface typed errors, and vm2's Fig 4 series
must stay within 5 % of the fault-free baseline — the recovery overhead
is confined to the VM the faults target.
"""

import numpy as np
import pytest

from conftest import fmt_size, fresh_machine, print_table
from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif.errors import ECONNRESET
from repro.sim import us
from repro.vphi import VPhiOp, registered_ops, spec_for
from repro.workloads import ClientContext, sendrecv_latency

FIG4_SIZES = [1, 64, 256, 1024, 4096, 16384, 65536]
KB = 1 << 10
RMA_PORT = 21_500
RMA_OPS = 200
RMA_BYTES = 4 * KB

ACCEPTANCE_PLAN = FaultPlan.of(
    # one brief link flap early in vm1's RMA stream
    FaultSpec(kind=FaultKind.LINK_FLAP, op="vreadfrom", vm="vm1", at=(3,)),
    # one host ECONNRESET per 100 RMA ops on vm1
    FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET,
              op="vreadfrom", vm="vm1", every=100),
    # one reset against vm1's (non-idempotent) completion send
    FaultSpec(kind=FaultKind.SCIF_ERROR, errno=ECONNRESET,
              op="send", vm="vm1", at=(0,)),
    name="acceptance",
)


def spawn_rma_series(machine, vm, port=RMA_PORT):
    """vm runs RMA_OPS idempotent 4KB remote reads; the final handshake
    send is the plan's non-idempotent target.  Returns the client proc
    (value: per-op latencies + the typed error the send surfaced)."""
    sproc = machine.card_process(f"rma-srv-{vm.name}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(RMA_BYTES, populate=True)
        sproc.address_space.write(
            vma.start, np.full(RMA_BYTES, 0x5A, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, RMA_BYTES)
        ready.succeed(roff)

    gproc = vm.guest_process("rma-client")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), port))
        roff = yield ready
        vma = gproc.address_space.mmap(RMA_BYTES, populate=True)
        lats = []
        for _ in range(RMA_OPS):
            t0 = machine.sim.now
            yield from glib.vreadfrom(ep, vma.start, RMA_BYTES, roff)
            lats.append(machine.sim.now - t0)
        send_error = None
        try:
            yield from glib.send(ep, b"done")
        except ECONNRESET as err:
            send_error = err
        return lats, send_error

    machine.sim.spawn(server())
    return vm.spawn_guest(client())


def run_scenario(plan):
    machine = (Machine(cards=1, fault_plan=plan).boot() if plan
               else fresh_machine())
    vm1 = machine.create_vm("vm1")
    vm2 = machine.create_vm("vm2")
    rma = spawn_rma_series(machine, vm1)
    # sendrecv_latency runs the whole sim, so vm1's series rides along
    fig4 = sendrecv_latency(machine, ClientContext.guest(vm2, "vm2-client"),
                            FIG4_SIZES)
    assert rma.triggered, "vm1 RMA series did not finish"
    return machine, vm1, vm2, rma.value, fig4


def run_fault_recovery_ablation():
    _, _, _, (base_lats, _), base_fig4 = run_scenario(None)
    machine, vm1, vm2, (fault_lats, send_error), fault_fig4 = run_scenario(
        ACCEPTANCE_PLAN
    )
    return (machine, vm1, vm2, base_lats, base_fig4,
            fault_lats, fault_fig4, send_error)


def test_ablation_fault_recovery(run_once, golden):
    (machine, vm1, vm2, base_lats, base_fig4,
     fault_lats, fault_fig4, send_error) = run_once(run_fault_recovery_ablation)

    base_mean = sum(base_lats) / len(base_lats)
    fault_mean = sum(fault_lats) / len(fault_lats)
    overhead = fault_mean / base_mean - 1
    flaps = machine.faults.fires_of(FaultKind.LINK_FLAP)
    resets = machine.faults.fires_of(FaultKind.SCIF_ERROR)
    golden("a9", {
        "figure": "a9",
        "unit": "mixed",
        "rma_ops_completed": [["fault-free", len(base_lats)], ["faulted", len(fault_lats)]],
        "mean_read_latency": [["fault-free", base_mean], ["faulted", fault_mean]],
        "faults_injected": machine.faults.injected,
        "retries": vm1.vphi.frontend.retries,
        "link_flaps": flaps,
        "scif_errors": resets,
    })

    rows = [
        ["RMA ops completed", f"{len(base_lats)}", f"{len(fault_lats)}"],
        ["mean read latency", f"{base_mean / us(1):.1f} us",
         f"{fault_mean / us(1):.1f} us"],
        ["faults injected", "0", f"{machine.faults.injected}"],
        ["retries", "0", f"{vm1.vphi.frontend.retries}"],
    ]
    print_table("Ablation: fault recovery overhead (vm1 RMA series)",
                ["metric", "fault-free", "faulted"], rows)
    print(f"recovery overhead on the faulted VM: {overhead:+.1%} mean latency "
          f"({flaps} flap, {resets} ECONNRESET)")

    # --- all idempotent ops completed: retried, never dropped ---
    assert len(fault_lats) == RMA_OPS
    assert resets >= 1 + RMA_OPS // 100  # the send hit + one per 100 reads
    assert flaps == 1
    c1 = vm1.tracer.counters
    assert vm1.vphi.frontend.retries == sum(c1[s.retried_key] for s in registered_ops())
    assert (sum(c1[s.recovered_key] for s in registered_ops())
            == c1[spec_for(VPhiOp.VREADFROM).retried_key])
    # --- the non-idempotent send surfaced its typed error, unretried ---
    assert isinstance(send_error, ECONNRESET)
    send = spec_for(VPhiOp.SEND)
    assert c1[send.failed_key] == 1
    assert c1[send.retried_key] == 0
    # --- recovery overhead is real but bounded ---
    assert overhead > 0
    assert overhead < 0.25
    # --- vm2 is untouched: no faults, and Fig 4 within 5% pointwise ---
    assert sum(vm2.tracer.counters[s.injected_key] for s in registered_ops()) == 0
    assert vm2.vphi.frontend.retries == 0
    for (size, base), (_, got) in zip(base_fig4, fault_fig4):
        assert got == pytest.approx(base, rel=0.05), fmt_size(size)
