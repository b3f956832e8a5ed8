#!/usr/bin/env python
"""Xeon Phi sharing: four VMs drive one card at the same time.

The paper's headline capability (§I): PCIe passthrough gives the whole
card to ONE VM; vPHI multiplexes it.  Each VM launches dgemm on the card
with micnativeloadex; the uOS scheduler timeshares the oversubscribed
hardware threads and every VM gets its (correct) result back.

Run:  python examples/multi_vm_sharing.py
"""

from repro import Machine
from repro.coi import start_coi_daemon
from repro.mpss import micnativeloadex
from repro.workloads import ClientContext, DGEMM_BINARY

N = 2000
THREADS = 224
VMS = 4


def main() -> None:
    machine = Machine(cards=1).boot()
    start_coi_daemon(machine, card=0)
    uos = machine.uos(0)
    print(f"card: {machine.devices[0].sku.name}, "
          f"{uos.scheduler.slots} hardware threads for user kernels")

    procs = []
    for i in range(VMS):
        vm = machine.create_vm(f"vm{i}")
        ctx = ClientContext.guest(vm, f"loader{i}")
        procs.append((vm, ctx.spawn(
            micnativeloadex(machine, ctx, DGEMM_BINARY, argv=[str(N), str(THREADS)])
        )))

    machine.run()

    print(f"\n{VMS} VMs each launched dgemm (N={N}, {THREADS} threads):")
    for vm, p in procs:
        r = p.value
        print(f"  {vm.name}: status={r.status} total={r.total_time:.3f}s "
              f"compute={r.compute_time:.3f}s "
              f"transferred={r.transferred_bytes >> 20}MB")
        assert r.status == 0

    print(f"\npeak concurrent thread demand on the card: "
          f"{uos.scheduler.peak_demand} "
          f"(oversubscribed {uos.scheduler.peak_demand / uos.scheduler.slots:.1f}x, "
          "multiplexed by the uOS scheduler)")
    sent = sum(p.value.transferred_bytes for _, p in procs)
    print(f"SCIF moved {sent >> 20} MB of binaries and inputs over the PCIe bus")
    print("OK")


if __name__ == "__main__":
    main()
