"""Ablation A4: data-path comparison — send-recv vs bounced RMA vs
direct window-to-window RMA, from inside a VM.

§II-B: "RDMA is a common communication pattern ... more suitable for
larger data transfers".  Three ways to move N bytes from the card into a
guest buffer:

* **send-recv**: two-sided messaging through the driver rings;
* **vreadfrom**: one-sided read, bounced through kmalloc chunks (the
  paper's implementation, Fig 5's vPHI series);
* **readfrom (registered window)**: one-sided read into a *registered*
  guest window — pinned guest RAM the DMA engine hits directly, no
  bounce, no guest copy.
"""

import itertools

import numpy as np

from conftest import MB, fmt_size, fresh_machine, print_table
from repro.workloads import ClientContext, rma_read_throughput, sendrecv_latency

SIZES = [64 * 1024, MB, 16 * MB, 64 * MB]
_ports = itertools.count(27000)


def window_read_throughput(machine, ctx, sizes):
    """Guest-side readfrom between registered windows (direct path)."""
    port = next(_ports)
    card_node = machine.card_node_id(0)
    sproc = machine.card_process(f"winsrv{port}")
    slib = machine.scif(sproc)
    max_size = max(sizes)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(max_size, populate=True)
        sproc.address_space.write(vma.start, np.full(max_size, 0x42, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, max_size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)

    def client():
        ep = yield from ctx.lib.open()
        yield from ctx.lib.connect(ep, (card_node, port))
        roff = yield ready
        vma = ctx.process.address_space.mmap(max_size, populate=True)
        loff = yield from ctx.lib.register(ep, vma.start, max_size)
        results = []
        for size in sizes:
            t0 = machine.sim.now
            yield from ctx.lib.readfrom(ep, loff, size, roff)
            results.append((size, size / (machine.sim.now - t0)))
        yield from ctx.lib.send(ep, b"x")
        return results

    machine.sim.spawn(server())
    p = ctx.spawn(client())
    machine.run()
    return p.value


def run_paths_ablation():
    machine = fresh_machine()
    vm = machine.create_vm("vm0")
    # send-recv: measure latency, convert to goodput
    lat = sendrecv_latency(machine, ClientContext.guest(vm, "sr"), SIZES)
    sendrecv_bw = [(s, s / t) for s, t in lat]

    machine2 = fresh_machine()
    vm2 = machine2.create_vm("vm0")
    bounced = rma_read_throughput(machine2, ClientContext.guest(vm2, "vr"), SIZES)

    machine3 = fresh_machine()
    vm3 = machine3.create_vm("vm0")
    direct = window_read_throughput(machine3, ClientContext.guest(vm3, "wr"), SIZES)
    return sendrecv_bw, bounced, direct


def test_ablation_rma_vs_sendrecv(run_once, golden):
    sendrecv_bw, bounced, direct = run_once(run_paths_ablation)
    golden("a4", {
        "figure": "a4",
        "unit": "bytes_per_second",
        "sendrecv": [[s, bw] for s, bw in sendrecv_bw],
        "vreadfrom_bounced": [[s, bw] for s, bw in bounced],
        "readfrom_window": [[s, bw] for s, bw in direct],
    })

    rows = []
    for i, size in enumerate(SIZES):
        rows.append([
            fmt_size(size),
            f"{sendrecv_bw[i][1] / 1e9:.2f}",
            f"{bounced[i][1] / 1e9:.2f}",
            f"{direct[i][1] / 1e9:.2f}",
        ])
    print_table(
        "A4: guest data-path goodput (GB/s)",
        ["size", "send-recv", "vreadfrom (bounced)", "readfrom (window)"],
        rows,
    )

    # at scale, RMA beats two-sided messaging (the 2.5 GB/s ring path)
    assert bounced[-1][1] > sendrecv_bw[-1][1]
    # and the direct window path recovers (nearly) native throughput by
    # skipping the bounce + guest copy entirely
    assert direct[-1][1] > bounced[-1][1]
    assert direct[-1][1] > 0.95 * 6.4e9
    # everything is tiny at 64KB where the 375us fixed cost dominates
    assert all(bw < 1e9 for _, bw in (sendrecv_bw[0], bounced[0], direct[0]))
