"""The §IV-B microbenchmarks: send-recv latency and remote-read throughput.

These are the exact workloads behind Fig 4 and Fig 5, written once
against the SCIF API and run either natively (host client) or through
vPHI (guest client) via a :class:`ClientContext`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ClientContext",
    "sendrecv_latency",
    "rma_read_throughput",
    "run_measurement",
]

_ports = itertools.count(20_000)


@dataclass
class ClientContext:
    """Where a benchmark client runs: which libscif, whose address space,
    and how its sim process is spawned (guest processes live in the VM's
    freezable domain)."""

    lib: object
    process: object
    spawn: Callable
    label: str

    @classmethod
    def native(cls, machine, name: str = "native-client") -> "ClientContext":
        proc = machine.host_process(name)
        return cls(machine.scif(proc), proc, machine.sim.spawn, "native")

    @classmethod
    def guest(cls, vm, name: str = "guest-client") -> "ClientContext":
        proc = vm.guest_process(name)
        return cls(vm.vphi.libscif(proc), proc, vm.spawn_guest, "vphi")


def run_measurement(machine, gen, spawn=None):
    """Spawn a measurement process, run the sim, return its value."""
    proc = (spawn or machine.sim.spawn)(gen)
    machine.run()
    return proc.value


# ----------------------------------------------------------------------
# Fig 4 workload
# ----------------------------------------------------------------------
def sendrecv_latency(machine, ctx: ClientContext, sizes: Sequence[int],
                     card: int = 0) -> list[tuple[int, float]]:
    """Measure scif_send completion latency per message size.

    "a SCIF server is launched on the accelerator, listens for connection
    requests and when a connection is established, it blocks on
    scif_recv(), waiting to serve data to the respective client" (§IV-B).
    """
    port = next(_ports)
    card_node = machine.card_node_id(card)
    slib = machine.scif(machine.card_process(f"latency-server-{port}", card=card))
    sizes = list(sizes)

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        for size in sizes:
            yield from slib.recv(conn, size)

    def client():
        ep = yield from ctx.lib.open()
        yield from ctx.lib.connect(ep, (card_node, port))
        results = []
        for size in sizes:
            payload = np.full(size, 0xA5, dtype=np.uint8)
            t0 = machine.sim.now
            yield from ctx.lib.send(ep, payload)
            results.append((size, machine.sim.now - t0))
        yield from ctx.lib.close(ep)
        return results

    machine.sim.spawn(server())
    return run_measurement(machine, client(), spawn=ctx.spawn)


# ----------------------------------------------------------------------
# Fig 5 workload
# ----------------------------------------------------------------------
#: the window holds seeded bytes repeating with this prime period, so a
#: page read back from the wrong offset holds different bytes.
PAYLOAD_PERIOD = 65_521


def rma_read_throughput(machine, ctx: ClientContext, sizes: Sequence[int],
                        card: int = 0, verify: bool = True) -> list[tuple[int, float]]:
    """Measure scif_vreadfrom throughput per transfer size.

    "we launch an executable on Xeon Phi, that again listens for incoming
    connections and then pins a device memory area based on the requested
    size using scif_register() ... the benchmark requests a connection
    and afterwards it performs a remote read from the accelerator" (§IV-B).
    """
    port = next(_ports)
    card_node = machine.card_node_id(card)
    sproc = machine.card_process(f"rma-server-{port}", card=card)
    slib = machine.scif(sproc)
    sizes = list(sizes)
    max_size = max(sizes)
    ready = machine.sim.event()
    block = np.random.default_rng(7).integers(0, 256, PAYLOAD_PERIOD, dtype=np.uint8)

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(max_size, populate=True, name="rma-window")
        sproc.address_space.write(vma.start, np.resize(block, max_size))
        roff = yield from slib.register(conn, vma.start, max_size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)  # hold the window until the client ends

    def client():
        ep = yield from ctx.lib.open()
        yield from ctx.lib.connect(ep, (card_node, port))
        roff = yield ready
        vma = ctx.process.address_space.mmap(max_size, populate=True, name="rma-dst")
        results = []
        for size in sizes:
            t0 = machine.sim.now
            yield from ctx.lib.vreadfrom(ep, vma.start, size, roff)
            dt = machine.sim.now - t0
            if verify:  # the first and last page, each at its offset
                page = min(size, 4096)
                for off in (0, size - page):
                    got = ctx.process.address_space.read(vma.start + off, page)
                    want = block[np.arange(off, off + page) % PAYLOAD_PERIOD]
                    assert np.array_equal(got, want), \
                        f"RMA payload corrupted: {size}-byte read, page at {off}"
            results.append((size, size / dt))
        yield from ctx.lib.send(ep, b"x")
        yield from ctx.lib.close(ep)
        return results

    machine.sim.spawn(server())
    return run_measurement(machine, client(), spawn=ctx.spawn)
