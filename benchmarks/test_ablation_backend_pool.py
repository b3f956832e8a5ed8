"""Ablation A10: worker-pool dispatch vs the paper's blocking backend.

§III services every forwarded op (bar accept) in QEMU's blocking
event-loop mode — the whole VM freezes for the duration of the host
syscall, so concurrent guest streams serialize behind one another.  The
worker-pool backend (``VPhiConfig(backend_workers=N)``) hands each
request to a persistent pool member instead, keeping the vCPU running
and completions flowing out of order by tag.

The acceptance scenario: three VMs share one card, each running two
concurrent guest RMA streams against its own registered window.  Pooled
dispatch must *strictly* beat blocking dispatch on aggregate throughput,
the blocking run must show the whole-VM pauses that explain why, and the
pooled run must show none.
"""

import numpy as np

from conftest import fresh_machine, print_table
from repro.analysis import concurrency_snapshot, concurrency_stats
from repro.sim import ms
from repro.vphi import VPhiConfig

KB = 1 << 10
PORT = 23_000
N_VMS = 3
STREAMS_PER_VM = 2
OPS_PER_STREAM = 25
RMA_BYTES = 64 * KB
#: pool sizes swept; 0 is the paper's blocking dispatch
WORKER_COUNTS = (0, 1, 2, 4, 8)
POOL_WORKERS = 4


def spawn_window_server(machine, port, size=RMA_BYTES, fill=0x5A):
    """Card-side server registering one read window, fulfilling ``ready``."""
    sproc = machine.card_process(f"pool-srv-{port}")
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


def spawn_stream(machine, vm, port, ready):
    """One guest process pulling OPS_PER_STREAM remote reads."""
    gproc = vm.guest_process(f"stream-{port}")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), port))
        roff = yield ready
        vma = gproc.address_space.mmap(RMA_BYTES, populate=True)
        for _ in range(OPS_PER_STREAM):
            yield from glib.vreadfrom(ep, vma.start, RMA_BYTES, roff)
        return gproc.address_space.read(vma.start, RMA_BYTES).sum()

    return vm.spawn_guest(client())


def run_scenario(workers: int):
    """N_VMS x STREAMS_PER_VM concurrent RMA streams; returns aggregate
    throughput plus the per-VM concurrency stats that explain it."""
    machine = fresh_machine()
    config = VPhiConfig(backend_workers=workers) if workers else VPhiConfig()
    vms = [machine.create_vm(f"vm{i}", vphi_config=config) for i in range(N_VMS)]
    clients = []
    port = PORT
    for vm in vms:
        for _ in range(STREAMS_PER_VM):
            ready = spawn_window_server(machine, port)
            clients.append(spawn_stream(machine, vm, port, ready))
            port += 1
    t0 = machine.sim.now
    snaps = [concurrency_snapshot(vm) for vm in vms]
    machine.run()
    elapsed = machine.sim.now - t0
    expected = RMA_BYTES * 0x5A
    for client in clients:
        assert client.triggered, "a stream deadlocked"
        assert client.value == expected, "a stream read corrupt data"
    total_bytes = len(clients) * OPS_PER_STREAM * RMA_BYTES
    stats = [concurrency_stats(vm, since=snap) for vm, snap in zip(vms, snaps)]
    return machine, vms, total_bytes / elapsed, elapsed, stats


def run_backend_pool_ablation():
    """``{workers: run_scenario(workers)}`` over WORKER_COUNTS."""
    return {workers: run_scenario(workers) for workers in WORKER_COUNTS}


def test_ablation_backend_pool(run_once, golden):
    sweep = run_once(run_backend_pool_ablation)
    golden("a10", {
        "figure": "a10",
        "unit": "bytes_per_second",
        "throughput_by_workers": [[w, tput] for w, (_, _, tput, _, _) in sweep.items()],
    })
    _, _, blk_tput, blk_elapsed, blk_stats = sweep[0]
    machine, vms, pool_tput, pool_elapsed, pool_stats = sweep[POOL_WORKERS]

    speedup = pool_tput / blk_tput
    rows = [
        ["aggregate throughput",
         f"{blk_tput / (1 << 20):.1f} MB/s", f"{pool_tput / (1 << 20):.1f} MB/s"],
        ["makespan",
         f"{blk_elapsed / ms(1):.2f} ms", f"{pool_elapsed / ms(1):.2f} ms"],
        ["mean event-loop occupancy",
         f"{sum(s.event_loop_occupancy for s in blk_stats) / N_VMS:.1%}",
         f"{sum(s.event_loop_occupancy for s in pool_stats) / N_VMS:.1%}"],
        ["peak in-flight (max over VMs)",
         f"{max(s.peak_inflight for s in blk_stats)}",
         f"{max(s.peak_inflight for s in pool_stats)}"],
    ]
    print_table(
        f"Ablation A10: backend dispatch ({N_VMS} VMs x {STREAMS_PER_VM} "
        f"streams, {OPS_PER_STREAM} x {RMA_BYTES // KB}KB reads each)",
        ["metric", "blocking", f"pooled x{POOL_WORKERS}"], rows)
    print(f"pooled dispatch speedup on aggregate throughput: {speedup:.2f}x")

    # --- the headline: pooling strictly improves aggregate throughput ---
    assert pool_tput > blk_tput
    # --- and the mechanism: blocking froze every VM, pooling froze none ---
    for s in blk_stats:
        assert s.event_loop_occupancy > 0, f"{s.vm} never paused while blocking"
        assert not s.pooled
    for s in pool_stats:
        assert s.event_loop_occupancy == 0, f"{s.vm} paused despite the pool"
        assert s.pooled and s.pooled_requests > 0
        # both streams overlapped inside the VM at some point
        assert s.peak_inflight >= 2, f"{s.vm} streams never overlapped"
        assert s.peak_inflight <= POOL_WORKERS * STREAMS_PER_VM
    # --- the shared arbiter granted every VM its turns ---
    arb = machine.arbiter_for(0)
    assert arb.free == arb.slots
    for vm in vms:
        assert arb.grants_by_vm.get(vm.name, 0) > 0
