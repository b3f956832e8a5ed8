"""Ablation A6: virtio ring depth vs concurrent small-request throughput.

§II-C fixes the transport as a shared ring; its depth bounds the number
of in-flight requests.  With the frontend's back-pressure (submitters
park on descriptor exhaustion), a shallow ring throttles bursts of
concurrent guest requests while barely touching single-stream traffic —
the classic queue-depth tradeoff, quantified.
"""


from conftest import fresh_machine, print_table
from repro.sim import us

PORT = 26000
CONCURRENT = 64
RING_SIZES = [8, 32, 128, 256]


def run_ring_sweep():
    out = []
    for ring_size in RING_SIZES:
        machine = fresh_machine()
        vm = machine.create_vm("vm0")
        vm.vphi.virtio.ring.__init__(ring_size)
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("sink"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield from slib.recv(conn, CONCURRENT * 8)

        glib = vm.vphi.libscif(vm.guest_process("app"))

        def opener():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card_node, PORT))
            return ep

        machine.sim.spawn(server())
        p = vm.spawn_guest(opener())
        machine.run()
        ep = p.value

        t0 = machine.sim.now
        done = []

        def sender(i):
            yield from glib.send(ep, bytes(8))
            done.append(machine.sim.now)

        for i in range(CONCURRENT):
            vm.spawn_guest(sender(i))
        machine.run()
        makespan = max(done) - t0
        out.append((ring_size, makespan, vm.vphi.virtio.ring.peak_in_flight))
    return out


def test_ablation_ring_size(run_once, golden):
    data = run_once(run_ring_sweep)
    golden("a6", {
        "figure": "a6",
        "unit": "mixed",
        "makespan_by_ring": [[size, m] for size, m, _ in data],
        "peak_in_flight_by_ring": [[size, p] for size, _, p in data],
    })

    rows = [
        [str(size), f"{makespan / us(1):.0f}", str(peak)]
        for size, makespan, peak in data
    ]
    print_table(
        f"A6: {CONCURRENT} concurrent 8B guest sends vs virtio ring depth",
        ["ring", "makespan (us)", "peak descriptors in flight"],
        rows,
    )

    makespans = [m for _, m, _ in data]
    peaks = [p for _, _, p in data]
    # deeper rings admit more in-flight descriptors
    assert peaks[0] < peaks[-1]
    assert peaks[0] <= 8
    # every configuration completes all requests (back-pressure works);
    # the serialized backend dominates, so depth is not the bottleneck
    # beyond a shallow floor — makespans stay within 2x across the sweep
    assert max(makespans) < 2 * min(makespans)
