"""Ablation A11: session recovery time vs journal size.

The session journal (§ DESIGN 10) makes a card reset survivable: the
frontend fences the epoch, aborts in-flight work, and replays the
journaled topology — endpoints, windows, mmaps — through the normal op
path.  Recovery is therefore *paid per journaled op*: a guest holding
one connection rebuilds almost instantly, a guest holding eight
endpoints with registered windows and mmaps replays every one of them.

The acceptance scenario: a single VM under the ``queue`` policy opens N
sessions (connect + registered window + mmap each), a CARD_RESET lands
mid-workload, and the client's RMA completes transparently.  The series
is rebuild time as a function of journal size; the shape assertions pin
that recovery cost scales with the journal, stays in the sub-ms regime
the paper's reset handling targets, and never trades correctness for
speed — every post-recovery read returns uncorrupted data.
"""

import numpy as np

from conftest import print_table
from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.scif import MapFlag
from repro.sim import us
from repro.vphi import VPhiConfig

KB = 1 << 10
PORT = 24_000
WIN = 64 * KB
FIXED_ROFF = 0x40000
ENDPOINT_COUNTS = (1, 2, 4, 8)
FILL = 0x5A


def spawn_resilient_server(machine, port, size=WIN, fill=FILL):
    """Accept-forever card server re-registering the same window at the
    same fixed offset, so a replayed session finds identical remote
    state (the pattern a restartable card-side daemon would use)."""
    sproc = machine.card_process(f"a11-srv-{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        while True:
            conn, _ = yield from slib.accept(ep)
            yield from slib.register(
                conn, vma.start, size,
                offset=FIXED_ROFF, flags=MapFlag.SCIF_MAP_FIXED,
            )
            if not ready.triggered:
                ready.succeed(FIXED_ROFF)

    machine.sim.spawn(server())
    return ready


def run_scenario(n_endpoints: int):
    """One VM, ``n_endpoints`` full sessions, one CARD_RESET mid-RMA.

    Returns (machine, vm, replayed_ops, rebuild_seconds, sums) where
    sums are the post-recovery per-endpoint read checksums.
    """
    plan = FaultPlan.of(
        FaultSpec(kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=(0,)),
        name="a11",
    )
    machine = Machine(cards=1, fault_plan=plan).boot()
    vm = machine.create_vm(
        "vm0", vphi_config=VPhiConfig(recovery_policy="queue")
    )
    card = machine.card_node_id(0)
    readies = [spawn_resilient_server(machine, PORT + i)
               for i in range(n_endpoints)]
    gproc = vm.guest_process("a11-client")
    glib = vm.vphi.libscif(gproc)

    def client():
        eps, loffs, vmas = [], [], []
        for i, ready in enumerate(readies):
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT + i))
            yield ready
            vma = gproc.address_space.mmap(WIN, populate=True)
            gproc.address_space.write(
                vma.start, np.full(WIN, 0x11, dtype=np.uint8))
            loff = yield from glib.register(ep, vma.start, WIN)
            yield from glib.mmap(ep, FIXED_ROFF, WIN)
            eps.append(ep)
            loffs.append(loff)
            vmas.append(vma)
        # the 0th writeto carries the reset; queue policy replays the
        # whole journal and retries this op against the rebuilt session
        yield from glib.writeto(eps[0], loffs[0], WIN, FIXED_ROFF)
        sums = []
        for ep, loff, vma in zip(eps, loffs, vmas):
            gproc.address_space.write(
                vma.start, np.zeros(WIN, dtype=np.uint8))
            yield from glib.readfrom(ep, loff, WIN, FIXED_ROFF)
            sums.append(int(gproc.address_space.read(vma.start, WIN).sum()))
        return sums

    c = vm.spawn_guest(client())
    machine.run()
    assert c.triggered, "A11 client deadlocked"
    ses = vm.vphi.frontend.session
    assert ses.recoveries == 1 and ses.replay_failures == 0
    return machine, vm, ses.replayed_ops, ses.rebuild_times[0], c.value


def run_session_recovery_ablation():
    return [(n,) + run_scenario(n)[2:] for n in ENDPOINT_COUNTS]


def test_ablation_session_recovery(run_once, golden):
    series = run_once(run_session_recovery_ablation)
    golden("a11", {
        "figure": "a11",
        "unit": "seconds",
        "rebuild_by_replayed_ops": [[ops, t] for _, ops, t, _ in series],
    })

    rows = [[f"{n} sessions", f"{ops}", f"{t / us(1):.1f} us"]
            for n, ops, t, _ in series]
    print_table(
        "Ablation A11: recovery time vs journal size "
        f"(1 CARD_RESET, queue policy, {WIN // KB}KB windows)",
        ["journal", "replayed ops", "rebuild time"], rows)

    # --- zero corruption: the window whose writeto was fenced holds the
    # client's pattern, every untouched window still holds the server's ---
    for n, _, _, sums in series:
        assert sums[0] == 0x11 * WIN, "replayed write lost or torn"
        for s in sums[1:]:
            assert s == FILL * WIN, "rebuilt window returned corrupt data"

    # --- recovery is paid per journaled op: more sessions, bigger
    # journal, strictly longer rebuild ---
    ops = [o for _, o, _, _ in series]
    times = [t for _, _, t, _ in series]
    assert ops == sorted(ops) and len(set(ops)) == len(ops)
    assert times == sorted(times) and len(set(times)) == len(times)
    # each session journals open+connect+register+mmap
    for (n, o, _, _) in series:
        assert o == 4 * n

    # --- the cost model is settle + per-op replay: the marginal cost of
    # one more journaled op stays sub-ms, so even the 8-session rebuild
    # lands well inside the card's own multi-second reset shadow ---
    marginal = (times[-1] - times[0]) / (ops[-1] - ops[0])
    assert marginal < 1e-3, "per-op replay cost left the sub-ms regime"
    assert times[-1] < 50e-3
