"""Ablation A7: EVENT_IDX-style notification suppression.

§II-C's transport charges one vmexit per kick and one injection per
interrupt.  The standard virtio optimization (suppress notifications
while the peer is already active) was not in the paper's prototype; this
ablation measures what it would have saved on bursty traffic.
"""

import pytest

from conftest import fresh_machine, print_table
from repro.sim import us
from repro.vphi import VPhiConfig

PORT = 26500
BURST = 64


def run_notification_ablation():
    out = {}
    for label, cfg in (
        ("plain", VPhiConfig()),
        ("suppressed", VPhiConfig(suppress_notifications=True)),
    ):
        machine = fresh_machine()
        vm = machine.create_vm("vm0", vphi_config=cfg)
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("sink"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield from slib.recv(conn, BURST)

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

        def sender():
            yield from glib.send(ep, b"\x01")
            done.append(machine.sim.now)

        for _ in range(BURST):
            vm.spawn_guest(sender())
        machine.run()
        v = vm.vphi.virtio
        out[label] = {
            "makespan": max(done) - t0,
            "kicks": v.kicks,
            "suppressed_kicks": v.suppressed_kicks,
            "irqs": v.interrupts,
            "suppressed_irqs": v.suppressed_irqs,
        }
    return out


def test_ablation_notification_suppression(run_once, golden):
    data = run_once(run_notification_ablation)
    golden("a7", {"figure": "a7", "unit": "mixed", **data})

    rows = []
    for label in ("plain", "suppressed"):
        d = data[label]
        rows.append([
            label,
            f"{d['makespan'] / us(1):.0f}",
            f"{d['kicks']}",
            f"{d['suppressed_kicks']}",
            f"{d['irqs']}",
            f"{d['suppressed_irqs']}",
        ])
    print_table(
        f"A7: {BURST} concurrent 1B guest sends, notification suppression",
        ["mode", "makespan (us)", "vmexits", "kicks saved", "irqs", "irqs saved"],
        rows,
    )

    plain, supp = data["plain"], data["suppressed"]
    # every request trapped out without suppression
    assert plain["kicks"] >= BURST
    # suppression folds the burst into a handful of vmexits
    assert supp["kicks"] + supp["suppressed_kicks"] >= BURST
    assert supp["kicks"] < plain["kicks"] / 2
    # makespan is a wash: the blocking backend, not notification cost,
    # bounds the burst (interrupt coalescing can defer the odd wakeup)
    assert supp["makespan"] == pytest.approx(plain["makespan"], rel=0.05)
