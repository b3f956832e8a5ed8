"""Ablation A8: batched ring submission (one kick per batch).

§II-C charges one vmexit per kick.  The paper's prototype kicks the
backend once per request; :meth:`VPhiFrontend.submit_batch` posts a
burst of descriptor chains back-to-back and kicks once per posting
window instead — the same trick the segmented-transfer path uses to
avoid one vmexit per segment.  This ablation quantifies the vmexits
saved on a 16-request burst.
"""

import numpy as np

from conftest import fresh_machine, print_table
from repro.sim import us
from repro.vphi import BatchCall, VPhiOp, spec_for

PORT = 26600
BURST = 16


def run_batching_ablation():
    out = {}
    for label in ("per-request kicks", "one batch"):
        machine = fresh_machine()
        vm = machine.create_vm("vm0")
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("sink"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield from slib.recv(conn, BURST)

        glib = vm.vphi.libscif(vm.guest_process("app"))
        frontend = vm.vphi.frontend
        send_args = spec_for(VPhiOp.SEND).marshal({})

        def opener():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card_node, PORT))
            return ep

        machine.sim.spawn(server())
        p = vm.spawn_guest(opener())
        machine.run()
        ep = p.value
        v = vm.vphi.virtio
        kicks_before = v.kicks
        t0 = machine.sim.now

        if label == "per-request kicks":

            def burst():
                for _ in range(BURST):
                    yield from glib.send(ep, b"\x01")

        else:

            def burst():
                calls = [
                    BatchCall(op=VPhiOp.SEND, handle=ep.handle,
                              args=send_args,
                              out_data=np.ones(1, dtype=np.uint8))
                    for _ in range(BURST)
                ]
                yield from frontend.submit_batch(calls)

        vm.spawn_guest(burst())
        machine.run()
        out[label] = {
            "makespan": machine.sim.now - t0,
            "kicks": v.kicks - kicks_before,
            "requests": frontend.requests,
        }
    return out


def test_ablation_batched_submission(run_once, golden):
    data = run_once(run_batching_ablation)
    golden("a8", {
        "figure": "a8",
        "unit": "mixed",
        "makespan_by_mode": [[label, d["makespan"]] for label, d in data.items()],
        "kicks_by_mode": [[label, d["kicks"]] for label, d in data.items()],
    })

    rows = []
    for label in ("per-request kicks", "one batch"):
        d = data[label]
        rows.append([
            label,
            f"{d['makespan'] / us(1):.0f}",
            f"{d['kicks']}",
            f"{BURST - d['kicks']}",
        ])
    print_table(
        f"A8: {BURST}-request guest send burst, per-request vs batched kicks",
        ["mode", "makespan (us)", "vmexits", "vmexits saved"],
        rows,
    )

    seq, batch = data["per-request kicks"], data["one batch"]
    # the sequential loop traps out once per request
    assert seq["kicks"] == BURST
    # the whole burst fits the default 256-entry ring: exactly one kick
    assert batch["kicks"] == 1
    assert batch["kicks"] < seq["kicks"]
    # batching also amortizes the wait: the burst completes faster than
    # sixteen sequential ring round trips
    assert batch["makespan"] < seq["makespan"]
