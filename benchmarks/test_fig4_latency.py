"""Figure 4: send-receive communication latency, native vs vPHI.

Paper anchors: 7 us native @ 1 B; 382 us through vPHI; the gap is a
constant ~375 us offset across sizes, 93 % of it attributed to the
frontend driver's sleep/wake-up scheme (§IV-B breakdown).
"""

import pytest

from conftest import fmt_size, fresh_machine, print_table
from repro.analysis import span_breakdown
from repro.sim import us
from repro.workloads import ClientContext, sendrecv_latency

SIZES = [1, 64, 256, 1024, 4096, 16384, 65536]


def run_fig4():
    machine = fresh_machine()
    native = sendrecv_latency(machine, ClientContext.native(machine), SIZES)

    machine2 = fresh_machine()
    vm = machine2.create_vm("vm0")
    vphi = sendrecv_latency(machine2, ClientContext.guest(vm), SIZES)
    # every forwarded op (open/connect/sends/close) pays the wait scheme
    # exactly once, in its span's guest_wake phase; the per-request cost
    # is the §IV-B breakdown quantity.
    per_op = span_breakdown(vm.tracer)
    wait_per_request = (sum(bd.phases.get("guest_wake", 0.0)
                            for bd in per_op.values())
                        / sum(bd.count for bd in per_op.values()))
    return native, vphi, wait_per_request


def test_fig4_send_receive_latency(run_once):
    native, vphi, wait_per_request = run_once(run_fig4)

    rows = []
    gaps = []
    for (size, nl), (_, vl) in zip(native, vphi):
        gaps.append(vl - nl)
        rows.append(
            [fmt_size(size), f"{nl / us(1):.1f}", f"{vl / us(1):.1f}",
             f"{(vl - nl) / us(1):.1f}"]
        )
    print_table(
        "Fig 4: send-receive latency (us)",
        ["size", "native", "vPHI", "overhead"],
        rows,
    )
    print(f"breakdown: wait-scheme share of overhead = "
          f"{wait_per_request / gaps[0]:.1%} (paper: 93%)")

    # --- anchors ---
    assert native[0][1] == pytest.approx(us(7), rel=0.02)
    assert vphi[0][1] == pytest.approx(us(382), rel=0.01)
    # --- shape: the overhead is a (nearly) constant offset ---
    assert max(gaps) - min(gaps) < 0.05 * gaps[0]
    # --- breakdown: ~93% of the overhead is the wait scheme ---
    assert wait_per_request / gaps[0] == pytest.approx(0.93, abs=0.01)
    # --- both series increase with size ---
    assert all(b >= a for a, b in zip([l for _, l in native], [l for _, l in native][1:]))
    assert all(b >= a for a, b in zip([l for _, l in vphi], [l for _, l in vphi][1:]))
