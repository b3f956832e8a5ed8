"""Ablation A1: frontend wait scheme — interrupt vs polling vs hybrid.

§III picks the interrupt scheme; §IV-B measures it at 93 % of the
overhead and proposes a hybrid as future work.  This bench quantifies
all three: latency per size, plus the vCPU time polling burns (the cost
that motivated the paper's choice).
"""

import pytest

from conftest import fmt_size, fresh_machine, print_table
from repro.sim import us
from repro.vphi import VPhiConfig, WaitMode
from repro.vphi.wait import POLL_CPU_KEY
from repro.workloads import ClientContext, sendrecv_latency

SIZES = [1, 1024, 16384, 65536, 262144]


def run_wait_ablation():
    out = {}
    for mode in (WaitMode.INTERRUPT, WaitMode.POLLING, WaitMode.HYBRID):
        machine = fresh_machine()
        vm = machine.create_vm("vm0", vphi_config=VPhiConfig(wait_mode=mode))
        series = sendrecv_latency(machine, ClientContext.guest(vm), SIZES)
        poll_cpu = vm.vphi.frontend.tracer.accumulators.get(POLL_CPU_KEY, 0.0)
        out[mode] = (series, poll_cpu)
    return out


def test_ablation_wait_scheme(run_once, golden):
    data = run_once(run_wait_ablation)
    golden("a1", {
        "figure": "a1",
        "unit": "seconds",
        "latency_by_mode": [[mode, [[s, t] for s, t in series]]
                            for mode, (series, _) in data.items()],
        "poll_cpu_by_mode": [[mode, cpu] for mode, (_, cpu) in data.items()],
    })

    rows = []
    for i, size in enumerate(SIZES):
        rows.append([
            fmt_size(size),
            f"{data[WaitMode.INTERRUPT][0][i][1] / us(1):.1f}",
            f"{data[WaitMode.POLLING][0][i][1] / us(1):.1f}",
            f"{data[WaitMode.HYBRID][0][i][1] / us(1):.1f}",
        ])
    print_table(
        "A1: guest send latency by wait scheme (us)",
        ["size", "interrupt", "polling", "hybrid"],
        rows,
    )
    for mode, (series, poll_cpu) in data.items():
        print(f"  {mode}: vCPU burned polling = {poll_cpu / us(1):.1f} us")

    intr = dict(data[WaitMode.INTERRUPT][0])
    poll = dict(data[WaitMode.POLLING][0])
    hyb = dict(data[WaitMode.HYBRID][0])
    # polling strips the ~349us wakeup everywhere
    for size in SIZES:
        assert poll[size] < intr[size] - us(300)
    # hybrid == polling-like below the threshold, interrupt-like above
    assert hyb[1] == pytest.approx(poll[1], rel=0.2)
    assert hyb[262144] == pytest.approx(intr[262144], rel=0.05)
    # but polling costs vCPU time; the interrupt scheme costs none
    assert data[WaitMode.POLLING][1] > 0
    assert data[WaitMode.INTERRUPT][1] == 0
