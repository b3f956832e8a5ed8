"""The breakdown analysis reproduces §IV-B's 93% attribution from spans."""

import pytest

from repro import Machine
from repro.analysis import SCIF_COSTS, span_breakdown
from repro.analysis.breakdown import (
    BREAKDOWN_ROWS,
    overhead_breakdown,
    render_breakdown,
)
from repro.sim import us
from repro.vphi import VPhiConfig
from repro.vphi.ops import SPAN_PHASE_ORDER
from repro.workloads import ClientContext, sendrecv_latency


@pytest.fixture(scope="module")
def loaded_frontend():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0")
    sendrecv_latency(machine, ClientContext.guest(vm), [1, 1, 1, 1])
    return vm.vphi.frontend


def test_wait_scheme_dominates_at_93_percent(loaded_frontend):
    shares = overhead_breakdown(loaded_frontend)
    top = shares[0]
    assert top.phase == "sleep/wake-up scheme"
    assert top.share_of_overhead == pytest.approx(0.93, abs=0.01)
    assert top.per_request == pytest.approx(us(348.75), rel=0.01)


def test_phases_sum_to_the_fig4_overhead(loaded_frontend):
    shares = overhead_breakdown(loaded_frontend)
    total = sum(p.per_request for p in shares)
    assert total == pytest.approx(us(375), rel=0.02)
    assert sum(p.share_of_overhead for p in shares) == pytest.approx(1.0)


def test_render_is_readable(loaded_frontend):
    text = render_breakdown(loaded_frontend)
    assert "sleep/wake-up scheme" in text
    assert "93" in text  # the paper's headline number appears
    assert "total overhead" in text


def test_empty_frontend_yields_nothing():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm-quiet")
    assert overhead_breakdown(vm.vphi.frontend) == []


def test_rows_are_per_request_span_phase_sums(loaded_frontend):
    """Each row is the per-request sum of its span phases; the backend
    row is net of the native control-plane floor."""
    per_op = span_breakdown(loaded_frontend.tracer)
    n = sum(bd.count for bd in per_op.values())
    assert n == loaded_frontend.requests  # one span per forwarded request

    def per_request(*phases):
        return sum(bd.phases.get(p, 0.0)
                   for bd in per_op.values() for p in phases) / n

    rows = {p.phase: p.per_request for p in overhead_breakdown(loaded_frontend)}
    assert rows == {
        "frontend driver (marshalling)": pytest.approx(per_request("marshal")),
        "user<->kernel copies": pytest.approx(per_request("copy_in", "copy_out")),
        "virtio kick (vmexit)": pytest.approx(per_request("kick")),
        "sleep/wake-up scheme": pytest.approx(per_request("guest_wake")),
        "backend + host syscall + irq": pytest.approx(
            per_request("ring", "credit_wait", "backend_pop", "host_call",
                        "completion_push", "irq_deliver")
            - SCIF_COSTS.one_byte_latency),
        "response demux + return": pytest.approx(per_request("guest_return")),
    }
    # a row naming a phase the datapath never stamps would read as zero
    assert {p for _, phases in BREAKDOWN_ROWS for p in phases} <= set(SPAN_PHASE_ORDER)


def test_spans_off_yields_nothing():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0", vphi_config=VPhiConfig(trace_spans=False))
    sendrecv_latency(machine, ClientContext.guest(vm), [1])
    assert vm.vphi.frontend.requests > 0
    assert overhead_breakdown(vm.vphi.frontend) == []
