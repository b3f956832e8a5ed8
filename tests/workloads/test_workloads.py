"""Workload models: dgemm math, microbench helpers, offload registry."""

import pytest
from hypothesis import given, strategies as st

from repro import Machine
from repro.sim import SimError, us
from repro.workloads import (
    ClientContext,
    MKL_EFFICIENCY,
    dgemm_flops,
    input_bytes,
    problem_size_for_input_bytes,
    rma_read_throughput,
    sendrecv_latency,
)

MB = 1 << 20


@pytest.fixture
def machine():
    return Machine(cards=1).boot()


class TestDgemmMath:
    def test_flops(self):
        assert dgemm_flops(2, 3, 4) == 48.0
        assert dgemm_flops(1000, 1000, 1000) == 2e9

    def test_input_bytes(self):
        assert input_bytes(1000) == 16_000_000

    @given(st.integers(min_value=16, max_value=20000))
    def test_size_roundtrip(self, n):
        assert problem_size_for_input_bytes(input_bytes(n)) == n

    def test_mkl_efficiency_sane(self):
        assert 0.5 < MKL_EFFICIENCY <= 1.0


class TestMicrobenchHelpers:
    def test_sendrecv_latency_native_anchor(self, machine):
        ctx = ClientContext.native(machine)
        results = sendrecv_latency(machine, ctx, [1, 1024])
        sizes = [s for s, _ in results]
        lats = [l for _, l in results]
        assert sizes == [1, 1024]
        assert lats[0] == pytest.approx(us(7), rel=0.02)
        assert lats[1] > lats[0]

    def test_sendrecv_latency_guest(self, machine):
        vm = machine.create_vm("vm0")
        ctx = ClientContext.guest(vm)
        results = sendrecv_latency(machine, ctx, [1])
        assert results[0][1] == pytest.approx(us(382), rel=0.01)

    def test_rma_throughput_native_anchor(self, machine):
        ctx = ClientContext.native(machine)
        results = rma_read_throughput(machine, ctx, [256 * MB])
        assert results[0][1] == pytest.approx(6.4e9, rel=0.01)

    def test_rma_throughput_monotone_in_size(self, machine):
        """Fig 5 shape: throughput ramps with transfer size."""
        ctx = ClientContext.native(machine)
        results = rma_read_throughput(machine, ctx, [64 * 1024, MB, 16 * MB])
        bws = [bw for _, bw in results]
        assert bws[0] < bws[1] < bws[2]

    def test_rma_throughput_sees_a_misplaced_page(self, machine):
        """A read served from the wrong window offset fails the sweep."""

        class ShiftedReads:
            """libscif whose reads under 1 MiB land one page too far in."""

            def __init__(self, lib):
                self.lib = lib

            def __getattr__(self, name):
                return getattr(self.lib, name)

            def vreadfrom(self, ep, addr, size, roff, *args):
                shift = 4096 if size < MB else 0
                return self.lib.vreadfrom(ep, addr, size, roff + shift, *args)

        native = ClientContext.native(machine)
        ctx = ClientContext(ShiftedReads(native.lib), native.process,
                            native.spawn, native.label)
        with pytest.raises(SimError, match="RMA payload corrupted: 65536-byte read, page at 0"):
            rma_read_throughput(machine, ctx, [64 * 1024, 2 * MB])

    def test_contexts_have_labels(self, machine):
        vm = machine.create_vm("vm0")
        assert ClientContext.native(machine).label == "native"
        assert ClientContext.guest(vm).label == "vphi"
