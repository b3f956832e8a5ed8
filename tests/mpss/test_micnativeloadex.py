"""micnativeloadex + micinfo: the native-mode launch path (§IV-C)."""

import zlib

import pytest

from repro import Machine
from repro.coi import start_coi_daemon
from repro.mpss import MicToolError, micinfo, micnativeloadex
from repro.mpss.binaries import MICBinary
from repro.workloads import DGEMM_BINARY
from repro.workloads.microbench import ClientContext

MB = 1 << 20


@pytest.fixture
def machine():
    m = Machine(cards=1).boot()
    start_coi_daemon(m, card=0)
    return m


def launch(machine, ctx, argv, **kw):
    p = ctx.spawn(micnativeloadex(machine, ctx, DGEMM_BINARY, argv=argv, **kw))
    machine.run()
    return p.value


def test_binary_checksum_draws_the_image_once():
    """Every launch verifies the image against the binary's checksum; the
    1 MiB image is drawn for that once per binary, while content() still
    hands each caller a fresh writable copy."""
    binary = MICBinary(name="crc-probe", size=MB, entry=None)
    draw = binary.content
    draws = []
    binary.content = lambda: draws.append(1) or draw()
    expected = zlib.crc32(draw())
    assert binary.checksum() == binary.checksum() == expected
    assert len(draws) == 1
    mine, theirs = draw(), draw()
    mine[0] ^= 0xFF
    assert theirs[0] != mine[0]


def test_native_launch_runs_dgemm_and_verifies(machine):
    ctx = ClientContext.native(machine)
    res = launch(machine, ctx, ["128", "112"])
    assert res.status == 0
    assert res.exit_record["c_checksum"] == pytest.approx(res.exit_record["c_expected"])
    assert res.transferred_bytes == DGEMM_BINARY.total_transfer_bytes
    assert res.total_time > res.compute_time > 0


def test_guest_launch_through_vphi(machine):
    """The §IV-C experiment: the identical tool code runs inside the VM,
    reading the vPHI-mirrored sysfs and talking SCIF through the ring."""
    vm = machine.create_vm("vm0")
    ctx = ClientContext.guest(vm)
    res = launch(machine, ctx, ["128", "112"])
    assert res.status == 0
    assert res.exit_record["c_checksum"] == pytest.approx(res.exit_record["c_expected"])
    assert vm.vphi.frontend.requests > 0  # it really went through the ring


def test_vphi_overhead_amortized_for_long_runs(machine):
    """§IV-C conclusion: launch+execute overhead is amortized when compute
    dominates; visible when it does not."""
    vm = machine.create_vm("vm0")
    # small problem: launch dominated by transfer + vPHI overhead
    small_native = launch(machine, ClientContext.native(machine, "n1"), ["512", "112"])
    small_guest = launch(machine, ClientContext.guest(vm, "g1"), ["512", "112"])
    # big problem: compute dominates
    big_native = launch(machine, ClientContext.native(machine, "n2"), ["8000", "112"])
    big_guest = launch(machine, ClientContext.guest(vm, "g2"), ["8000", "112"])
    small_ratio = small_guest.total_time / small_native.total_time
    big_ratio = big_guest.total_time / big_native.total_time
    assert small_ratio > big_ratio
    assert big_ratio < 1.05  # <5% overhead once compute dominates
    assert small_ratio > 1.05


def test_compute_time_identical_native_vs_vphi(machine):
    """§IV-C: "we observed no performance degradation for the vPHI
    compared to the host concerning actual execution time on the device"."""
    vm = machine.create_vm("vm0")
    rn = launch(machine, ClientContext.native(machine, "n"), ["4000", "224"])
    rg = launch(machine, ClientContext.guest(vm, "g"), ["4000", "224"])
    assert rg.compute_time == pytest.approx(rn.compute_time, rel=1e-6)


def test_more_threads_run_faster(machine):
    """The Figs 6-8 thread axis: 56 -> 112 -> 224 threads shrink compute."""
    ctx = ClientContext.native(machine)
    times = {}
    for threads in (56, 112, 224):
        res = launch(machine, ClientContext.native(machine, f"t{threads}"),
                     ["4000", str(threads)])
        times[threads] = res.compute_time
    assert times[56] > times[112] > times[224]


def test_tool_refuses_offline_card(machine):
    ctx = ClientContext.native(machine)
    machine.devices[0].state = type(machine.devices[0].state).SHUTDOWN

    def body():
        with pytest.raises(MicToolError, match="not online"):
            yield from micnativeloadex(machine, ctx, DGEMM_BINARY, argv=["64", "56"])
        return True

    p = machine.sim.spawn(body())
    machine.run()
    assert p.value is True


def test_micinfo_renders_card_report(machine):
    report = micinfo(machine.kernel.sysfs, cards=1)
    assert "mic0" in report
    assert "3120P" in report
    assert "x100" in report
    assert "57" in report


def test_micinfo_inside_guest_matches_host(machine):
    vm = machine.create_vm("vm0")
    host_report = micinfo(machine.kernel.sysfs, cards=1)
    guest_report = micinfo(vm.guest_kernel.sysfs, cards=1)
    assert guest_report == host_report
