"""Wait schemes: interrupt vs polling vs hybrid (paper §III + future work)."""

import pytest

from repro.vphi import VPhiConfig, WaitMode, chunk_plan
from repro.vphi.wait import HYBRID_THRESHOLD, POLL_CPU_KEY
from repro.sim import us

PORT = 3200
MB = 1 << 20


def measure_send_latency(machine, vm, nbytes=1, port=PORT):
    """1-shot guest send latency against a card sink server."""
    card_node = machine.card_node_id(0)
    slib = machine.scif(machine.card_process(f"server{port}"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield from slib.recv(conn, nbytes)

    glib = vm.vphi.libscif(vm.guest_process("bench"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, port))
        t0 = machine.sim.now
        yield from glib.send(ep, bytes(nbytes))
        return machine.sim.now - t0

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    return c.value


def test_polling_mode_near_native_latency(machine):
    """Ablation A1: polling strips the 349us wait-scheme cost; latency
    falls to the ~33us of the remaining virtualization plumbing."""
    vm = machine.create_vm("vm-poll", vphi_config=VPhiConfig(wait_mode=WaitMode.POLLING))
    lat = measure_send_latency(machine, vm)
    assert lat < us(40)
    assert vm.vphi.frontend.tracer.accumulators[POLL_CPU_KEY] > 0


def test_interrupt_mode_pays_wait_scheme(machine):
    vm = machine.create_vm("vm-intr", vphi_config=VPhiConfig(wait_mode=WaitMode.INTERRUPT))
    lat = measure_send_latency(machine, vm)
    assert lat == pytest.approx(us(382), rel=0.01)


def test_lost_watchdogs_do_not_hold_the_run_open(machine):
    """op_timeout races each blocking op's response against a watchdog;
    once the response wins, the watchdog is dropped, so the run ends with
    the traffic rather than op_timeout later."""
    vm = machine.create_vm("vm-wd", vphi_config=VPhiConfig(op_timeout=5.0))
    lat = measure_send_latency(machine, vm)
    assert lat == pytest.approx(us(382), rel=0.01)
    assert machine.sim.now < 1.0


def test_hybrid_polls_small_sleeps_large(machine):
    """The paper's future-work hybrid: small transfers get polling's
    latency, large ones keep the interrupt scheme."""
    assert 1 < HYBRID_THRESHOLD <= 64 * 1024
    vm = machine.create_vm("vm-hyb", vphi_config=VPhiConfig(wait_mode=WaitMode.HYBRID))
    small = measure_send_latency(machine, vm, nbytes=1, port=PORT)
    large = measure_send_latency(machine, vm, nbytes=64 * 1024, port=PORT + 1)
    assert small < us(40)  # polled
    # large: interrupt scheme (>= the 349us wakeup) + streaming time
    assert large > us(370)


def test_polling_burns_cpu_interrupt_does_not(machine):
    vm_p = machine.create_vm("vm-p", vphi_config=VPhiConfig(wait_mode=WaitMode.POLLING))
    vm_i = machine.create_vm("vm-i", vphi_config=VPhiConfig(wait_mode=WaitMode.INTERRUPT))
    measure_send_latency(machine, vm_p, port=PORT)
    measure_send_latency(machine, vm_i, port=PORT + 1)
    poll_cpu_p = vm_p.vphi.frontend.tracer.accumulators.get(POLL_CPU_KEY, 0)
    poll_cpu_i = vm_i.vphi.frontend.tracer.accumulators.get(POLL_CPU_KEY, 0)
    assert poll_cpu_p > 0
    assert poll_cpu_i == 0


def test_unknown_wait_mode_rejected():
    with pytest.raises(ValueError):
        VPhiConfig(wait_mode="psychic")


def test_chunk_plan_properties():
    assert chunk_plan(0) == []
    assert chunk_plan(1) == [1]
    assert chunk_plan(10 * MB) == [4 * MB, 4 * MB, 2 * MB]
    assert sum(chunk_plan(12345678)) == 12345678
    with pytest.raises(ValueError):
        chunk_plan(-1)
    with pytest.raises(ValueError):
        chunk_plan(10, chunk_size=0)


def test_config_validation():
    with pytest.raises(ValueError):
        VPhiConfig(chunk_size=0)
    with pytest.raises(ValueError):
        VPhiConfig(chunk_size=8 * MB)  # above KMALLOC_MAX_SIZE
