"""vPHI end-to-end: guest SCIF traffic through the whole stack.

These tests drive the complete path of Fig 3: guest libscif -> frontend
driver (kmalloc bounce) -> virtio ring -> kick/vmexit -> QEMU backend ->
host SCIF driver -> PCIe -> card, and back.
"""

import numpy as np
import pytest

from repro.mem import Buffer
from repro.scif import ECONNREFUSED
from repro.sim import us

PORT = 3000
MB = 1 << 20


def card_echo_server(machine, port=PORT, nbytes=4):
    """Spawn a card server that accepts one connection, echoes nbytes."""
    slib = machine.scif(machine.card_process("server"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, peer = yield from slib.accept(ep)
        data = yield from slib.recv(conn, nbytes)
        yield from slib.send(conn, data.tobytes()[::-1])
        return peer

    return machine.sim.spawn(server())


def test_guest_connect_send_recv_roundtrip(machine, vm):
    card_node = machine.card_node_id(0)
    s = card_echo_server(machine, nbytes=4)
    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        yield from glib.send(ep, b"abcd")
        resp = yield from glib.recv(ep, 4)
        yield from glib.close(ep)
        return resp.tobytes()

    c = vm.spawn_guest(client())
    machine.run()
    assert c.value == b"dcba"
    # the connection originated from the host node (QEMU is a host process)
    assert s.value[0] == 0


def test_one_byte_latency_anchor_382us(machine, vm):
    """Fig 4 anchor: vPHI 1-byte send completes in ~382 us (vs 7 native)."""
    card_node = machine.card_node_id(0)
    slib = machine.scif(machine.card_process("server"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield from slib.recv(conn, 1)

    glib = vm.vphi.libscif(vm.guest_process("bench"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        t0 = machine.sim.now
        yield from glib.send(ep, b"\x01")
        return machine.sim.now - t0

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    assert c.value == pytest.approx(us(382), rel=0.01)


def test_overhead_breakdown_93_percent_wait_scheme(machine, vm):
    """§IV-B: ~93% of the +375 us overhead is the frontend wait scheme."""
    card_node = machine.card_node_id(0)
    slib = machine.scif(machine.card_process("server"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield from slib.recv(conn, 1)

    glib = vm.vphi.libscif(vm.guest_process("bench"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        t0 = machine.sim.now
        yield from glib.send(ep, b"\x01")
        return machine.sim.now - t0

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    total = c.value
    # the send's span: its guest_wake phase is the sleep/wake-up scheme
    send = vm.tracer.spans[-1]
    assert send.op == "send"
    wait = send.phase_durations()["guest_wake"]
    overhead = total - us(7)
    assert overhead == pytest.approx(us(375), rel=0.01)
    assert wait / overhead == pytest.approx(0.93, abs=0.01)


def test_large_send_is_chunked_at_kmalloc_limit(machine, vm):
    """A 10 MB transfer crosses the ring as 3 bounce chunks (4+4+2 MB)."""
    card_node = machine.card_node_id(0)
    size = 10 * MB
    payload = Buffer.pattern(size, seed=5)
    slib = machine.scif(machine.card_process("server"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        data = yield from slib.recv(conn, size)
        return data

    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        yield from glib.send(ep, payload)

    s = machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    assert np.array_equal(s.value, payload.data)
    # no bounce chunk exceeded KMALLOC_MAX_SIZE and none leaked
    assert vm.guest_kernel.kmalloc.live == 0
    assert vm.guest_kernel.kmalloc.total_allocs >= 3


def test_error_propagates_through_the_ring(machine, vm):
    card_node = machine.card_node_id(0)
    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        with pytest.raises(ECONNREFUSED):
            yield from glib.connect(ep, (card_node, 5999))  # nobody listens
        return True

    c = vm.spawn_guest(client())
    machine.run()
    assert c.value is True
    assert vm.vphi.backend.errors_returned == 1
    # bounce buffers were reclaimed despite the error
    assert vm.guest_kernel.kmalloc.live == 0


def test_backend_endpoint_is_host_process(machine, vm):
    """The accepted peer address proves the request came from QEMU (host
    node 0), not from some guest-visible node — §III's sharing argument."""
    card_node = machine.card_node_id(0)
    s = card_echo_server(machine, nbytes=1)
    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        yield from glib.send(ep, b"x")
        yield from glib.recv(ep, 1)

    vm.spawn_guest(client())
    machine.run()
    assert s.value[0] == 0
    backend_ep = list(vm.vphi.backend.endpoints.values())[0]
    assert backend_ep.owner == f"qemu-{vm.name}"


def test_guest_sysfs_mirrors_host_mic_tree(machine, vm):
    """§III: vPHI exposes the same card info inside the guest so
    micnativeloadex & friends work unmodified."""
    gs = vm.guest_kernel.sysfs
    assert gs.read("sys/class/mic/mic0/family") == "x100"
    assert gs.read("sys/class/mic/mic0/version") == "3120P"
    assert gs.read("sys/class/mic/mic0/state") == "online"


def test_same_client_code_runs_native_and_virtualized(machine, vm):
    """The binary-compatibility rendering: one client body, two stacks."""
    card_node = machine.card_node_id(0)

    def make_server(port):
        slib = machine.scif(machine.card_process(f"srv{port}"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, port)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            data = yield from slib.recv(conn, 5)
            yield from slib.send(conn, data)

        machine.sim.spawn(server())

    def client_body(lib, port):
        """Written once against the SCIF API; lib may be native or guest."""
        ep = yield from lib.open()
        yield from lib.connect(ep, (card_node, port))
        yield from lib.send(ep, b"hello")
        echo = yield from lib.recv(ep, 5)
        yield from lib.close(ep)
        return echo.tobytes()

    make_server(PORT)
    make_server(PORT + 1)
    native_lib = machine.scif(machine.host_process("native-client"))
    guest_lib = vm.vphi.libscif(vm.guest_process("guest-client"))
    n = machine.sim.spawn(client_body(native_lib, PORT))
    g = vm.spawn_guest(client_body(guest_lib, PORT + 1))
    machine.run()
    assert n.value == b"hello"
    assert g.value == b"hello"


def test_vm_frozen_during_blocking_request(machine, vm):
    """§III blocking mode: while the backend services a (blocking) SEND,
    other guest threads make no progress."""
    card_node = machine.card_node_id(0)
    card_echo_server(machine, nbytes=1)
    glib = vm.vphi.libscif(vm.guest_process("app"))
    ticks = []

    def other_guest_thread():
        # one 20us sleep: its wakeup lands inside the backend's blocking
        # window (which opens ~10us after submit and lasts ~13us), so the
        # resumption is deferred until the VM unfreezes.
        t0 = machine.sim.now
        yield machine.sim.timeout(us(20))
        ticks.append(machine.sim.now - t0)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        vm.spawn_guest(other_guest_thread())
        yield from glib.send(ep, b"x")
        yield from glib.recv(ep, 1)

    vm.spawn_guest(client())
    machine.run()
    assert vm.domain.paused_time > 0
    # the 20us timer was stretched by the freeze
    assert ticks[0] > us(20.5)
