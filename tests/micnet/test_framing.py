"""mic0 framing details: MTU segmentation, bridge hop, byte accounting."""

import numpy as np
import pytest

from repro import Machine
from repro.micnet import MicNetwork, NetBridge, NetSocket
from repro.micnet.stack import FRAME_COST, MTU
from repro.scif import EINVAL


@pytest.fixture
def machine():
    return Machine(cards=1).boot()


@pytest.fixture
def network(machine):
    return MicNetwork(machine)


def test_send_segments_at_the_mtu(machine, network, scif_sends):
    """A 3.5-MTU payload crosses as 4 frames (visible in the frame-cost
    time and in the SCIF send count)."""
    size = 3 * MTU + MTU // 2
    sproc = machine.card_process("sink")
    slib = machine.scif(sproc)

    def server():
        listener = NetSocket(network, slib)
        yield from listener.bind_listen(6100)
        sock, _ = yield from listener.accept()
        yield from sock.recv(size)

    cproc = machine.host_process("cli")
    clib = machine.scif(cproc)

    def client():
        sock = NetSocket(network, clib)
        yield from sock.connect("172.31.0.1", 6100)
        sends_before = len(scif_sends)
        t0 = machine.sim.now
        yield from sock.send(np.zeros(size, dtype=np.uint8))
        dt = machine.sim.now - t0
        frames = len(scif_sends) - sends_before
        return frames, dt

    machine.sim.spawn(server())
    c = machine.sim.spawn(client())
    machine.run()
    frames, dt = c.value
    assert frames == 4
    assert dt >= 4 * FRAME_COST


def test_socket_accounting(machine, network):
    sproc = machine.card_process("sink")
    slib = machine.scif(sproc)

    def server():
        listener = NetSocket(network, slib)
        yield from listener.bind_listen(6101)
        sock, _ = yield from listener.accept()
        data = yield from sock.recv(1000)
        yield from sock.send(data)
        return sock.bytes_received, sock.bytes_sent

    cproc = machine.host_process("cli")
    clib = machine.scif(cproc)

    def client():
        sock = NetSocket(network, clib)
        yield from sock.connect("172.31.0.1", 6101)
        yield from sock.send(bytes(1000))
        yield from sock.recv(1000)
        return sock.bytes_sent, sock.bytes_received

    s = machine.sim.spawn(server())
    c = machine.sim.spawn(client())
    machine.run()
    assert s.value == (1000, 1000)
    assert c.value == (1000, 1000)


def test_bad_tcp_port_rejected(machine, network):
    slib = machine.scif(machine.card_process("p"))

    def body():
        sock = NetSocket(network, slib)
        with pytest.raises(EINVAL):
            yield from sock.bind_listen(0)
        with pytest.raises(EINVAL):
            yield from sock.bind_listen(70000)
        return True

    p = machine.sim.spawn(body())
    machine.run()
    assert p.value is True


def test_bridged_socket_pays_the_extra_hop(machine, network):
    """Bridge latency: the same 1-byte exchange is slower from a bridged
    VM socket than from a host socket."""
    vm = machine.create_vm("vm0")
    bridge = NetBridge(machine, vm, network)
    sproc = machine.card_process("sink")
    slib = machine.scif(sproc)

    def echo_server(port):
        def body():
            listener = NetSocket(network, slib)
            yield from listener.bind_listen(port)
            sock, _ = yield from listener.accept()
            data = yield from sock.recv(1)
            yield from sock.send(data)

        machine.sim.spawn(body())

    echo_server(6102)
    echo_server(6103)
    hlib = machine.scif(machine.host_process("hostcli"))

    def timed_roundtrip(sock, port):
        yield from sock.connect("172.31.0.1", port)
        t0 = machine.sim.now
        yield from sock.send(b"\x01")
        yield from sock.recv(1)
        return machine.sim.now - t0

    h = machine.sim.spawn(timed_roundtrip(NetSocket(network, hlib), 6102))
    b = machine.sim.spawn(timed_roundtrip(bridge.socket(), 6103))
    machine.run()
    assert b.value > h.value


def test_vm_gets_an_address_on_the_bridge(machine, network):
    vm = machine.create_vm("vm0")
    bridge = NetBridge(machine, vm, network)
    assert bridge.vm_ip.startswith("172.31.0.")
    assert network.resolve(bridge.vm_ip) == 0  # reachable via the host node
