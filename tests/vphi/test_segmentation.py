"""Multi-segment requests: transfers larger than the ring's capacity are
split into sequential submissions with correctly advancing RMA offsets."""

import numpy as np
import pytest

from repro import Machine

MB = 1 << 20
PORT = 9990


@pytest.fixture
def small_ring_vm():
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0")
    # ring of 8 -> max 4 data descriptors -> 16MB max per submission
    vm.vphi.virtio.ring.__init__(8)
    return machine, vm


def test_vreadfrom_spanning_multiple_segments(small_ring_vm):
    machine, vm = small_ring_vm
    size = 40 * MB  # 3 segments: 16 + 16 + 8
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        # position-dependent content so any offset slip is detectable
        content = (np.arange(size, dtype=np.int64) % 251).astype(np.uint8)
        sproc.address_space.write(vma.start, content)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed((roff, content))
        yield from slib.recv(conn, 1)

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff, content = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        reqs_before = vm.vphi.frontend.requests
        n = yield from glib.vreadfrom(ep, vma.start, size, roff)
        segments = vm.vphi.frontend.requests - reqs_before
        got = gproc.address_space.read(vma.start, size)
        yield from glib.send(ep, b"x")
        return n, segments, got, content

    machine.sim.spawn(server())
    c = vm.spawn_guest(client())
    machine.run()
    n, segments, got, content = c.value
    assert n == size
    assert segments == 3  # 16 + 16 + 8 MB
    assert np.array_equal(got, content)
    assert vm.guest_kernel.kmalloc.live == 0


def test_vwriteto_spanning_multiple_segments(small_ring_vm):
    machine, vm = small_ring_vm
    size = 24 * MB  # 2 segments
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("srv")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)
        return sproc.address_space.read(vma.start, size)

    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    payload = (np.arange(size, dtype=np.int64) % 241).astype(np.uint8)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (card_node, PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(size, populate=True)
        gproc.address_space.write(vma.start, payload)
        yield from glib.vwriteto(ep, vma.start, size, roff)
        yield from glib.send(ep, b"x")

    s = machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    assert np.array_equal(s.value, payload)

