"""The SCIF message path's copy rule, natively and through vPHI.

A message is copied on the host at two points only: the guest's
modelled copy into kmalloc bounce chunks (vPHI only), and one snapshot
when ``NativeScif.send`` is entered.  The backend (and the COI daemon's
buffer read) hands ``send`` views of simulated memory and the receiver
gets the queued snapshot itself, so no view may outlive the snapshot:
once ``send`` is entered, the guest may free and reuse the frames
without touching the bytes in flight.  At both points a piece of zeros
is scanned, not copied, and never-written memory stays unmaterialized;
known zeros (views of the shared zero chunk) are not even scanned.
"""

import tracemalloc

import numpy as np
import pytest

from repro import Machine
from repro.coi import COIConnection, start_coi_daemon
from repro.mem import CHUNK_SIZE, zero_bytes
from repro.vphi import VPhiConfig
from repro.workloads.microbench import ClientContext

PORT = 8900
KB = 1 << 10
MB = 1 << 20


def card_receiver(machine, port, sizes, go=None):
    """Card server: accept one connection, then (once ``go`` fires, when
    given) receive one message of each size in order."""
    slib = machine.scif(machine.card_process(f"rx{port}"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        if go is not None:
            yield go
        got = []
        for n in sizes:
            data = yield from slib.recv(conn, n)
            got.append(data)
        return got

    return machine.sim.spawn(server())


def sender(machine, side):
    """The SCIF library and spawn function of a host process (``native``)
    or of a guest process on a ``blocking`` or ``pooled`` vPHI backend."""
    if side == "native":
        return machine.scif(machine.host_process("tx")), machine.sim.spawn
    vm = machine.create_vm("vm0", ram_bytes=256 * MB, vphi_config=VPhiConfig(
        backend_workers=0 if side == "blocking" else 2))
    return vm.vphi.libscif(vm.guest_process("tx")), vm.spawn_guest


@pytest.mark.parametrize("workers", [0, 2], ids=["blocking", "pooled"])
def test_reused_bounce_frames_never_reach_a_message_in_flight(workers):
    """Two equal-size messages, each over several bounce chunks, both sent
    before the card peer receives either: the second one's copy-in lands
    in the first one's freed frames, and both still arrive intact."""
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0", ram_bytes=256 * MB, vphi_config=VPhiConfig(
        chunk_size=64 * KB, backend_workers=workers))
    size = 160 * KB  # three bounce chunks
    rng = np.random.default_rng(21)
    first = rng.integers(0, 256, size, dtype=np.uint8)
    second = rng.integers(0, 256, size, dtype=np.uint8)
    sent = machine.sim.event()
    server = card_receiver(machine, PORT, [size, size], go=sent)
    frames = []
    backend = vm.vphi.backend
    gather = backend.out_payload

    def out_payload(elem):
        frames.append([(d.addr, d.len) for d in elem.out[1:]])
        return gather(elem)

    backend.out_payload = out_payload
    glib = vm.vphi.libscif(vm.guest_process("tx"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), PORT))
        yield from glib.send(ep, first)
        yield from glib.send(ep, second)
        sent.succeed()

    vm.spawn_guest(client())
    machine.run()
    assert len(frames) == 2 and len(frames[0]) >= 2
    assert frames[1] == frames[0]  # the second message reused the frames
    got_first, got_second = server.value
    assert np.array_equal(got_first, first)
    assert np.array_equal(got_second, second)


@pytest.mark.parametrize("workers", [0, 2], ids=["blocking", "pooled"])
def test_all_zero_guest_message_materializes_no_host_memory(workers, reductions):
    """Zeros cost nothing on the way through: the guest's copy-in writes
    no bounce chunk, the backend's views are of the shared zero chunk,
    and the snapshot neither scans nor copies them."""
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0", ram_bytes=256 * MB,
                           vphi_config=VPhiConfig(backend_workers=workers))
    host = vm.ram.root()
    size = 32 * MB
    server = card_receiver(machine, PORT + 3, [size])
    glib = vm.vphi.libscif(vm.guest_process("tx"))
    connected = {}

    def connect():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), PORT + 3))
        connected["ep"] = ep

    def send():
        yield from glib.send(connected["ep"], np.zeros(size, dtype=np.uint8))

    vm.spawn_guest(connect())
    machine.run()
    before = dict(host._chunks)
    vm.spawn_guest(send())
    with reductions() as seen:
        machine.run()
    assert host._chunks == before
    assert seen["_snapshot"] == 0
    (got,) = server.value
    assert len(got) == size and not got.any()


@pytest.mark.parametrize("side", ["native", "blocking", "pooled"])
def test_zero_view_message_is_never_scanned(side, reductions):
    """``zero_bytes`` is known zeros end to end: no numpy reduction, no
    host chunk, and the card still receives every byte."""
    machine = Machine(cards=1).boot()
    size = 32 * MB
    port = PORT + 5
    server = card_receiver(machine, port, [size])
    lib, spawn = sender(machine, side)
    connected = {}

    def connect():
        ep = yield from lib.open()
        yield from lib.connect(ep, (machine.card_node_id(0), port))
        connected["ep"] = ep

    def send():
        yield from lib.send(connected["ep"], zero_bytes(size))

    spawn(connect())
    machine.run()
    before = dict(machine.ram._chunks)
    spawn(send())
    with reductions() as seen:
        machine.run()
    assert not seen
    assert machine.ram._chunks == before
    (got,) = server.value
    assert len(got) == size and not got.any()


@pytest.mark.parametrize("side", ["native", "blocking", "pooled"])
def test_sparse_message_arrives_byte_exact(side):
    """Only the pieces that hold a non-zero byte are copied; bytes on
    both sides of a chunk edge and the last byte all arrive."""
    machine = Machine(cards=1).boot()
    size = 32 * MB
    where = [CHUNK_SIZE - 1, CHUNK_SIZE, size - 1]
    payload = np.zeros(size, dtype=np.uint8)
    payload[where] = [7, 8, 9]
    port = PORT + 4
    server = card_receiver(machine, port, [size])
    lib, spawn = sender(machine, side)

    def client():
        ep = yield from lib.open()
        yield from lib.connect(ep, (machine.card_node_id(0), port))
        yield from lib.send(ep, payload)

    spawn(client())
    machine.run()
    (got,) = server.value
    assert len(got) == size
    assert np.flatnonzero(got).tolist() == where
    assert got[where].tolist() == [7, 8, 9]


def _peak_copies(machine, client_proc, payload, port):
    """Run one send of ``payload`` to a card receiver under tracemalloc and
    return the peak traced allocation in payloads."""
    server = card_receiver(machine, port, [len(payload)])
    client_proc()
    tracemalloc.start()
    try:
        machine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(server.value[0], payload)
    return peak / len(payload)


def test_native_message_takes_one_host_copy():
    machine = Machine(cards=1).boot()
    payload = np.random.default_rng(3).integers(0, 256, 32 * MB, dtype=np.uint8)
    lib = machine.scif(machine.host_process("tx"))

    def client():
        ep = yield from lib.open()
        yield from lib.connect(ep, (machine.card_node_id(0), PORT + 1))
        yield from lib.send(ep, payload)

    copies = _peak_copies(machine, lambda: machine.sim.spawn(client()),
                          payload, PORT + 1)
    assert copies <= 1.1


def test_guest_message_takes_two_host_copies():
    """The guest's copy-in to bounce chunks plus the snapshot at send."""
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0", ram_bytes=256 * MB)
    payload = np.random.default_rng(4).integers(0, 256, 32 * MB, dtype=np.uint8)
    glib = vm.vphi.libscif(vm.guest_process("tx"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), PORT + 2))
        yield from glib.send(ep, payload)

    copies = _peak_copies(machine, lambda: vm.spawn_guest(client()),
                          payload, PORT + 2)
    assert copies <= 2.1


@pytest.mark.parametrize("workers", [0, 2], ids=["blocking", "pooled"])
def test_guest_recv_takes_two_host_copies(workers):
    """Card to guest: of the sender's snapshot, the backend's copy into
    the guest bounce chunks and the guest's modelled copy-out, the host
    holds at most two at once, and the bytes arrive exact."""
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0", ram_bytes=256 * MB,
                           vphi_config=VPhiConfig(backend_workers=workers))
    payload = np.random.default_rng(6).integers(0, 256, 32 * MB, dtype=np.uint8)
    port = PORT + 6
    slib = machine.scif(machine.card_process("tx"))
    glib = vm.vphi.libscif(vm.guest_process("rx"))
    go = machine.sim.event()
    out = {}

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield go
        yield from slib.send(conn, payload)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (machine.card_node_id(0), port))
        yield go
        out["data"] = yield from glib.recv(ep, len(payload))

    machine.sim.spawn(server())
    vm.spawn_guest(client())
    machine.run()
    go.succeed()
    tracemalloc.start()
    try:
        machine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out["data"], payload)
    assert peak / len(payload) <= 2.1


def test_coi_buffer_read_takes_one_host_copy():
    """The daemon hands ``send`` views of the card buffer, not a copy."""
    machine = Machine(cards=1).boot()
    start_coi_daemon(machine, card=0)
    ctx = ClientContext.native(machine)
    payload = np.random.default_rng(5).integers(0, 256, 32 * MB, dtype=np.uint8)
    out = {}

    def client():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        buf = yield from conn.buffer_create(len(payload))
        yield from buf.write(payload)
        tracemalloc.start()
        try:
            out["data"] = yield from buf.read()
            out["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ctx.spawn(client())
    machine.run()
    assert np.array_equal(out["data"], payload)
    assert out["peak"] / len(payload) <= 1.1
