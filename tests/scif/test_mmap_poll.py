"""scif_mmap (direct loads/stores to card memory) and scif_poll."""

import numpy as np
import pytest

from repro.mem import PAGE_SIZE, VMAFlag
from repro.scif import EINVAL, PollEvent
from repro.sim import ms

PORT = 2300
MB = 1 << 20


def serve_window(machine, size, fill=0xC3, port=PORT):
    """Card server registering a window; returns (card_node, clib, cproc, ready)."""
    card_node = machine.card_node_id(0)
    sproc = machine.card_process("server")
    slib = machine.scif(sproc)
    cproc = machine.host_process("client")
    clib = machine.scif(cproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True, name="window")
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed((roff, sproc, vma))
        # keep the connection alive
        yield from slib.recv(conn, 1)

    machine.sim.spawn(server())
    return card_node, clib, cproc, ready


class TestMmap:
    def test_mmap_reads_device_memory_without_syscalls(self, machine, scif_sends):
        card_node, clib, cproc, ready = serve_window(machine, 2 * PAGE_SIZE, fill=0xC3)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            roff, _, _ = yield ready
            vma = yield from clib.mmap(ep, roff, 2 * PAGE_SIZE)
            before = len(scif_sends)
            # plain dereference: no SCIF call involved
            data = cproc.address_space.read(vma.start + 100, 64)
            after = len(scif_sends)
            yield from clib.send(ep, b"x")
            return data, before == after, vma.flags

        c = machine.sim.spawn(client())
        machine.run()
        data, no_calls, flags = c.value
        assert (data == 0xC3).all()
        assert no_calls
        assert len(scif_sends) == 1, "the spy sees the explicit send"
        assert flags & VMAFlag.DEVICE

    def test_mmap_stores_reach_the_card(self, machine):
        card_node, clib, cproc, ready = serve_window(machine, PAGE_SIZE)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            roff, sproc, svma = yield ready
            vma = yield from clib.mmap(ep, roff, PAGE_SIZE)
            cproc.address_space.write(vma.start + 8, b"poked!")
            # the server's view of its own buffer sees the store
            got = sproc.address_space.read(svma.start + 8, 6)
            yield from clib.send(ep, b"x")
            return got

        c = machine.sim.spawn(client())
        machine.run()
        assert c.value.tobytes() == b"poked!"

    def test_mmap_alignment_enforced(self, machine):
        card_node, clib, cproc, ready = serve_window(machine, PAGE_SIZE)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            roff, _, _ = yield ready
            with pytest.raises(EINVAL):
                yield from clib.mmap(ep, roff + 1, PAGE_SIZE)
            with pytest.raises(EINVAL):
                yield from clib.mmap(ep, roff, 100)
            yield from clib.send(ep, b"x")
            return True

        c = machine.sim.spawn(client())
        machine.run()
        assert c.value is True

    def test_mmap_unregistered_offset_rejected(self, machine):
        card_node, clib, cproc, ready = serve_window(machine, PAGE_SIZE)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            roff, _, _ = yield ready
            with pytest.raises(EINVAL):
                yield from clib.mmap(ep, roff + 0x100000, PAGE_SIZE)
            yield from clib.send(ep, b"x")
            return True

        c = machine.sim.spawn(client())
        machine.run()
        assert c.value is True

    def test_munmap_invalidates(self, machine):
        card_node, clib, cproc, ready = serve_window(machine, PAGE_SIZE)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            roff, _, _ = yield ready
            vma = yield from clib.mmap(ep, roff, PAGE_SIZE)
            cproc.address_space.read(vma.start, 1)
            yield from clib.munmap(vma)
            failed = False
            try:
                cproc.address_space.read(vma.start, 1)
            except Exception:
                failed = True
            yield from clib.send(ep, b"x")
            return failed

        c = machine.sim.spawn(client())
        machine.run()
        assert c.value is True


class TestPoll:
    def test_pollin_on_data_arrival(self, machine):
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("server"))
        clib = machine.scif(machine.host_process("client"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            revents = yield from slib.poll([(conn, PollEvent.SCIF_POLLIN)])
            data = yield from slib.recv(conn, 5)
            return revents[0], data.tobytes()

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            yield machine.sim.timeout(ms(1))
            yield from clib.send(ep, b"hello")

        s = machine.sim.spawn(server())
        machine.sim.spawn(client())
        machine.run()
        revents, data = s.value
        assert revents & PollEvent.SCIF_POLLIN
        assert data == b"hello"

    def test_poll_timeout_returns_zero_events(self, machine):
        lib = machine.scif(machine.host_process("p"))
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("server"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield machine.sim.timeout(1.0)

        def client():
            ep = yield from lib.open()
            yield from lib.connect(ep, (card_node, PORT))
            t0 = machine.sim.now
            revents = yield from lib.poll([(ep, PollEvent.SCIF_POLLIN)], timeout=ms(5))
            return revents[0] & PollEvent.SCIF_POLLIN, machine.sim.now - t0

        machine.sim.spawn(server())
        c = machine.sim.spawn(client())
        machine.run()
        got_in, waited = c.value
        assert not got_in
        assert waited == pytest.approx(ms(5), rel=0.01)

    def test_poll_nonblocking_snapshot(self, machine):
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("server"))
        clib = machine.scif(machine.host_process("client"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield machine.sim.timeout(1.0)

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            revents = yield from clib.poll([(ep, PollEvent.SCIF_POLLIN)], timeout=0)
            # connected endpoint is writable
            rev_out = yield from clib.poll([(ep, PollEvent.SCIF_POLLOUT)], timeout=0)
            return revents[0], rev_out[0]

        machine.sim.spawn(server())
        c = machine.sim.spawn(client())
        machine.run()
        rin, rout = c.value
        assert not (rin & PollEvent.SCIF_POLLIN)
        assert rout & PollEvent.SCIF_POLLOUT

    def test_poll_listener_signals_pending_accept(self, machine):
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("server"))
        clib = machine.scif(machine.host_process("client"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            revents = yield from slib.poll([(ep, PollEvent.SCIF_POLLIN)])
            conn, _ = yield from slib.accept(ep, block=False)
            return bool(revents[0] & PollEvent.SCIF_POLLIN), conn is not None

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))

        s = machine.sim.spawn(server())
        machine.sim.spawn(client())
        machine.run()
        assert s.value == (True, True)

    def test_pollhup_on_peer_close(self, machine):
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("server"))
        clib = machine.scif(machine.host_process("client"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, PORT)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            revents = yield from slib.poll([(conn, PollEvent.SCIF_POLLIN)])
            return revents[0]

        def client():
            ep = yield from clib.open()
            yield from clib.connect(ep, (card_node, PORT))
            yield machine.sim.timeout(ms(1))
            yield from clib.close(ep)

        s = machine.sim.spawn(server())
        machine.sim.spawn(client())
        machine.run()
        assert s.value & PollEvent.SCIF_POLLHUP
