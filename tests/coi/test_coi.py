"""COI: daemon protocol, process launch, buffers, offload functions."""

import numpy as np
import pytest

from repro import Machine
from repro.coi import COIBufferHandle, COIConnection, COIError, start_coi_daemon
from repro.mpss import MICBinary
from repro.workloads import DGEMM_BINARY  # registers the dgemm binary
from repro.workloads.microbench import ClientContext

MB = 1 << 20


@pytest.fixture
def machine():
    m = Machine(cards=1).boot()
    start_coi_daemon(m, card=0)
    return m


def run(machine, gen, spawn=None):
    p = (spawn or machine.sim.spawn)(gen)
    machine.run()
    return p.value


def test_process_create_and_wait_dgemm(machine):
    ctx = ClientContext.native(machine)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        handle = yield from conn.process_create(DGEMM_BINARY, argv=["128", "56"])
        record = yield from handle.wait()
        yield from conn.close()
        return record

    record = run(machine, body())
    assert record["status"] == 0
    assert record["n"] == 128
    # numerically verified on the card for small N
    assert record["c_checksum"] == pytest.approx(record["c_expected"])
    assert record["compute_time"] > 0


def test_unknown_binary_rejected(machine):
    bogus = MICBinary(name="not-registered", size=1024, entry=None)

    ctx = ClientContext.native(machine)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        with pytest.raises(COIError, match="no such MIC binary"):
            yield from conn.process_create(bogus)
        yield from conn.close()
        return True

    assert run(machine, body()) is True


def test_buffer_roundtrip(machine):
    ctx = ClientContext.native(machine)
    payload = np.random.default_rng(3).integers(0, 256, 2 * MB, dtype=np.uint8)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        buf = yield from conn.buffer_create(2 * MB)
        yield from buf.write(payload)
        back = yield from buf.read()
        yield from buf.destroy()
        yield from conn.close()
        return back

    back = run(machine, body())
    assert np.array_equal(back, payload)


def _bad_create_larger_than_card_memory(conn, buf):
    yield from conn.buffer_create(1 << 40)


def _bad_read_past_the_end(conn, buf):
    data = yield from buf.read(nbytes=8192)
    return data


def _bad_read_unknown_buffer(conn, buf):
    data = yield from COIBufferHandle(conn, 99, 4096).read()
    return data


def _bad_write_unknown_buffer(conn, buf):
    yield from COIBufferHandle(conn, 99, 4096).write(np.ones(4096, dtype=np.uint8))


def _bad_write_past_the_end(conn, buf):
    yield from buf.write(np.ones(4096, dtype=np.uint8), offset=2048)


def _bad_destroy_unknown_buffer(conn, buf):
    yield from COIBufferHandle(conn, 99, 4096).destroy()


def _bad_run_function_unknown_buffer(conn, buf):
    yield from conn.run_function("reduce_sum", buffers=[COIBufferHandle(conn, 99, 4096)],
                                 args={"n": 512})


def _bad_message_without_type(conn, buf):
    yield from conn.call({"buffer": buf.buffer_id})


def _bad_wait_without_pid(conn, buf):
    yield from conn.call({"type": "process_wait"})


def _bad_read_without_nbytes(conn, buf):
    yield from conn.call({"type": "buffer_read", "buffer": buf.buffer_id})


@pytest.mark.parametrize("bad", [
    _bad_create_larger_than_card_memory, _bad_read_past_the_end,
    _bad_read_unknown_buffer, _bad_write_unknown_buffer, _bad_write_past_the_end,
    _bad_destroy_unknown_buffer, _bad_run_function_unknown_buffer,
    _bad_message_without_type, _bad_wait_without_pid, _bad_read_without_nbytes,
], ids=lambda f: f.__name__[5:])
def test_bad_buffer_request_is_refused_and_the_connection_lives(machine, bad):
    """The daemon replies with an error instead of losing the connection
    handler, and keeps the stream framed: the same connection then serves
    a valid read byte-exactly."""
    ctx = ClientContext.native(machine)
    payload = np.random.default_rng(9).integers(0, 256, 4096, dtype=np.uint8)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        buf = yield from conn.buffer_create(4096)
        yield from buf.write(payload)
        with pytest.raises(COIError):
            yield from bad(conn, buf)
        back = yield from buf.read()
        yield from conn.close()
        return back

    assert np.array_equal(run(machine, body()), payload)


def test_offload_vector_scale(machine):
    ctx = ClientContext.native(machine)
    x = np.arange(1000, dtype=np.float64)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        buf = yield from conn.buffer_create(len(x) * 8)
        yield from buf.write(x.tobytes())
        result = yield from conn.run_function(
            "vector_scale", buffers=[buf], args={"n": len(x), "alpha": 3.0}
        )
        data = yield from buf.read()
        yield from conn.close()
        return result, data

    result, data = run(machine, body())
    got = np.frombuffer(data.tobytes(), dtype=np.float64)
    assert np.allclose(got, 3.0 * x)
    assert result["alpha"] == 3.0


def test_offload_dgemm_numerics(machine):
    ctx = ClientContext.native(machine)
    n = 64
    rng = np.random.default_rng(7)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        ab = yield from conn.buffer_create(n * n * 8)
        bb = yield from conn.buffer_create(n * n * 8)
        cb = yield from conn.buffer_create(n * n * 8)
        yield from ab.write(a.tobytes())
        yield from bb.write(b.tobytes())
        result = yield from conn.run_function(
            "dgemm_offload", buffers=[ab, bb, cb], args={"n": n, "threads": 112}
        )
        c_bytes = yield from cb.read()
        yield from conn.close()
        return result, c_bytes

    result, c_bytes = run(machine, body())
    c = np.frombuffer(c_bytes.tobytes(), dtype=np.float64).reshape(n, n)
    assert np.allclose(c, a @ b)
    assert result["checksum"] == pytest.approx(float(np.abs(a @ b).sum()))


def test_unknown_offload_function(machine):
    ctx = ClientContext.native(machine)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        with pytest.raises(COIError, match="no offload function"):
            yield from conn.run_function("warp_drive")
        yield from conn.close()
        return True

    assert run(machine, body()) is True


def test_offload_mode_works_from_a_vm(machine):
    """§II-A: vPHI supports offload mode because COI sits on SCIF."""
    vm = machine.create_vm("vm0")
    ctx = ClientContext.guest(vm)
    x = np.ones(512, dtype=np.float64)

    def body():
        conn = COIConnection(ctx.lib, machine.card_node_id(0))
        yield from conn.connect()
        buf = yield from conn.buffer_create(len(x) * 8)
        yield from buf.write(x.tobytes())
        result = yield from conn.run_function(
            "reduce_sum", buffers=[buf], args={"n": len(x)}
        )
        yield from conn.close()
        return result

    result = run(machine, body(), spawn=ctx.spawn)
    assert result["sum"] == pytest.approx(512.0)


def test_two_concurrent_clients_one_daemon(machine):
    """The daemon serves connections concurrently (sharing at the
    process level inside one card)."""
    ctx1 = ClientContext.native(machine, "c1")
    ctx2 = ClientContext.native(machine, "c2")

    def body(ctx, n):
        def gen():
            conn = COIConnection(ctx.lib, machine.card_node_id(0))
            yield from conn.connect()
            handle = yield from conn.process_create(DGEMM_BINARY, argv=[str(n), "56"])
            record = yield from handle.wait()
            yield from conn.close()
            return record["n"]

        return gen()

    p1 = machine.sim.spawn(body(ctx1, 64))
    p2 = machine.sim.spawn(body(ctx2, 32))
    machine.run()
    assert (p1.value, p2.value) == (64, 32)
