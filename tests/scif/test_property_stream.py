"""Property: SCIF send/recv is a faithful byte stream under arbitrary
sender/receiver chunkings (the semantics everything above relies on)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine

PORT_BASE = 12000
_ports = iter(range(PORT_BASE, PORT_BASE + 10_000))


@pytest.fixture(scope="module")
def machine():
    return Machine(cards=1).boot()


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    send_sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
    recv_cuts=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_stream_reassembles_identically(machine, send_sizes, recv_cuts, seed):
    """The receiver's chunking is independent of the sender's: any split
    of the same total yields the same byte sequence.

    Bytes in flight are immune to later writes: the sender scribbles over
    its buffer as soon as each send returns, and the receiver over what
    each recv handed it, and the stream still equals a kept copy."""
    port = next(_ports)
    total = sum(send_sizes)
    # build receiver cuts covering exactly `total`
    cuts, acc = [], 0
    for c in recv_cuts:
        take = min(c, total - acc)
        if take <= 0:
            break
        cuts.append(take)
        acc += take
    if acc < total:
        cuts.append(total - acc)

    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, size=total, dtype=np.uint8)
    expected = payload.copy()
    slib = machine.scif(machine.card_process(f"s{port}"))
    clib = machine.scif(machine.host_process(f"c{port}"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        parts = []
        for cut in cuts:
            data = yield from slib.recv(conn, cut)
            parts.append(data.copy())
            data ^= 0xFF
        yield from slib.close(conn)
        yield from slib.close(ep)
        return np.concatenate(parts)

    def client():
        ep = yield from clib.open()
        yield from clib.connect(ep, (machine.card_node_id(0), port))
        off = 0
        for size in send_sizes:
            yield from clib.send(ep, payload[off : off + size])
            payload[off : off + size] ^= 0xFF
            off += size
        return True

    s = machine.sim.spawn(server())
    c = machine.sim.spawn(client())
    machine.run()
    assert c.value is True
    assert np.array_equal(s.value, expected)
