"""libscif: the SCIF user API, bound to one process on one node.

Every call is a *generator process* (``yield from lib.send(...)``) because
it takes simulated time and may block.  The same call set is implemented
by :class:`~repro.vphi.guest_libscif.GuestScif` with identical signatures
and semantics — the reproduction's rendering of the paper's binary
compatibility claim: client code is written once against this interface
and runs unmodified natively or inside a VM.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..analysis.calibration import HOST, SCIF_COSTS, HostParams, ScifCosts
from ..mem import Buffer, CHUNK_SIZE, PAGE_SIZE, VMA, VMAFlag, is_page_aligned
from ..mem.physical import holds_nonzero
from ..oscore import OSProcess
from ..sim import ChannelClosed, Channel, Simulator
from .constants import MapFlag, PollEvent, Prot, RecvFlag, RmaFlag, SendFlag
from .endpoint import ConnRequest, Endpoint, EpState
from .errors import (
    EAGAIN,
    ECONNREFUSED,
    ECONNRESET,
    EINVAL,
    EISCONN,
    ENOTCONN,
)
from .fabric import ScifFabric, ScifNode
from .rma import execute_rma

__all__ = ["NativeScif", "as_bytes_array"]

#: a message payload: a buffer, or a list of uint8 arrays that together
#: hold the message in order (views of simulated memory, such as the vPHI
#: backend's guest bounce chunks).
DataLike = Union[bytes, bytearray, memoryview, np.ndarray, Buffer,
                 list[np.ndarray]]


def _write_u64(sg, value: int) -> None:
    """Store one little-endian u64 into the first 8 bytes of an SG list."""
    raw = np.frombuffer(int(value).to_bytes(8, "little"), dtype=np.uint8)
    off = 0
    for entry in sg:
        take = min(entry.nbytes, 8 - off)
        entry.mem.write(entry.paddr, raw[off : off + take])
        off += take
        if off == 8:
            return


def as_bytes_array(data: DataLike) -> np.ndarray:
    """Normalize any payload type to a uint8 numpy array (no copy when
    already uint8; a list of arrays is gathered into one)."""
    if isinstance(data, Buffer):
        return data.data
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8:
            return data
        return np.ascontiguousarray(data).view(np.uint8)
    if isinstance(data, list):
        return np.concatenate(data) if data else np.empty(0, dtype=np.uint8)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def _snapshot(data: DataLike) -> np.ndarray:
    """A fresh, writable uint8 copy of a message payload: the one host
    copy a SCIF message takes.

    The copy starts as ``np.zeros`` (calloc, so pages never written cost
    no RSS) and takes in only the pieces that hold a non-zero byte: each
    view of a list payload, or each ``CHUNK_SIZE`` slice of a buffer.  An
    all-zero message is then never copied, and known zeros (views of a
    never-written guest buffer, or a :func:`~repro.mem.zero_bytes` blob)
    are not even scanned.
    """
    if isinstance(data, list):
        pieces = data
    else:
        flat = as_bytes_array(data)
        pieces = [flat[i : i + CHUNK_SIZE] for i in range(0, len(flat), CHUNK_SIZE)]
    out = np.zeros(sum(map(len, pieces)), dtype=np.uint8)
    off = 0
    for piece in pieces:
        n = len(piece)
        if n and holds_nonzero(piece):
            out[off : off + n] = piece
        off += n
    return out


class NativeScif:
    """The host/card-native SCIF implementation (§II-B software stack)."""

    def __init__(
        self,
        fabric: ScifFabric,
        node: ScifNode,
        process: OSProcess,
        costs: ScifCosts = SCIF_COSTS,
        host_params: HostParams = HOST,
    ):
        self.sim: Simulator = fabric.sim
        self.fabric = fabric
        self.node = node
        self.process = process
        self.costs = costs
        self.host_params = host_params

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------
    def _syscall(self):
        return self.sim.timeout(self.costs.syscall + self.costs.driver)

    def _check_connected(self, ep: Endpoint) -> None:
        if ep.state is not EpState.CONNECTED:
            raise ENOTCONN(f"endpoint {ep.id} is {ep.state.value}")

    # ------------------------------------------------------------------
    # endpoint lifecycle
    # ------------------------------------------------------------------
    def open(self):
        """scif_open(): create an endpoint descriptor."""
        yield self.sim.timeout(self.costs.syscall)
        ep = Endpoint(self.sim, self.node, owner=self.process.name)
        return ep

    def bind(self, ep: Endpoint, port: int = 0):
        """scif_bind(): bind to a local port (0 picks an ephemeral one)."""
        yield self._syscall()
        if ep.state not in (EpState.NEW,):
            raise EINVAL(f"bind on endpoint in state {ep.state.value}")
        bound = self.node.bind(ep, port)
        return bound

    def listen(self, ep: Endpoint, backlog: int = 16):
        """scif_listen(): become a passive endpoint."""
        yield self._syscall()
        if ep.state is not EpState.BOUND:
            raise EINVAL("listen requires a bound endpoint")
        if backlog <= 0:
            raise EINVAL("backlog must be positive")
        ep.backlog = Channel(self.sim, capacity=backlog, name=f"ep{ep.id}-backlog")
        ep.state = EpState.LISTENING
        return 0

    def connect(self, ep: Endpoint, addr: tuple[int, int]):
        """scif_connect(): active open to (node, port).  Returns local port."""
        yield self._syscall()
        if ep.state is EpState.CONNECTED:
            raise EISCONN("endpoint already connected")
        if ep.state not in (EpState.NEW, EpState.BOUND):
            raise EINVAL(f"connect on endpoint in state {ep.state.value}")
        if ep.state is EpState.NEW:
            self.node.bind(ep, 0)
        dst_node_id, dst_port = addr
        dst_node = self.fabric.node(dst_node_id)  # raises ENXIO
        # connection request travels to the listener's node
        yield self.sim.timeout(self.fabric.msg_delay(self.node.node_id, dst_node_id))
        listener = dst_node.listener_at(dst_port)
        if listener is None:
            yield self.sim.timeout(self.fabric.msg_delay(self.node.node_id, dst_node_id))
            raise ECONNREFUSED(f"no listener at {addr}")
        reply = self.sim.event(name=f"connreq-ep{ep.id}")
        req = ConnRequest(ep, ep.local_addr, reply)
        assert listener.backlog is not None
        if not listener.backlog.try_put(req):
            yield self.sim.timeout(self.fabric.msg_delay(self.node.node_id, dst_node_id))
            raise ECONNREFUSED(f"backlog full at {addr}")
        listener.poll_wait.wake_all()
        try:
            yield reply  # acceptor links the endpoints
        except ChannelClosed:
            raise ECONNREFUSED(f"listener at {addr} closed") from None
        # accept-ack travels back
        yield self.sim.timeout(self.fabric.msg_delay(self.node.node_id, dst_node_id))
        return ep.port

    def accept(self, lep: Endpoint, block: bool = True):
        """scif_accept(): returns ``(new_endpoint, peer_addr)``."""
        yield self._syscall()
        if lep.state is not EpState.LISTENING or lep.backlog is None:
            raise EINVAL("accept on a non-listening endpoint")
        if block:
            try:
                req: ConnRequest = yield lep.backlog.get()
            except ChannelClosed:
                raise ECONNRESET("listener closed while accepting") from None
        else:
            ok, req = lep.backlog.try_get()
            if not ok:
                raise EAGAIN("no pending connection")
        new_ep = Endpoint(self.sim, self.node, owner=self.process.name)
        new_ep.port = lep.port  # accepted endpoints share the listening port
        new_ep.state = EpState.CONNECTED
        new_ep.peer = req.src_ep
        new_ep.peer_addr = req.src_addr
        req.src_ep.peer = new_ep
        req.src_ep.peer_addr = (self.node.node_id, lep.port)
        req.src_ep.state = EpState.CONNECTED
        req.reply.succeed(new_ep)
        return new_ep, req.src_addr

    def close(self, ep: Endpoint):
        """scif_close(): tear down the endpoint."""
        yield self._syscall()
        if ep.state is EpState.CLOSED:
            return 0
        if ep.state is EpState.LISTENING and ep.backlog is not None:
            # refuse everything still queued
            while True:
                ok, req = ep.backlog.try_get()
                if not ok:
                    break
                req.reply.fail(ECONNREFUSED("listener closed"))
            ep.backlog.close()
        if ep.state is EpState.CONNECTED and ep.peer is not None:
            peer = ep.peer
            delay = self.fabric.msg_delay(self.node.node_id, ep.peer_addr[0])
            self.sim.call_at(self.sim.now + delay, peer.mark_peer_closed)
        if ep.port is not None and self.node.ports.get(ep.port) is ep:
            self.node.release_port(ep.port)
        ep.windows.clear()
        ep.state = EpState.CLOSED
        ep.recv_wait.wake_all()
        ep.poll_wait.wake_all()
        return 0

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, ep: Endpoint, data: DataLike, flags: SendFlag = SendFlag.SCIF_SEND_BLOCK):
        """scif_send(): synchronous message send (completes on remote ack).

        Native 1-byte cost: syscall+driver (1.5 µs) + wire (2 µs) +
        card ISR (1 µs) + ack (2 µs) + completion (0.5 µs) = 7 µs (Fig 4).

        The payload is snapshotted before any simulated time passes, and
        the snapshot is what the peer's receive queue holds: a later
        write to ``data`` (or to the guest frames its views alias) never
        reaches the bytes in flight.
        """
        payload = _snapshot(data)
        yield self._syscall()
        self._check_connected(ep)
        if ep.peer_closed or ep.peer is None:
            raise ECONNRESET("peer endpoint closed")
        if len(payload) == 0:
            # scif_send(ep, buf, 0) returns 0 without touching the wire
            # (matching Linux); the connection checks above still apply.
            return 0
        remote_id = ep.peer_addr[0]
        wire = self.fabric.msg_delay(self.node.node_id, remote_id)
        # payload streams at the send-recv (ring buffer) rate
        yield self.sim.timeout(wire + len(payload) / self.costs.sendrecv_bandwidth)
        yield self.sim.timeout(self.costs.card_isr)
        ep.peer.enqueue_rx(payload)
        ep.peer.bytes_received += len(payload)
        # flow-control ack returns
        yield self.sim.timeout(wire + self.costs.completion)
        ep.bytes_sent += len(payload)
        return len(payload)

    def recv(self, ep: Endpoint, nbytes: int, flags: RecvFlag = RecvFlag.SCIF_RECV_BLOCK):
        """scif_recv(): blocking form waits for exactly ``nbytes``."""
        yield self._syscall()
        if nbytes < 0:
            raise EINVAL("recv length must be non-negative")
        if ep.state is not EpState.CONNECTED and ep.rx_bytes == 0:
            raise ENOTCONN(f"recv on endpoint in state {ep.state.value}")
        if nbytes == 0:
            # zero-length recv completes immediately with an empty buffer
            # (mirroring the zero-length send: header only, no payload).
            return ep.dequeue_rx(0)
        block = bool(flags & RecvFlag.SCIF_RECV_BLOCK)
        if block:
            while ep.rx_bytes < nbytes:
                if ep.peer_closed or ep.state is EpState.CLOSED:
                    if ep.rx_bytes == 0:
                        raise ECONNRESET("connection reset while receiving")
                    break  # drain what remains
                yield ep.recv_wait.wait()
        else:
            if ep.rx_bytes == 0:
                if ep.peer_closed:
                    raise ECONNRESET("connection reset")
                raise EAGAIN("no data")
        out = ep.dequeue_rx(nbytes)
        # user<->kernel copy-out
        yield self.sim.timeout(len(out) / self.host_params.memcpy_bandwidth)
        return out

    # ------------------------------------------------------------------
    # registration / RMA
    # ------------------------------------------------------------------
    def register(
        self,
        ep: Endpoint,
        vaddr: int,
        nbytes: int,
        offset: Optional[int] = None,
        prot: Prot = Prot.SCIF_PROT_READ | Prot.SCIF_PROT_WRITE,
        flags: MapFlag = MapFlag.NONE,
    ):
        """scif_register(): pin ``[vaddr, vaddr+nbytes)`` and expose it in
        the endpoint's registered address space.  Returns the RAS offset."""
        yield self._syscall()
        self._check_connected(ep)
        if not is_page_aligned(vaddr) or nbytes <= 0 or nbytes % PAGE_SIZE:
            raise EINVAL("scif_register requires page-aligned addr and length")
        if flags & MapFlag.SCIF_MAP_FIXED:
            if offset is None:
                raise EINVAL("SCIF_MAP_FIXED requires an offset")
        else:
            offset = None
        pinned = self.process.address_space.pin(vaddr, nbytes)
        try:
            win = ep.windows.add(
                nbytes, prot, pinned.sg, offset=offset, pinned=pinned,
                label=f"{self.process.name}:{vaddr:#x}",
            )
        except Exception:
            pinned.unpin()
            raise
        # pinning cost scales with page count
        yield self.sim.timeout(self.costs.pin_page * (nbytes // PAGE_SIZE))
        return win.offset

    def unregister(self, ep: Endpoint, offset: int):
        """scif_unregister(): drop a window and unpin its pages."""
        yield self._syscall()
        ep.windows.remove(offset)
        return 0

    def _remote_sg(self, ep: Endpoint, roffset: int, nbytes: int, require: Prot):
        if ep.peer is None:
            raise ENOTCONN("RMA on unconnected endpoint")
        return ep.peer.windows.resolve(roffset, nbytes, require)

    def readfrom(self, ep: Endpoint, loffset: int, nbytes: int, roffset: int,
                 flags: RmaFlag = RmaFlag.NONE):
        """scif_readfrom(): remote window -> local window."""
        yield self._syscall()
        self._check_connected(ep)
        local_sg = ep.windows.resolve(loffset, nbytes, Prot.SCIF_PROT_WRITE)
        remote_sg = self._remote_sg(ep, roffset, nbytes, Prot.SCIF_PROT_READ)
        yield from execute_rma(ep, "read", local_sg, remote_sg, nbytes, flags, self.costs)
        yield self.sim.timeout(self.costs.completion)
        return nbytes

    def writeto(self, ep: Endpoint, loffset: int, nbytes: int, roffset: int,
                flags: RmaFlag = RmaFlag.NONE):
        """scif_writeto(): local window -> remote window."""
        yield self._syscall()
        self._check_connected(ep)
        local_sg = ep.windows.resolve(loffset, nbytes, Prot.SCIF_PROT_READ)
        remote_sg = self._remote_sg(ep, roffset, nbytes, Prot.SCIF_PROT_WRITE)
        yield from execute_rma(ep, "write", local_sg, remote_sg, nbytes, flags, self.costs)
        yield self.sim.timeout(self.costs.completion)
        return nbytes

    def vreadfrom(self, ep: Endpoint, vaddr: int, nbytes: int, roffset: int,
                  flags: RmaFlag = RmaFlag.NONE):
        """scif_vreadfrom(): remote window -> local *virtual* buffer (the
        driver pins it for the duration of the transfer)."""
        yield self._syscall()
        self._check_connected(ep)
        if nbytes <= 0:
            raise EINVAL("RMA length must be positive")
        pinned = self.process.address_space.pin(vaddr, nbytes)
        try:
            remote_sg = self._remote_sg(ep, roffset, nbytes, Prot.SCIF_PROT_READ)
            local_sg = self.process.address_space.sg_list(vaddr, nbytes, fault_in=False)
            yield from execute_rma(ep, "read", local_sg, remote_sg, nbytes, flags, self.costs)
        finally:
            pinned.unpin()
        yield self.sim.timeout(self.costs.completion)
        return nbytes

    def vwriteto(self, ep: Endpoint, vaddr: int, nbytes: int, roffset: int,
                 flags: RmaFlag = RmaFlag.NONE):
        """scif_vwriteto(): local virtual buffer -> remote window."""
        yield self._syscall()
        self._check_connected(ep)
        if nbytes <= 0:
            raise EINVAL("RMA length must be positive")
        pinned = self.process.address_space.pin(vaddr, nbytes)
        try:
            remote_sg = self._remote_sg(ep, roffset, nbytes, Prot.SCIF_PROT_WRITE)
            local_sg = self.process.address_space.sg_list(vaddr, nbytes, fault_in=False)
            yield from execute_rma(ep, "write", local_sg, remote_sg, nbytes, flags, self.costs)
        finally:
            pinned.unpin()
        yield self.sim.timeout(self.costs.completion)
        return nbytes

    # ------------------------------------------------------------------
    # driver-internal entry points (used by the vPHI backend)
    # ------------------------------------------------------------------
    def register_sg(
        self,
        ep: Endpoint,
        sg,
        nbytes: int,
        offset: Optional[int] = None,
        prot: Prot = Prot.SCIF_PROT_READ | Prot.SCIF_PROT_WRITE,
        label: str = "",
    ):
        """Register a window backed by an already-pinned scatter list.

        The in-kernel path the vPHI backend takes: the *guest* pinned the
        pages; the host driver only inserts the window (the "<15 LOC in
        host SCIF driver" half of the paper's modification).
        """
        yield self.sim.timeout(self.costs.driver)
        self._check_connected(ep)
        win = ep.windows.add(nbytes, prot, sg, offset=offset, label=label)
        return win.offset

    def rma_sg(self, ep: Endpoint, local_sg, nbytes: int, roffset: int,
               direction: str, flags: RmaFlag = RmaFlag.NONE):
        """One RMA against an explicit local scatter list (no syscall
        charge — the caller already crossed the kernel boundary)."""
        require = Prot.SCIF_PROT_READ if direction == "read" else Prot.SCIF_PROT_WRITE
        remote_sg = self._remote_sg(ep, roffset, nbytes, require)
        yield from execute_rma(ep, direction, local_sg, remote_sg, nbytes, flags, self.costs)
        return nbytes

    # ------------------------------------------------------------------
    # mmap
    # ------------------------------------------------------------------
    def mmap(self, ep: Endpoint, roffset: int, nbytes: int,
             prot: Prot = Prot.SCIF_PROT_READ | Prot.SCIF_PROT_WRITE) -> VMA:
        """scif_mmap(): map the peer's registered window into the local
        address space.  Returns the VMA; plain loads/stores through it
        reach device memory with **no further SCIF calls** (§II-B)."""
        yield self._syscall()
        self._check_connected(ep)
        if nbytes <= 0 or nbytes % PAGE_SIZE or roffset % PAGE_SIZE:
            raise EINVAL("scif_mmap requires page-aligned offset and length")
        remote_sg = self._remote_sg(ep, roffset, nbytes, prot)
        # flatten for page lookup
        runs = list(remote_sg)

        def handler(vma: VMA, page_vaddr: int):
            rel = page_vaddr - vma.start
            pos = 0
            for run in runs:
                if pos <= rel < pos + run.nbytes:
                    return run.mem, run.paddr + (rel - pos)
                pos += run.nbytes
            raise EINVAL(f"mmap fault beyond window at rel={rel:#x}")

        flags = VMAFlag.DEVICE
        if prot & Prot.SCIF_PROT_READ:
            flags |= VMAFlag.READ
        if prot & Prot.SCIF_PROT_WRITE:
            flags |= VMAFlag.WRITE
        vma = self.process.address_space.mmap(
            nbytes, flags=flags, fault_handler=handler,
            name=f"scif-mmap-ep{ep.id}@{roffset:#x}",
        )
        return vma

    def munmap(self, vma: VMA):
        """scif_munmap(): drop a window mapping."""
        yield self._syscall()
        self.process.address_space.munmap(vma)
        return 0

    # ------------------------------------------------------------------
    # fences
    # ------------------------------------------------------------------
    def fence_mark(self, ep: Endpoint):
        """scif_fence_mark(): mark the RMAs issued so far."""
        yield self.sim.timeout(self.costs.syscall)
        return ep.fence_mark()

    def fence_wait(self, ep: Endpoint, mark: int):
        """scif_fence_wait(): block until every marked RMA completed."""
        yield self.sim.timeout(self.costs.syscall)
        while ep.fence_pending(mark):
            yield ep.fence_wait.wait()
        return 0

    def fence_signal(self, ep: Endpoint, loffset: Optional[int], lval: int,
                     roffset: Optional[int], rval: int):
        """scif_fence_signal(): when every RMA issued so far completes,
        write ``lval`` at the local RAS offset and/or ``rval`` at the
        remote one (8-byte stores) — the RDMA-completion-flag idiom the
        paper's §II-B background describes (RDMA + polling on a flag)."""
        yield self._syscall()
        self._check_connected(ep)
        mark = ep.fence_mark()
        while ep.fence_pending(mark):
            yield ep.fence_wait.wait()
        if loffset is not None:
            sg = ep.windows.resolve(loffset, 8, Prot.SCIF_PROT_WRITE)
            _write_u64(sg, lval)
        if roffset is not None:
            if ep.peer is None:
                raise ENOTCONN("fence_signal on unconnected endpoint")
            yield self.sim.timeout(
                self.fabric.msg_delay(self.node.node_id, ep.peer_addr[0])
            )
            sg = ep.peer.windows.resolve(roffset, 8, Prot.SCIF_PROT_WRITE)
            _write_u64(sg, rval)
        return 0

    # ------------------------------------------------------------------
    # poll
    # ------------------------------------------------------------------
    def poll(self, fds: Sequence[tuple[Endpoint, PollEvent]],
             timeout: Optional[float] = None):
        """scif_poll(): wait until any endpoint has requested events.

        Returns the list of ``revents`` (one per fd).  ``timeout=None``
        blocks forever; ``timeout=0`` is a non-blocking check.
        """
        yield self.sim.timeout(self.costs.syscall)
        always = PollEvent.SCIF_POLLERR | PollEvent.SCIF_POLLHUP
        while True:
            revents = [ep.poll_events() & (mask | always) for ep, mask in fds]
            if any(revents):
                return revents
            if timeout == 0:
                return revents
            waiters = [ep.poll_wait.wait() for ep, _ in fds]
            events = list(waiters)
            if timeout is not None:
                events.append(self.sim.timeout(timeout))
            idx, _ = yield self.sim.any_of(events)
            for (ep, _), w in zip(fds, waiters):
                ep.poll_wait.cancel(w)
            if timeout is not None and idx == len(waiters):
                # timed out: one last non-blocking sample
                revents = [ep.poll_events() & (mask | always) for ep, mask in fds]
                return revents

    # ------------------------------------------------------------------
    def get_node_ids(self):
        """scif_get_nodeIDs(): (all node ids, own node id)."""
        yield self.sim.timeout(self.costs.syscall)
        return sorted(self.fabric.nodes), self.node.node_id
