"""SCIF endpoints: connection state machine, receive queue, poll hooks."""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Optional

import numpy as np

from ..sim import Channel, Event, Simulator, WaitQueue
from .constants import PollEvent
from .errors import EINVAL
from .registration import WindowRegistry

__all__ = ["EpState", "ConnRequest", "Endpoint"]

_ep_ids = itertools.count(1)


class EpState(enum.Enum):
    NEW = "new"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    CLOSED = "closed"


class ConnRequest:
    """A pending connection travelling from connector to listener."""

    __slots__ = ("src_ep", "src_addr", "reply")

    def __init__(self, src_ep: "Endpoint", src_addr: tuple[int, int], reply: Event):
        self.src_ep = src_ep
        self.src_addr = src_addr
        self.reply = reply


class Endpoint:
    """One SCIF endpoint descriptor."""

    def __init__(self, sim: Simulator, node, owner: str = ""):
        self.sim = sim
        self.node = node
        self.id = next(_ep_ids)
        self.owner = owner
        self.state = EpState.NEW
        # register with the node so a hard reset can sweep every endpoint
        if hasattr(node, "endpoints"):
            node.endpoints.append(self)
        self.port: Optional[int] = None
        self.peer: Optional[Endpoint] = None
        self.peer_addr: Optional[tuple[int, int]] = None
        #: set when the peer endpoint closed; recv drains then errors.
        self.peer_closed = False
        # receive side: FIFO of numpy chunks
        self._rx: deque[np.ndarray] = deque()
        self.rx_bytes = 0
        self.recv_wait = WaitQueue(sim, name=f"ep{self.id}-recv")
        self.poll_wait = WaitQueue(sim, name=f"ep{self.id}-poll")
        #: listener backlog (created by listen()).
        self.backlog: Optional[Channel] = None
        #: registered address space.
        self.windows = WindowRegistry()
        # RMA fencing
        self.rma_last_issued = 0
        self.rma_outstanding: set[int] = set()
        self.fence_wait = WaitQueue(sim, name=f"ep{self.id}-fence")
        #: lifetime metrics
        self.bytes_sent = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # address
    # ------------------------------------------------------------------
    @property
    def local_addr(self) -> tuple[int, int]:
        if self.port is None:
            raise EINVAL("endpoint not bound")
        return (self.node.node_id, self.port)

    # ------------------------------------------------------------------
    # receive queue (pure state; timing is charged by the API layer)
    # ------------------------------------------------------------------
    def enqueue_rx(self, data: np.ndarray) -> None:
        """Queue one message.  The queue takes ``data`` over: the sender
        hands in a private snapshot and keeps no reference to it."""
        if len(data):
            self._rx.append(data)
            self.rx_bytes += len(data)
        self.recv_wait.wake_all()
        self.poll_wait.wake_all()

    def dequeue_rx(self, nbytes: int) -> np.ndarray:
        """Pop up to ``nbytes`` from the receive queue.

        A queued array that exactly covers the take is handed over whole,
        without a copy; any other take is copied out chunk by chunk.
        """
        take = min(nbytes, self.rx_bytes)
        if take and len(self._rx[0]) == take:
            self.rx_bytes -= take
            return self._rx.popleft()
        out = np.empty(take, dtype=np.uint8)
        off = 0
        while off < take:
            chunk = self._rx[0]
            n = min(len(chunk), take - off)
            out[off : off + n] = chunk[:n]
            if n == len(chunk):
                self._rx.popleft()
            else:
                self._rx[0] = chunk[n:]
            off += n
        self.rx_bytes -= take
        return out

    # ------------------------------------------------------------------
    # RMA fencing
    # ------------------------------------------------------------------
    def rma_begin(self) -> int:
        self.rma_last_issued += 1
        seq = self.rma_last_issued
        self.rma_outstanding.add(seq)
        return seq

    def rma_end(self, seq: int) -> None:
        self.rma_outstanding.discard(seq)
        self.fence_wait.wake_all()

    def fence_mark(self) -> int:
        """Return a mark covering every RMA issued so far."""
        return self.rma_last_issued

    def fence_pending(self, mark: int) -> bool:
        return any(seq <= mark for seq in self.rma_outstanding)

    # ------------------------------------------------------------------
    # poll
    # ------------------------------------------------------------------
    def poll_events(self) -> PollEvent:
        ev = PollEvent.NONE
        if self.rx_bytes > 0:
            ev |= PollEvent.SCIF_POLLIN
        if self.backlog is not None and len(self.backlog) > 0:
            ev |= PollEvent.SCIF_POLLIN
        if self.state is EpState.CONNECTED and not self.peer_closed:
            ev |= PollEvent.SCIF_POLLOUT
        if self.peer_closed:
            ev |= PollEvent.SCIF_POLLHUP
        if self.state is EpState.CLOSED:
            ev |= PollEvent.SCIF_POLLERR
        return ev

    # ------------------------------------------------------------------
    def mark_peer_closed(self) -> None:
        self.peer_closed = True
        self.recv_wait.wake_all()
        self.poll_wait.wake_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Endpoint #{self.id} {self.owner} {self.state.value} "
            f"port={self.port} peer={self.peer_addr}>"
        )
