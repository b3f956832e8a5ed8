"""The vPHI wire protocol: requests and responses crossing the virtio ring.

One request per intercepted SCIF system call (§III, Fig 3 step 3c).  The
header is a small fixed record; bulk data never rides the header — it is
referenced by guest-physical descriptors (the kmalloc bounce chunks), so
"every other data exchange is realized through references".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["BatchCall", "VPhiOp", "VPhiRequest", "VPhiResponse"]


class VPhiOp(enum.Enum):
    """SCIF operations forwarded through the ring."""

    OPEN = "open"
    CLOSE = "close"
    BIND = "bind"
    LISTEN = "listen"
    CONNECT = "connect"
    ACCEPT = "accept"
    SEND = "send"
    RECV = "recv"
    REGISTER = "register"
    UNREGISTER = "unregister"
    READFROM = "readfrom"
    WRITETO = "writeto"
    VREADFROM = "vreadfrom"
    VWRITETO = "vwriteto"
    MMAP = "mmap"
    FENCE_MARK = "fence_mark"
    FENCE_WAIT = "fence_wait"
    FENCE_SIGNAL = "fence_signal"
    GET_NODE_IDS = "get_node_ids"
    POLL = "poll"
    SYSFS_READ = "sysfs_read"


@dataclass(slots=True)
class VPhiRequest:
    """Ring request header."""

    op: VPhiOp
    #: backend endpoint handle (0 for OPEN / non-endpoint ops).
    handle: int = 0
    #: op-specific scalar arguments.
    args: dict = field(default_factory=dict)
    #: byte counts of the out (guest->host) and in (host->guest) chunk
    #: descriptors accompanying the header.
    out_nbytes: int = 0
    in_nbytes: int = 0
    #: request/response correlation id.  Allocated by the *frontend* (one
    #: counter per VM) so tags are deterministic per run and never leak
    #: across Simulator instances or test orderings.
    tag: int = 0
    #: session epoch the request was posted in.  Bumped by the frontend's
    #: session manager on every card reset / backend restart; completions
    #: carrying an older epoch are dropped at drain instead of being
    #: allowed to mutate rebuilt session state.  0 = the initial epoch
    #: (fault-free runs never see anything else).
    epoch: int = 0


@dataclass(slots=True)
class BatchCall:
    """One guest-visible request as the frontend forwards it: the op,
    its endpoint handle and scalar arguments, and its payloads."""

    op: VPhiOp
    handle: int = 0
    args: Optional[dict] = None
    #: guest->device payload, bounced through kmalloc chunks.
    out_data: Optional[np.ndarray] = None
    #: bytes of device->guest payload the chain has room for.
    in_nbytes: int = 0
    #: optional ``consume(offset, view)`` sink for the device->guest
    #: payload — the copy-out streams bounce-chunk views straight to the
    #: consumer instead of gathering a flat array (zero-allocation path
    #: for bulk RMA reads).  ``in_data`` comes back as None when set.
    in_sink: Optional[Callable] = None


@dataclass(slots=True)
class VPhiResponse:
    """Ring response, matched to the request by tag."""

    tag: int
    result: Any = None
    #: a ScifError instance when the host-side call failed.
    error: Optional[Exception] = None
    #: bytes the backend wrote into the in chunks.
    written: int = 0
    #: echo of the request's session epoch (stale-completion fencing).
    epoch: int = 0
    #: echo of the request's op (lets the frontend attribute dropped
    #: stale completions to the right per-op counter).
    op: Optional[VPhiOp] = None
