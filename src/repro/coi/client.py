"""COI client library: process/buffer/function handles over SCIF.

Works against either SCIF implementation (native or vPHI guest shim), so
the same offload client code runs on the host or inside a VM — COI
"remains compatible with higher-level frameworks" because vPHI
virtualizes the layer *below* it (§II-B).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..mem import zero_bytes
from .protocol import COI_DAEMON_PORT, recv_msg, send_msg

__all__ = ["COIError", "COIConnection", "COIProcessHandle", "COIBufferHandle"]


class COIError(Exception):
    """Daemon-reported failure."""


class COIProcessHandle:
    """Client-side handle to a launched card process."""

    __slots__ = ("conn", "pid")

    def __init__(self, conn: "COIConnection", pid: int):
        self.conn = conn
        self.pid = pid

    def wait(self):
        """Process: block until exit; returns the exit record dict."""
        reply = yield from self.conn.call({"type": "process_wait", "pid": self.pid})
        return reply["exit"]


class COIBufferHandle:
    """Client-side handle to a GDDR-resident COI buffer."""

    __slots__ = ("conn", "buffer_id", "nbytes")

    def __init__(self, conn: "COIConnection", buffer_id: int, nbytes: int):
        self.conn = conn
        self.buffer_id = buffer_id
        self.nbytes = nbytes

    def write(self, data, offset: int = 0):
        """Process: push bytes into the card buffer."""
        data = np.asarray(bytearray(data), dtype=np.uint8) if isinstance(
            data, (bytes, bytearray)
        ) else data
        reply = yield from self.conn.call(
            {"type": "buffer_write", "buffer": self.buffer_id,
             "nbytes": len(data), "offset": offset},
            payload=data,
        )
        return reply

    def read(self, nbytes: Optional[int] = None, offset: int = 0):
        """Process: pull bytes out of the card buffer."""
        nbytes = self.nbytes if nbytes is None else nbytes
        lib, ep = self.conn.lib, self.conn.ep
        yield from send_msg(lib, ep, {"type": "buffer_read", "buffer": self.buffer_id,
                                      "nbytes": nbytes, "offset": offset})
        data = yield from lib.recv(ep, nbytes)
        reply = yield from recv_msg(lib, ep)
        if not reply.get("ok"):
            raise COIError(reply.get("error"))
        return data

    def destroy(self):
        yield from self.conn.call({"type": "buffer_destroy", "buffer": self.buffer_id})


class COIConnection:
    """One client connection to a card's coi_daemon."""

    def __init__(self, lib, card_node: int, port: int = COI_DAEMON_PORT):
        self.lib = lib
        self.card_node = card_node
        self.port = port
        self.ep = None

    # ------------------------------------------------------------------
    def connect(self):
        """Process: open the SCIF connection to the daemon."""
        self.ep = yield from self.lib.open()
        yield from self.lib.connect(self.ep, (self.card_node, self.port))
        return self

    def close(self):
        if self.ep is not None:
            yield from self.lib.close(self.ep)
            self.ep = None

    def call(self, msg: dict, payload=None):
        """Process: one request/optional-payload/response round trip."""
        yield from send_msg(self.lib, self.ep, msg)
        if payload is not None and len(payload):
            yield from self.lib.send(self.ep, payload)
        reply = yield from recv_msg(self.lib, self.ep)
        if not reply.get("ok"):
            raise COIError(reply.get("error"))
        return reply

    # ------------------------------------------------------------------
    def process_create(self, binary, argv: Sequence[str] = (), env: Optional[dict] = None):
        """Process: launch a MIC binary (its bytes cross the wire here)."""
        lib, ep = self.lib, self.ep
        yield from send_msg(lib, ep, {
            "type": "process_create",
            "binary": binary.name,
            "binary_size": binary.size,
            "transfer_bytes": binary.total_transfer_bytes,
            "argv": list(argv),
            "env": dict(env or {}),
        })
        # ship the executable, then the dependency blob (zeros that
        # occupy no host memory)
        yield from lib.send(ep, binary.image())
        dep_bytes = binary.total_transfer_bytes - binary.size
        if dep_bytes > 0:
            yield from lib.send(ep, zero_bytes(dep_bytes))
        reply = yield from recv_msg(lib, ep)
        if not reply.get("ok"):
            raise COIError(reply.get("error"))
        return COIProcessHandle(self, reply["pid"])

    def buffer_create(self, nbytes: int):
        reply = yield from self.call({"type": "buffer_create", "nbytes": nbytes})
        return COIBufferHandle(self, reply["buffer"], nbytes)

    def run_function(self, function: str, buffers: Sequence[COIBufferHandle] = (),
                     args: Optional[dict] = None):
        reply = yield from self.call({
            "type": "run_function",
            "function": function,
            "buffers": [b.buffer_id for b in buffers],
            "args": dict(args or {}),
        })
        return reply["result"]

    # ------------------------------------------------------------------
    # pipelines: asynchronous, ordered, hazard-aware kernel queues
    # ------------------------------------------------------------------
    def pipeline_create(self):
        reply = yield from self.call({"type": "pipeline_create"})
        return reply["pipeline"]

    def pipeline_destroy(self, pipeline: int):
        yield from self.call({"type": "pipeline_destroy", "pipeline": pipeline})

    def pipeline_enqueue(self, pipeline: int, function: str,
                         buffers: Sequence[COIBufferHandle] = (),
                         writes: Sequence[COIBufferHandle] = (),
                         args: Optional[dict] = None):
        """Enqueue asynchronously; returns a run id immediately.  The
        kernel runs in pipeline order, serialized against other pipelines
        only where COIBuffer hazards require it."""
        reply = yield from self.call({
            "type": "pipeline_enqueue",
            "pipeline": pipeline,
            "function": function,
            "buffers": [b.buffer_id for b in buffers],
            "writes": [b.buffer_id for b in writes],
            "args": dict(args or {}),
        })
        return reply["run"]

    def run_wait(self, run: int):
        """Block until an enqueued run retires; returns its result."""
        reply = yield from self.call({"type": "run_wait", "run": run})
        return reply["result"]
