"""coi_daemon: the card-side service receiving launch/offload requests.

§II-B: "Xeon Phi device receives the respective requests from the host
through a COI daemon that is executed after uOS has booted."  The daemon
listens on a well-known SCIF port, accepts one connection per client, and
services:

* ``process_create`` — receive the executable + dependencies (their bytes
  cross the wire), verify the checksum, "exec" the registered entry point
  as a card process;
* ``process_wait`` — block until the process exits, return its exit record;
* ``buffer_create`` / ``buffer_write`` / ``buffer_read`` — GDDR-resident
  COI buffers (used by offload mode);
* ``run_function`` — offload-mode RPC into a created process.

A request naming an unknown op or buffer, lacking a field its op needs,
naming a range outside its buffer, or asking for a buffer size card
memory cannot hold gets an ``{"ok": False}`` reply instead of killing
the connection handler.  A request refused for its buffer or range
leaves the stream framed: a refused write still receives its payload,
and a refused read still sends its ``nbytes`` (as zeros that cost
nothing) before the reply.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Optional

from ..mem import MemError, zero_bytes
from ..mpss.binaries import lookup_binary
from ..scif import NativeScif, ScifError
from .protocol import COI_DAEMON_PORT, recv_msg, recv_raw, send_msg

__all__ = ["CoiDaemon", "start_coi_daemon"]


#: the request fields each op reads without a default
_REQUIRED = {
    "process_create": ("binary", "binary_size", "transfer_bytes"),
    "process_wait": ("pid",),
    "buffer_create": ("nbytes",),
    "buffer_write": ("nbytes",),
    "buffer_read": ("nbytes",),
    "pipeline_destroy": ("pipeline",),
    "pipeline_enqueue": ("pipeline", "function"),
    "run_wait": ("run",),
    "run_function": ("function",),
}


class _CardProcess:
    """Daemon-side record of one launched MIC process."""

    def __init__(self, pid: int, name: str):
        self.pid = pid
        self.name = name
        self.exit_record: Optional[dict] = None
        self.done_event = None  # sim Event, set at creation
        self.functions: dict[str, object] = {}


class CoiDaemon:
    """The daemon instance for one card."""

    def __init__(self, machine, card: int = 0, port: int = COI_DAEMON_PORT):
        self.machine = machine
        self.sim = machine.sim
        self.card = card
        self.port = port
        self.uos = machine.uos(card)
        self.os_process = machine.card_process(f"coi_daemon-mic{card}", card=card)
        self.lib: NativeScif = machine.scif(self.os_process)
        self._pids = itertools.count(1)
        self.processes: dict[int, _CardProcess] = {}
        self.buffers: dict[int, tuple] = {}  # id -> (extent,)
        self._buffer_ids = itertools.count(1)
        self.launches = 0
        #: per-connection pipeline managers (keyed by endpoint id)
        self._pipeline_mgrs: dict[int, "PipelineManager"] = {}
        #: run_id -> RunRecord across all pipelines
        self.runs: dict[int, object] = {}

    # ------------------------------------------------------------------
    def run(self):
        """The daemon main loop (spawn as a sim process)."""
        ep = yield from self.lib.open()
        yield from self.lib.bind(ep, self.port)
        yield from self.lib.listen(ep, backlog=32)
        while True:
            try:
                conn, peer = yield from self.lib.accept(ep)
            except ScifError:
                return
            self.sim.spawn(self._serve(conn), name=f"coi-conn-{peer}")

    def _serve(self, conn):
        lib = self.lib
        try:
            while True:
                msg = yield from recv_msg(lib, conn)
                op = msg.get("type") if isinstance(msg, dict) else None
                handler = getattr(self, f"_op_{op}", None)
                missing = handler and next(
                    (f for f in _REQUIRED.get(op, ()) if f not in msg), None)
                if handler is None or missing:
                    error = f"{op}: no {missing!r} field" if missing else f"bad op {op!r}"
                    yield from send_msg(lib, conn, {"ok": False, "error": error})
                    continue
                reply = yield from handler(msg, conn)
                yield from send_msg(lib, conn, reply)
        except ScifError:
            return  # client went away

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_process_create(self, msg, conn):
        """Receive binary + deps, verify, exec the entry point."""
        name = msg["binary"]
        total = msg["transfer_bytes"]
        # the executable's own bytes arrive first (checksummed)...
        content = yield from recv_raw(self.lib, conn, msg["binary_size"])
        # ...then the dependency payload (modelled as one opaque blob)
        dep_bytes = total - msg["binary_size"]
        if dep_bytes > 0:
            yield from recv_raw(self.lib, conn, dep_bytes)
        binary = lookup_binary(name)
        if binary is None:
            return {"ok": False, "error": f"no such MIC binary {name!r}"}
        if zlib.crc32(content) != binary.checksum():
            return {"ok": False, "error": "binary checksum mismatch after transfer"}
        pid = next(self._pids)
        record = _CardProcess(pid, name)
        record.done_event = self.sim.event(name=f"coi-proc-{pid}")
        self.processes[pid] = record
        self.launches += 1
        proc = self.uos.create_process(f"{name}[{pid}]")

        def runner():
            gen = binary.entry(self.uos, proc, msg.get("argv", []), msg.get("env", {}))
            exit_record = yield from gen
            record.exit_record = exit_record if isinstance(exit_record, dict) else {
                "status": exit_record
            }
            proc.exit()
            record.done_event.succeed(record.exit_record)

        self.sim.spawn(runner(), name=f"mic-exec-{name}-{pid}")
        return {"ok": True, "pid": pid}

    def _op_process_wait(self, msg, conn):
        record = self.processes.get(msg["pid"])
        if record is None:
            return {"ok": False, "error": f"no pid {msg['pid']}"}
        if record.exit_record is None:
            yield record.done_event
        return {"ok": True, "exit": record.exit_record}

    def _op_buffer_create(self, msg, conn):
        try:
            ext = self.uos.phys.alloc(msg["nbytes"], label="coi-buffer")
        except MemError as err:
            yield self.sim.timeout(0)
            return {"ok": False, "error": str(err)}
        buf_id = next(self._buffer_ids)
        self.buffers[buf_id] = (ext,)
        yield self.sim.timeout(0)
        return {"ok": True, "buffer": buf_id}

    def _buffer_error(self, buf_id, off: int = 0, nbytes: int = 0) -> Optional[str]:
        """Why buffer ``buf_id`` and its range ``[off, off + nbytes)``
        cannot be served, or None when they can."""
        if not isinstance(buf_id, int) or buf_id not in self.buffers:
            return f"no buffer {buf_id!r}"
        size = self.buffers[buf_id][0].nbytes
        if off < 0 or nbytes < 0 or off + nbytes > size:
            return f"range [{off}, {off + nbytes}) outside buffer {buf_id} of {size} bytes"
        return None

    def _op_buffer_write(self, msg, conn):
        nbytes = msg["nbytes"]
        error = self._buffer_error(msg.get("buffer"), msg.get("offset", 0), nbytes)
        data = yield from recv_raw(self.lib, conn, max(nbytes, 0))
        if error:
            return {"ok": False, "error": error}
        (ext,) = self.buffers[msg["buffer"]]
        ext.write(data, off=msg.get("offset", 0))
        return {"ok": True}

    def _op_buffer_read(self, msg, conn):
        nbytes = msg["nbytes"]
        error = self._buffer_error(msg.get("buffer"), msg.get("offset", 0), nbytes)
        if error:
            # the client still receives nbytes before the reply
            yield from self.lib.send(conn, zero_bytes(max(nbytes, 0)))
            return {"ok": False, "error": error}
        (ext,) = self.buffers[msg["buffer"]]
        # views of card memory: send snapshots them on entry
        views = [v for _, v in ext.iter_views(msg.get("offset", 0), nbytes)]
        yield from self.lib.send(conn, views)
        return {"ok": True}

    def _op_buffer_destroy(self, msg, conn):
        error = self._buffer_error(msg.get("buffer"))
        if not error:
            (ext,) = self.buffers.pop(msg["buffer"])
            ext.free()
        yield self.sim.timeout(0)
        return {"ok": False, "error": error} if error else {"ok": True}

    # -- pipelines (ordered async queues with buffer-hazard tracking) ----
    def _mgr(self, conn) -> "PipelineManager":
        from .pipeline import PipelineManager

        mgr = self._pipeline_mgrs.get(conn.id)
        if mgr is None:
            mgr = self._pipeline_mgrs[conn.id] = PipelineManager(
                self.sim, self.uos, self.buffers
            )
        return mgr

    def _op_pipeline_create(self, msg, conn):
        yield self.sim.timeout(0)
        return {"ok": True, "pipeline": self._mgr(conn).create_pipeline()}

    def _op_pipeline_destroy(self, msg, conn):
        yield self.sim.timeout(0)
        self._mgr(conn).destroy_pipeline(msg["pipeline"])
        return {"ok": True}

    def _op_pipeline_enqueue(self, msg, conn):
        """Asynchronous: replies with the run id immediately; the kernel
        executes in pipeline order subject to buffer hazards."""
        yield self.sim.timeout(0)
        try:
            record = self._mgr(conn).enqueue(
                msg["pipeline"], msg["function"], msg.get("buffers", ()),
                msg.get("writes", ()), msg.get("args", {}),
            )
        except KeyError as err:
            return {"ok": False, "error": str(err)}
        self.runs[record.run_id] = record
        return {"ok": True, "run": record.run_id}

    def _op_run_wait(self, msg, conn):
        record = self.runs.get(msg["run"])
        if record is None:
            yield self.sim.timeout(0)
            return {"ok": False, "error": f"no run {msg['run']}"}
        if not record.done.fired:
            yield record.done
        return {"ok": True, **record.result}

    def _op_run_function(self, msg, conn):
        """Offload-mode RPC: run a named kernel against COI buffers."""
        from ..workloads.offload import lookup_offload_function

        fn = lookup_offload_function(msg["function"])
        if fn is None:
            return {"ok": False, "error": f"no offload function {msg['function']!r}"}
        ids = msg.get("buffers", ())
        for buf_id in ids:
            error = self._buffer_error(buf_id)
            if error:
                return {"ok": False, "error": error}
        buffers = [self.buffers[b][0] for b in ids]
        result = yield from fn(self.uos, buffers, msg.get("args", {}))
        return {"ok": True, "result": result}


def start_coi_daemon(machine, card: int = 0, port: int = COI_DAEMON_PORT) -> CoiDaemon:
    """Create and spawn the daemon for one card; returns the daemon."""
    daemon = CoiDaemon(machine, card=card, port=port)
    machine.sim.spawn(daemon.run(), name=f"coi_daemon-mic{card}")
    machine.uos(card).coi_daemon = daemon.os_process
    return daemon
