"""sshd on the card: remote shell sessions over the mic0 network.

The §IV-A "first case" of native mode: "the user can ... ssh to the
accelerator and execute the application locally.  In [that] case the
user should explicitly copy the executables, libraries and other
dependencies on the coprocessor and then execute the application."

Protocol (length-framed pickles, like COI): ``scp`` (followed by raw
bytes) copies a file into the card's filesystem; ``exec`` runs a copied
binary; ``who`` lists every session the daemon has seen — which is how
the isolation problem the paper warns about becomes visible: every
bridged VM's user shows up in the same table.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Optional

from ..coi.protocol import recv_msg, send_msg
from ..mpss.binaries import lookup_binary
from ..scif import ScifError
from .stack import MicNetwork, NetSocket

__all__ = ["SshDaemon", "SshSession", "ssh_connect"]

SSH_PORT = 22
#: the request fields each command reads without a default
_REQUIRED = {"scp": ("path", "size"), "exec": ("binary",)}


@dataclass
class _SessionRecord:
    session_id: int
    user: str
    from_ip: str
    commands: list = field(default_factory=list)
    active: bool = True


class SshDaemon:
    """The card's sshd + a minimal filesystem for scp'ed files."""

    def __init__(self, machine, card: int = 0, network: Optional[MicNetwork] = None):
        self.machine = machine
        self.sim = machine.sim
        self.card = card
        self.network = network or MicNetwork(machine)
        self.uos = machine.uos(card)
        self.os_process = machine.card_process(f"sshd-mic{card}", card=card)
        self.lib = machine.scif(self.os_process)
        #: the card-local filesystem: path -> (size, crc32)
        self.filesystem: dict[str, tuple[int, int]] = {}
        self.sessions: list[_SessionRecord] = []
        self._session_ids = itertools.count(1)

    def start(self):
        self.sim.spawn(self._run(), name=f"sshd-mic{self.card}")
        return self

    # ------------------------------------------------------------------
    def _run(self):
        listener = NetSocket(self.network, self.lib)
        yield from listener.bind_listen(SSH_PORT, backlog=32)
        while True:
            try:
                sock, peer = yield from listener.accept()
            except ScifError:
                return
            self.sim.spawn(self._serve(sock, peer), name="sshd-session")

    def _serve(self, sock: NetSocket, peer):
        record = _SessionRecord(next(self._session_ids), user="?", from_ip=peer[0])
        self.sessions.append(record)
        lib, ep = sock.lib, sock.ep
        try:
            hello = yield from recv_msg(lib, ep)
            record.user = hello.get("user", "?")
            yield from send_msg(lib, ep, {"ok": True, "banner": f"mic{self.card} uOS"})
            while True:
                msg = yield from recv_msg(lib, ep)
                op = msg.get("type") if isinstance(msg, dict) else None
                record.commands.append(op)
                handler = getattr(self, f"_cmd_{op}", None)
                missing = handler and next(
                    (f for f in _REQUIRED.get(op, ()) if f not in msg), None)
                if handler is None or missing:
                    error = f"{op}: no {missing!r} field" if missing else f"bad command {op}"
                    yield from send_msg(lib, ep, {"ok": False, "error": error})
                    continue
                reply = yield from handler(msg, sock)
                yield from send_msg(lib, ep, reply)
        except ScifError:
            pass
        finally:
            record.active = False

    # ------------------------------------------------------------------
    def _cmd_scp(self, msg, sock: NetSocket):
        """Receive one file's bytes into the card filesystem."""
        data = yield from sock.recv(msg["size"])
        self.filesystem[msg["path"]] = (msg["size"], zlib.crc32(data))
        return {"ok": True, "path": msg["path"]}

    def _cmd_exec(self, msg, sock: NetSocket):
        """Run a previously copied binary locally on the card."""
        name = msg["binary"]
        path = f"/tmp/{name}"
        if path not in self.filesystem:
            return {"ok": False, "error": f"{path}: No such file or directory"}
        binary = lookup_binary(name)
        if binary is None:
            return {"ok": False, "error": f"{name}: not executable"}
        size, crc = self.filesystem[path]
        if crc != binary.checksum():
            return {"ok": False, "error": f"{path}: corrupted upload"}
        missing = [
            f"/tmp/{dep.name}" for dep in binary.deps
            if f"/tmp/{dep.name}" not in self.filesystem
        ]
        if missing:
            return {"ok": False,
                    "error": f"error while loading shared libraries: {missing[0]}"}
        proc = self.uos.create_process(f"ssh-exec-{name}")
        exit_record = yield from binary.entry(
            self.uos, proc, msg.get("argv", []), msg.get("env", {})
        )
        proc.exit()
        return {"ok": True, "exit": exit_record}

    def _cmd_who(self, msg, sock: NetSocket):
        """List sessions — every tenant on the shared card sees this."""
        yield self.sim.timeout(0)
        return {
            "ok": True,
            "sessions": [
                {"id": r.session_id, "user": r.user, "from": r.from_ip,
                 "active": r.active, "commands": list(r.commands)}
                for r in self.sessions
            ],
        }

    def _cmd_ls(self, msg, sock: NetSocket):
        yield self.sim.timeout(0)
        return {"ok": True, "files": sorted(self.filesystem)}


class SshSession:
    """Client-side ssh session handle."""

    def __init__(self, sock: NetSocket, banner: str):
        self.sock = sock
        self.banner = banner

    def scp(self, path: str, content):
        """Copy bytes to the card."""
        yield from send_msg(self.sock.lib, self.sock.ep,
                            {"type": "scp", "path": path, "size": len(content)})
        yield from self.sock.send(content)
        reply = yield from recv_msg(self.sock.lib, self.sock.ep)
        if not reply.get("ok"):
            raise ScifError(reply.get("error"))
        return reply

    def exec(self, binary: str, argv=(), env=None):
        yield from send_msg(self.sock.lib, self.sock.ep,
                            {"type": "exec", "binary": binary,
                             "argv": list(argv), "env": dict(env or {})})
        reply = yield from recv_msg(self.sock.lib, self.sock.ep)
        if not reply.get("ok"):
            raise ScifError(reply.get("error"))
        return reply["exit"]

    def who(self):
        yield from send_msg(self.sock.lib, self.sock.ep, {"type": "who"})
        reply = yield from recv_msg(self.sock.lib, self.sock.ep)
        return reply["sessions"]

    def ls(self):
        yield from send_msg(self.sock.lib, self.sock.ep, {"type": "ls"})
        reply = yield from recv_msg(self.sock.lib, self.sock.ep)
        return reply["files"]

    def close(self):
        yield from self.sock.close()


def ssh_connect(network: MicNetwork, sock: NetSocket, ip: str, user: str = "micuser"):
    """Process: open an ssh session to ``ip``; returns :class:`SshSession`."""
    yield from sock.connect(ip, SSH_PORT)
    yield from send_msg(sock.lib, sock.ep, {"type": "hello", "user": user})
    reply = yield from recv_msg(sock.lib, sock.ep)
    return SshSession(sock, reply.get("banner", ""))
