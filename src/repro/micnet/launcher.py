"""The ssh-based native-mode launcher (§IV-A's "first case").

scp the executable and every dependency to the card, then ssh-exec it —
what a user without micnativeloadex would do, and the path the paper
rejects for cloud setups ("such setups can end up with many users logged
in a shared accelerator environment ruining the isolation
characteristics of cloud computing").
"""

from __future__ import annotations

from ..mem import zero_bytes
from ..mpss.binaries import MICBinary
from ..mpss.micnativeloadex import LaunchResult
from .sshd import ssh_connect
from .stack import MicNetwork, NetSocket

__all__ = ["ssh_native_launch"]


def ssh_native_launch(
    machine,
    network: MicNetwork,
    sock: NetSocket,
    binary: MICBinary,
    argv=(),
    env=None,
    card: int = 0,
    user: str = "micuser",
):
    """Process: launch ``binary`` on the card over ssh; returns
    :class:`~repro.mpss.LaunchResult` (same record as micnativeloadex,
    so the two launch paths are directly comparable)."""
    sim = machine.sim
    t_start = sim.now
    session = yield from ssh_connect(network, sock, network.card_ip(card), user=user)
    # explicit copies: the executable and each shared library
    t_transfer0 = sim.now
    yield from session.scp(f"/tmp/{binary.name}", binary.image())
    for dep in binary.deps:
        yield from session.scp(f"/tmp/{dep.name}", zero_bytes(dep.size))
    transfer_time = sim.now - t_transfer0
    exit_record = yield from session.exec(binary.name, argv=argv, env=env)
    yield from session.close()
    return LaunchResult(
        exit_record=exit_record,
        total_time=sim.now - t_start,
        transfer_time=transfer_time,
        compute_time=exit_record.get("compute_time", 0.0),
        transferred_bytes=binary.total_transfer_bytes,
    )
