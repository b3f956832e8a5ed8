"""The SCIF fabric: node registry and inter-node transport selection.

SCIF numbers the host node 0 and each coprocessor 1..N (§II-B).  The
fabric knows which PCIe link and DMA engine sit between any two nodes so
the API layer can charge the right wire costs and move bytes through the
right engine.
"""

from __future__ import annotations

from typing import Optional

from ..oscore import Kernel
from ..phi import XeonPhiDevice
from ..sim import Simulator
from .constants import SCIF_HOST_NODE, SCIF_PORT_MAX, SCIF_PORT_RSVD
from .endpoint import Endpoint, EpState
from .errors import EADDRINUSE, EINVAL, ENXIO

__all__ = ["ScifNode", "ScifFabric"]


class ScifNode:
    """Per-node SCIF driver state: the port table."""

    def __init__(self, fabric: "ScifFabric", node_id: int, kernel: Kernel,
                 device: Optional[XeonPhiDevice] = None):
        self.fabric = fabric
        self.node_id = node_id
        self.kernel = kernel
        #: the PCIe card this node lives on (None for the host node).
        self.device = device
        self.ports: dict[int, Endpoint] = {}
        #: every endpoint ever opened on this node (reset() sweeps them).
        self.endpoints: list[Endpoint] = []
        self._next_ephemeral = SCIF_PORT_RSVD

    @property
    def is_host(self) -> bool:
        return self.node_id == SCIF_HOST_NODE

    def bind(self, ep: Endpoint, port: int) -> int:
        """Bind an endpoint to a port (0 = pick an ephemeral one)."""
        if port == 0:
            port = self.alloc_port()
        elif port in self.ports:
            raise EADDRINUSE(f"node {self.node_id} port {port} in use")
        elif not 0 < port <= SCIF_PORT_MAX:
            raise EINVAL(f"port {port} out of range")
        self.ports[port] = ep
        ep.port = port
        ep.state = EpState.BOUND
        return port

    def alloc_port(self) -> int:
        port = self._next_ephemeral
        while port in self.ports:
            port += 1
            if port > SCIF_PORT_MAX:
                raise EADDRINUSE("ephemeral port space exhausted")
        self._next_ephemeral = port + 1
        return port

    def release_port(self, port: int) -> None:
        self.ports.pop(port, None)

    def listener_at(self, port: int) -> Optional[Endpoint]:
        ep = self.ports.get(port)
        if ep is not None and ep.state is EpState.LISTENING:
            return ep
        return None

    def reset(self) -> int:
        """Hard-reset the node (card crash / mic driver reset).

        Every local endpoint dies immediately; connected peers on other
        nodes observe a connection reset, exactly as they would when a
        card is yanked mid-flight.  Returns the number of endpoints torn
        down.
        """
        torn = 0
        for ep in list(self.endpoints):
            if ep.state is EpState.CLOSED:
                continue
            torn += 1
            if ep.backlog is not None:
                while True:
                    ok, req = ep.backlog.try_get()
                    if not ok:
                        break
                    from .errors import ECONNRESET

                    req.reply.fail(ECONNRESET("node reset during connect"))
                ep.backlog.close()
            if ep.peer is not None:
                ep.peer.mark_peer_closed()
            ep.state = EpState.CLOSED
            ep.windows.clear()
            ep.recv_wait.wake_all()
            ep.poll_wait.wake_all()
        self.ports.clear()
        self.endpoints.clear()
        return torn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ScifNode {self.node_id} ports={len(self.ports)}>"


class ScifFabric:
    """All SCIF nodes reachable from one physical machine."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: dict[int, ScifNode] = {}

    # ------------------------------------------------------------------
    def attach_host(self, kernel: Kernel) -> ScifNode:
        if SCIF_HOST_NODE in self.nodes:
            raise EINVAL("host node already attached")
        node = ScifNode(self, SCIF_HOST_NODE, kernel)
        self.nodes[SCIF_HOST_NODE] = node
        return node

    def attach_device(self, device: XeonPhiDevice) -> ScifNode:
        """Attach a booted card as the next node id."""
        if device.uos is None:
            raise EINVAL(f"{device.name} has not booted a uOS")
        node_id = max(self.nodes, default=0) + 1
        node = ScifNode(self, node_id, device.uos, device=device)
        self.nodes[node_id] = node
        device.node_id = node_id
        device.uos.scif_node = node
        return node

    def node(self, node_id: int) -> ScifNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ENXIO(f"no SCIF node {node_id}") from None

    # ------------------------------------------------------------------
    # transport selection
    # ------------------------------------------------------------------
    def links_between(self, a: int, b: int):
        """The PCIe links a transfer between nodes ``a`` and ``b`` crosses
        (empty for loopback, one for host<->card, two for card<->card)."""
        links = []
        for nid in (a, b):
            node = self.node(nid)
            if node.device is not None:
                links.append(node.device.link)
        return links

    def msg_delay(self, a: int, b: int) -> float:
        """One-way small-message latency between two nodes."""
        return sum(link.config.msg_latency for link in self.links_between(a, b))

    def dma_engine(self, a: int, b: int):
        """DMA engine used for bulk transfers between two nodes.

        Host<->card uses the card's engine; card<->card (peer-to-peer)
        uses the initiator's engine (``a``).  Loopback returns None — the
        copy is a host memcpy, no engine involved.
        """
        node_a, node_b = self.node(a), self.node(b)
        if node_a.device is not None:
            return node_a.device.dma
        if node_b.device is not None:
            return node_b.device.dma
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ScifFabric nodes={sorted(self.nodes)}>"
