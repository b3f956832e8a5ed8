"""Cluster topology: hosts, cards, the inter-host fabric, and churn.

One :class:`Cluster` owns N :class:`~repro.system.Machine`\\ s driven by
a single :class:`~repro.sim.Simulator` — every machine's PCIe links,
SCIF fabrics and fault injectors advance on one deterministic clock, so
cluster runs replay bit-for-bit like single-machine runs do.  Cards are
addressed by :class:`CardRef` (host index, card index); the
:class:`~repro.cluster.place.PlacementScheduler` maps VMs onto them and
:func:`~repro.cluster.migrate.live_migrate` moves them.

Churn is first-class and *audited*: hot-unplug and host failure fire a
:class:`~repro.faults.Injection` through the owning machine's injector
(push API), so a chaos run's post-mortem reads one interleaved fault
history across datapath faults and topology events.

Churn semantics, deliberately asymmetric:

* **hot-unplug** is a *planned* detach (the SVFF model): the scheduler
  marks the card offline, every VM placed on it is live-migrated to the
  remaining capacity, and only then does the card leave the pool.  With
  no spare capacity the stragglers are evicted with typed errors.
* **host failure** is *abrupt*: no migration is possible (the journal
  lives with the frontend, but the QEMU backends just died), so every
  VM on the host is evicted — sessions go BROKEN, in-flight work aborts
  typed, and the host's cards leave the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.calibration import HOST, HostParams
from ..faults import FaultKind, FaultPlan
from ..pcie import LinkConfig
from ..scif.errors import ENXIO, EStaleEpoch
from ..sim import Mutex, SimError, Simulator
from ..system import Machine
from ..vphi import VPhiConfig
from .place import PlacementScheduler

__all__ = ["CardRef", "Cluster", "InterHostFabric"]


@dataclass(frozen=True, order=True)
class CardRef:
    """One card's cluster-wide address: (host index, card index)."""

    host: int
    card: int

    def __str__(self) -> str:
        return f"h{self.host}c{self.card}"


class InterHostFabric:
    """The network between hosts: per-hop latency + shared bandwidth.

    Modeled with the same idiom as :class:`~repro.pcie.PCIeLink`: each
    unordered host pair is one serialized pipe (a FIFO mutex — two
    concurrent bulk transfers between the same hosts queue, they don't
    magically share), a transfer costs ``hops * hop_latency`` of wire
    latency plus cut-through serialization at ``hop_bandwidth``.  The
    default bandwidth is an 8-lane gen-3 pipe from the PCIe cost tables
    (a 100GbE-class spine expressed in the calibrated machinery) — the
    point is not the absolute number but that migration cost scales with
    bytes shipped on the same axis everything else does.

    ``topology`` picks the hop count: ``"flat"`` (default) is one
    leaf-spine hop between any two hosts; ``"ring"`` walks the shorter
    arc of a ring, so distance matters.
    """

    TOPOLOGIES = ("flat", "ring")

    def __init__(
        self,
        sim: Simulator,
        hosts: int,
        hop_latency: Optional[float] = None,
        hop_bandwidth: Optional[float] = None,
        topology: str = "flat",
    ):
        if hosts < 1:
            raise ValueError("fabric needs at least one host")
        if topology not in self.TOPOLOGIES:
            raise ValueError(
                f"unknown fabric topology {topology!r} "
                f"(choose from {self.TOPOLOGIES})"
            )
        self.sim = sim
        self.hosts = hosts
        self.topology = topology
        link = LinkConfig(generation=3, lanes=8)
        self.hop_latency = (hop_latency if hop_latency is not None
                            else 5.0 * link.msg_latency)
        self.hop_bandwidth = (hop_bandwidth if hop_bandwidth is not None
                              else link.effective_bandwidth)
        self._locks: dict[tuple[int, int], Mutex] = {}
        #: metrics
        self.bytes_moved = 0
        self.transfers = 0
        self.busy_time = 0.0

    def hops(self, a: int, b: int) -> int:
        """Wire hops between two hosts (0 = same host, nothing moves)."""
        if a == b:
            return 0
        if self.topology == "ring":
            d = abs(a - b)
            return min(d, self.hosts - d)
        return 1

    def transfer_time(self, a: int, b: int, nbytes: int) -> float:
        """Uncontended cost of moving ``nbytes`` from host a to host b."""
        h = self.hops(a, b)
        if h == 0:
            return 0.0
        return h * self.hop_latency + nbytes / self.hop_bandwidth

    def _lock(self, a: int, b: int) -> Mutex:
        key = (min(a, b), max(a, b))
        lock = self._locks.get(key)
        if lock is None:
            lock = Mutex(self.sim, name=f"ihf-{key[0]}-{key[1]}")
            self._locks[key] = lock
        return lock

    def transfer(self, a: int, b: int, nbytes: int):
        """Process: move ``nbytes`` between hosts, holding their pipe."""
        if a == b:
            return 0.0
        lock = self._lock(a, b)
        yield lock.acquire()
        try:
            t = self.transfer_time(a, b, nbytes)
            yield self.sim.timeout(t)
            self.bytes_moved += nbytes
            self.transfers += 1
            self.busy_time += t
            return t
        finally:
            lock.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InterHostFabric {self.topology} hosts={self.hosts} "
            f"{self.hop_bandwidth / 1e9:.2f} GB/s/hop>"
        )


class Cluster:
    """N hosts × M cards on one deterministic clock."""

    def __init__(
        self,
        hosts: int = 2,
        cards_per_host: int = 1,
        card_model: str = "3120P",
        host_params: HostParams = HOST,
        fault_plan: Optional[FaultPlan] = None,
        placement: str = "spread",
        hop_latency: Optional[float] = None,
        hop_bandwidth: Optional[float] = None,
        fabric_topology: str = "flat",
        sim: Optional[Simulator] = None,
        power_model: str = "none",
        power_config=None,
        host_power_budget: Optional[float] = None,
    ):
        if hosts < 1:
            raise ValueError("cluster needs at least one host")
        if cards_per_host < 1:
            raise ValueError("cluster hosts need at least one card")
        self.sim = sim or Simulator()
        self.machines = [
            Machine(cards=cards_per_host, card_model=card_model,
                    host_params=host_params, sim=self.sim,
                    fault_plan=fault_plan,
                    power_model=power_model, power_config=power_config)
            for _ in range(hosts)
        ]
        self.fabric = InterHostFabric(
            self.sim, hosts, hop_latency=hop_latency,
            hop_bandwidth=hop_bandwidth, topology=fabric_topology,
        )
        self.scheduler = PlacementScheduler(
            self, policy=placement, host_power_budget=host_power_budget)
        #: VM name -> current CardRef (evicted VMs drop out).
        self.placements: dict[str, CardRef] = {}
        #: VM name -> VirtualMachine, for every VM ever created.
        self.vms: dict[str, object] = {}
        #: completed MigrationReports, in completion order.
        self.migrations: list = []
        #: VM names evicted by churn (host failure / capacity exhaustion).
        self.evicted: list[str] = []
        self.failed_hosts: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def hosts(self) -> int:
        return len(self.machines)

    @property
    def cards_per_host(self) -> int:
        return len(self.machines[0].devices)

    @property
    def cards(self) -> list[CardRef]:
        """Every card in the cluster, in (host, card) order."""
        return [
            CardRef(h, c)
            for h, m in enumerate(self.machines)
            for c in range(len(m.devices))
        ]

    def boot(self) -> "Cluster":
        """Boot every machine (sequentially, on the shared clock)."""
        for m in self.machines:
            m.boot()
        return self

    def machine(self, ref) -> Machine:
        """The machine owning one CardRef (or a bare host index)."""
        host = ref.host if isinstance(ref, CardRef) else ref
        return self.machines[host]

    def node_of(self, ref: CardRef) -> int:
        """One card's SCIF node id on its own host's fabric."""
        return self.machines[ref.host].card_node_id(ref.card)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def pepc(self):
        """The pepc-style power control plane over every card, with VM
        scope resolved through the cluster's placements."""
        from ..phi.pepc import PowerControl

        return PowerControl(self.machines, vms=self.vms)

    # ------------------------------------------------------------------
    def create_vm(
        self,
        name: str,
        ram_bytes: int = 2 << 30,
        vcpus: int = 1,
        vphi_config: Optional[VPhiConfig] = None,
        placement: Optional[CardRef] = None,
        arbiter_policy: Optional[str] = None,
    ):
        """Create a VM on the scheduler's (or an explicit) card.

        The VM's ``qos_share`` is what the bin-packing weighs — a
        2.0-share tenant occupies twice the card capacity of a 1.0.
        """
        if name in self.vms:
            raise SimError(f"cluster already has a VM named {name!r}")
        config = vphi_config or VPhiConfig()
        if placement is None:
            ref = self.scheduler.place(name, share=config.qos_share)
        else:
            ref = placement
            if ref not in self.scheduler.loads:
                raise SimError(f"no such card {ref} in this cluster")
            self.scheduler.assign(name, ref, share=config.qos_share)
        vm = self.machines[ref.host].create_vm(
            name=name, ram_bytes=ram_bytes, vcpus=vcpus,
            vphi_config=config, card=ref.card,
            arbiter_policy=arbiter_policy,
        )
        self.placements[name] = ref
        self.vms[name] = vm
        return vm

    def placement_of(self, vm) -> CardRef:
        name = vm if isinstance(vm, str) else vm.name
        try:
            return self.placements[name]
        except KeyError:
            raise SimError(f"VM {name!r} has no placement (evicted?)") from None

    def migrate(self, vm, dest: Optional[CardRef] = None):
        """Process: live-migrate one VM (scheduler picks ``dest=None``)."""
        from .migrate import live_migrate

        name = vm if isinstance(vm, str) else vm.name
        machine_vm = self.vms[name]
        if dest is None:
            src = self.placement_of(name)
            dest = self.scheduler.pick_dest(
                name, exclude={src},
                share=machine_vm.vphi.config.qos_share,
            )
            if dest is None:
                raise SimError(
                    f"no destination card for {name!r} (all offline?)"
                )
        report = yield from live_migrate(self, machine_vm, dest)
        return report

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def hot_unplug(self, host: int, card: int):
        """Process: planned card removal — drain by migration, detach.

        VMs placed on the card are live-migrated to the remaining online
        capacity; with none left (or a session too broken to move) they
        are evicted with typed errors.  Returns the displaced VM names.
        """
        ref = CardRef(host, card)
        if ref not in self.scheduler.loads:
            raise SimError(f"no such card {ref}")
        m = self.machines[host]
        m.faults.fire(FaultKind.CARD_UNPLUG)
        self.scheduler.set_offline(ref, True)
        victims = [n for n, r in self.placements.items() if r == ref]
        for name in victims:
            vm = self.vms[name]
            dest = self.scheduler.pick_dest(
                name, exclude={ref}, share=vm.vphi.config.qos_share,
            )
            if dest is None:
                self._evict(vm, f"card {ref} unplugged, no spare capacity")
                continue
            try:
                yield from self.migrate(name, dest)
            except EStaleEpoch:
                # the session broke underneath the migration (concurrent
                # churn); it cannot follow its card — evict it typed.
                self._evict(vm, f"card {ref} unplugged mid-recovery")
        return victims

    def hot_plug(self, host: int, card: int) -> CardRef:
        """Re-attach a previously unplugged card to the placement pool."""
        ref = CardRef(host, card)
        if ref not in self.scheduler.loads:
            raise SimError(f"no such card {ref}")
        if host in self.failed_hosts:
            raise SimError(f"host {host} is failed; cannot re-plug {ref}")
        self.scheduler.set_offline(ref, False)
        return ref

    def fail_host(self, host: int) -> list[str]:
        """Abrupt host death: evict its VMs, retire its cards.

        Synchronous — there is nothing to wait for; the failure *is*
        the event.  Returns the evicted VM names.
        """
        m = self.machines[host]
        m.faults.fire(FaultKind.HOST_FAIL)
        self.failed_hosts.add(host)
        for card in range(len(m.devices)):
            self.scheduler.set_offline(CardRef(host, card), True)
        victims = [n for n, r in self.placements.items() if r.host == host]
        for name in victims:
            self._evict(self.vms[name], f"host {host} failed")
        return victims

    def _evict(self, vm, cause: str) -> None:
        """Terminal removal: break the session, abort, release capacity."""
        inst = vm.vphi
        inst.frontend.session.force_broken(cause)
        be = inst.backend
        if be.pool is not None:
            be.pool.abort_inflight(lambda: ENXIO(cause))
        for ep in list(be.endpoints.values()):
            be._sever_endpoint(ep)
        be.endpoints.clear()
        self.scheduler.release(vm.name)
        self.placements.pop(vm.name, None)
        self.evicted.append(vm.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Cluster hosts={self.hosts} cards={len(self.cards)} "
            f"vms={len(self.placements)} migrations={len(self.migrations)}>"
        )
