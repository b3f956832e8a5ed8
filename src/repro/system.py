"""The physical machine: host + Xeon Phi cards + SCIF fabric, pre-wired.

:class:`Machine` reproduces the paper's testbed in one call::

    from repro import Machine

    m = Machine(cards=1)          # Xeon E5-2695v2 host + one 3120P
    m.boot()                      # boot uOS, load drivers, publish sysfs

    proc = m.host_process("client")
    lib = m.scif(proc)            # libscif for that process
    # ... yield from lib.connect(...) inside a sim process

Everything below (VMs, vPHI, COI, the tools) builds on this object.
"""

from __future__ import annotations

from typing import Optional

from .analysis.calibration import HOST, HostParams
from .faults import FaultInjector, FaultPlan
from .host import HostKernel
from .mem import PhysicalMemory
from .oscore import OSProcess
from .phi import XeonPhiDevice
from .scif import NativeScif, ScifFabric
from .sim import SimError, Simulator

__all__ = ["Machine"]


class Machine:
    """One physical server with coprocessors, matching §IV-A by default."""

    def __init__(
        self,
        cards: int = 1,
        card_model: str = "3120P",
        host_params: HostParams = HOST,
        sim: Optional[Simulator] = None,
        fault_plan: Optional[FaultPlan] = None,
        power_model: str = "none",
        power_config=None,
    ):
        if cards < 0:
            raise ValueError("cards must be >= 0")
        self.sim = sim or Simulator()
        self.host_params = host_params
        self.ram = PhysicalMemory(host_params.ram_bytes, name="host-ram")
        self.kernel = HostKernel(self.sim, self.ram)
        #: the card power model in force (``"none"`` keeps every series
        #: byte-identical to the pre-power era; ``"knc"`` opts in).
        self.power_model = power_model
        self.devices = [
            XeonPhiDevice(self.sim, card_model, index=i,
                          power_model=power_model, power_config=power_config)
            for i in range(cards)
        ]
        self.fabric = ScifFabric(self.sim)
        #: deterministic fault source shared by every injection site on
        #: this machine (PCIe links, host chardev, per-VM vPHI devices).
        self.faults = FaultInjector(fault_plan, self.sim)
        for dev in self.devices:
            self.faults.attach_link(dev.link)
        #: per-card dispatch arbiters, created lazily by :meth:`arbiter_for`.
        self.card_arbiters: dict = {}
        self._booted = False

    # ------------------------------------------------------------------
    def boot_process(self):
        """Process: boot every card, attach the fabric, publish sysfs."""
        self.kernel.attach_scif(self.fabric)
        if self.kernel.scif_dev is not None:
            self.kernel.scif_dev.faults = self.faults
        for dev in self.devices:
            yield from dev.boot()
            self.fabric.attach_device(dev)
            self.kernel.publish_mic_sysfs(dev)
        self._booted = True
        return self

    def boot(self) -> "Machine":
        """Synchronous convenience: run the simulator through boot."""
        proc = self.sim.spawn(self.boot_process(), name="machine-boot")
        self.sim.run()
        if not proc.triggered:
            raise SimError("machine boot did not complete")
        return self

    @property
    def booted(self) -> bool:
        return self._booted

    # ------------------------------------------------------------------
    def create_vm(
        self,
        name: str = "vm0",
        ram_bytes: int = 2 << 30,
        vcpus: int = 1,
        vphi_config=None,
        kvm_modified: bool = True,
        card: int = 0,
        arbiter_policy=None,
    ):
        """Spawn a QEMU-KVM guest with vPHI installed.

        Returns the :class:`~repro.kvm.VirtualMachine`; its ``vphi``
        attribute is the installed :class:`~repro.vphi.VPhiInstance`
        (``vm.vphi.libscif(guest_process)`` gives the guest's libscif).
        ``card`` picks which of this machine's cards the VM's pooled
        dispatch arbitrates against (card sharing is per card, not per
        machine).
        """
        from .kvm import VirtualMachine
        from .vphi import install_vphi

        if not self._booted:
            raise SimError("boot() the machine before creating VMs")
        vm = VirtualMachine(
            self.sim, self.kernel, name=name, ram_bytes=ram_bytes,
            vcpus=vcpus, kvm_modified=kvm_modified,
        )
        install_vphi(self, vm, config=vphi_config, card=card,
                     arbiter_policy=arbiter_policy)
        return vm

    def arbiter_for(self, card: int = 0, slots=None, policy=None):
        """The dispatch arbiter for one card, created on first use.

        ``slots`` applies only on creation (default: the host's cores);
        ``policy``, when given, switches an existing arbiter too.
        """
        from .vphi.pool import CardArbiter

        arb = self.card_arbiters.get(card)
        if arb is None:
            arb = CardArbiter(
                self.sim,
                slots=slots if slots is not None else self.host_params.cores,
                name=f"vphi-arbiter-c{card}",
            )
            self.card_arbiters[card] = arb
        if policy is not None:
            arb.set_policy(policy)
        return arb

    def pepc(self, vms: Optional[dict] = None):
        """The pepc-style power control plane over this machine's cards.

        ``vms`` optionally maps VM names to their
        :class:`~repro.kvm.VirtualMachine` so VM-scoped operations
        resolve (a VM's scope is the card its vPHI dispatch targets).
        """
        from .phi.pepc import PowerControl

        return PowerControl([self], vms=vms)

    def host_process(self, name: str) -> OSProcess:
        """Create a host user process."""
        return self.kernel.create_process(name)

    def card_process(self, name: str, card: int = 0) -> OSProcess:
        """Create a process running on a card's uOS."""
        uos = self._uos(card)
        return uos.create_process(name)

    def scif(self, process: OSProcess) -> NativeScif:
        """libscif bound to a process (host or card — SCIF is symmetric)."""
        kernel = process.kernel
        if kernel is self.kernel:
            node = self.kernel.scif_node
        else:
            node = getattr(kernel, "scif_node", None)
        if node is None:
            raise SimError(f"no SCIF node for process {process.name!r}; boot() first")
        return NativeScif(self.fabric, node, process, host_params=self.host_params)

    def card_node_id(self, card: int = 0) -> int:
        dev = self.devices[card]
        if dev.node_id is None:
            raise SimError(f"{dev.name} not attached; boot() first")
        return dev.node_id

    def _uos(self, card: int):
        dev = self.devices[card]
        if dev.uos is None:
            raise SimError(f"{dev.name} not booted")
        return dev.uos

    def uos(self, card: int = 0):
        return self._uos(card)

    def reboot_card(self, card: int = 0):
        """Process: hard-reset + reboot one card, reattaching its SCIF node.

        Established connections die (peers see resets); after the reboot
        the same node id serves fresh connections — the recovery story a
        shared-accelerator deployment needs.
        """
        dev = self.devices[card]
        node_id = dev.node_id
        yield from dev.reset(self.fabric)
        yield from dev.boot()
        if node_id is not None:
            node = self.fabric.node(node_id)
            node.kernel = dev.uos
            dev.uos.scif_node = node
            dev.node_id = node_id
        return dev

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Machine cards={len(self.devices)} booted={self._booted}>"
