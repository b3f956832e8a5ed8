"""The virtual machine: guest RAM, guest kernel, vCPUs, QEMU, memory slots.

The representation makes the paper's zero-copy claim structural: guest RAM
is *carved out of host RAM* (a nested :class:`~repro.mem.PhysicalMemory`),
so a guest-physical address is host-physical ``slot_base + gpa`` and the
QEMU backend touches guest buffers through plain SG entries — exactly like
the real backend, which "registers guest memory when the VM boots" and
maps buffers instead of copying (§III).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.calibration import VPHI_COSTS, VPhiCosts
from ..mem import PhysExtent, PhysicalMemory, SGEntry
from ..oscore import Kernel, OSProcess
from ..sim import Domain, SimError, Simulator, Tracer
from .fault import KvmMmu
from .qemu import QemuProcess

__all__ = ["GuestKernel", "VirtualMachine"]

GB = 1 << 30


class GuestKernel(Kernel):
    """The guest's Linux: kmalloc and processes live in guest RAM."""

    def __init__(self, sim: Simulator, phys: PhysicalMemory, vm_name: str):
        super().__init__(sim, phys, name=f"guest-linux-{vm_name}")
        #: the vPHI frontend driver module, once insmod'ed.
        self.vphi_frontend = None
        #: guest sysfs; vPHI mirrors the host's mic tree here.
        from ..oscore import Sysfs

        self.sysfs = Sysfs()


class VirtualMachine:
    """One QEMU-KVM guest on the host."""

    def __init__(
        self,
        sim: Simulator,
        host_kernel,
        name: str = "vm0",
        ram_bytes: int = 2 * GB,
        vcpus: int = 1,
        costs: VPhiCosts = VPHI_COSTS,
        kvm_modified: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        if vcpus < 1:
            raise SimError("VM needs at least one vCPU")
        self.sim = sim
        self.name = name
        self.vcpus = vcpus
        self.costs = costs
        #: the VM's tracer: one shared timeline for everything this guest
        #: does (the vPHI frontend *and* backend both default to it, so
        #: per-VM breakdowns never split across two tracers).
        self.tracer = tracer or Tracer()
        self.tracer.bind_clock(lambda: sim.now)
        #: guest RAM is one memory slot carved from host RAM.
        self.ram = host_kernel.phys.carve(ram_bytes, name=f"{name}-ram")
        self.guest_kernel = GuestKernel(sim, self.ram, name)
        #: the freezable execution context of everything inside the guest.
        self.domain = Domain(sim, name=name)
        #: QEMU: one host process per VM (this is what enables sharing).
        self.qemu_process: OSProcess = host_kernel.create_process(f"qemu-{name}")
        self.qemu = QemuProcess(sim, self.qemu_process, self.domain, costs=costs)
        self.mmu = KvmMmu(name, modified=kvm_modified)
        self.host_kernel = host_kernel

    # ------------------------------------------------------------------
    # memory slots
    # ------------------------------------------------------------------
    @property
    def slot_base(self) -> int:
        """Host-physical address of guest-physical 0."""
        return self.ram.host_base

    def gpa_sg(self, gpa: int, nbytes: int) -> list[SGEntry]:
        """Resolve a guest-physical range to host memory (zero copy).

        The backend uses this for every buffer referenced from the virtio
        ring.  Bounds are checked against the slot.
        """
        if gpa < 0 or gpa + nbytes > self.ram.size:
            raise SimError(
                f"{self.name}: gpa [{gpa:#x},{gpa + nbytes:#x}) outside guest RAM"
            )
        return [SGEntry(self.ram, gpa, nbytes)]

    def extent_sg(self, ext: PhysExtent, nbytes: Optional[int] = None) -> list[SGEntry]:
        """SG for a guest kernel extent (kmalloc chunk) — guest physical."""
        if ext.mem is not self.ram:
            raise SimError("extent does not belong to this VM's RAM")
        return self.gpa_sg(ext.addr, ext.nbytes if nbytes is None else nbytes)

    # ------------------------------------------------------------------
    def guest_process(self, name: str) -> OSProcess:
        """Create a guest user process."""
        return self.guest_kernel.create_process(name)

    def spawn_guest(self, gen, name: str = "guest-proc"):
        """Spawn a sim process that executes *inside* the guest: it is
        frozen whenever QEMU handles a blocking event."""
        return self.sim.spawn(gen, name=f"{self.name}:{name}", domain=self.domain)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VirtualMachine {self.name} ram={self.ram.size // GB}GB vcpus={self.vcpus}>"
