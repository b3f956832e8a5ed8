"""vPHI installation: wire frontend + backend into a VM.

``install_vphi(machine, vm)`` does what deploying the paper's artifact
does: instantiate the virtio device, insmod the frontend into the guest
kernel, plug the backend into the VM's QEMU, and replicate the host's mic
sysfs tree inside the guest (so Intel's tools run unmodified, §III
*Implementation details*).
"""

from __future__ import annotations

from typing import Optional

from ..scif import NativeScif
from ..sim import SimError
from ..virtio import VirtioDevice
from .backend import VPhiBackend
from .config import VPhiConfig
from .frontend import VPhiFrontend
from .guest_libscif import GuestScif

__all__ = ["VPhiInstance", "install_vphi"]


class VPhiInstance:
    """One VM's installed vPHI stack."""

    def __init__(self, vm, virtio: VirtioDevice, frontend: VPhiFrontend,
                 backend: VPhiBackend, config: VPhiConfig, card: int = 0):
        if frontend.tracer is not backend.tracer:
            raise SimError(
                f"{vm.name}: vPHI frontend and backend use different tracers; "
                "each would record half the timeline — pass one shared tracer"
            )
        self.vm = vm
        self.virtio = virtio
        self.frontend = frontend
        self.backend = backend
        self.config = config
        #: the card this VM's dispatch arbitrates against (live migration
        #: rewrites it when the VM moves).
        self.card = card

    def libscif(self, guest_process) -> GuestScif:
        """The guest's libscif for one guest user process."""
        if guest_process.kernel is not self.vm.guest_kernel:
            raise SimError(
                f"process {guest_process.name!r} does not run in {self.vm.name}"
            )
        return GuestScif(self.frontend, guest_process)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VPhiInstance {self.vm.name} {self.config.wait_mode}>"


def install_vphi(machine, vm, config: Optional[VPhiConfig] = None,
                 arbiter_policy: Optional[str] = None,
                 card: int = 0) -> VPhiInstance:
    """Install vPHI into ``vm`` on ``machine``.  Returns the instance.

    ``arbiter_policy`` selects the card arbiter's scheduling policy
    (``"rr"`` | ``"wfq"`` | ``"priority"``) for the per-card arbiter
    shared by every pooled VM on that card; ``None`` keeps whatever
    the arbiter already runs (``"rr"`` on first creation — the paper's
    baseline, so the Fig 4/5 and A8-A11 goldens are untouched).
    ``card`` names the card whose arbiter this VM joins (one host can
    carry several cards; credit fairness is per card, not per machine).
    """
    if machine.kernel.scif_node is None:
        raise SimError("machine not booted: no host SCIF node")
    config = config or VPhiConfig()
    virtio = VirtioDevice(
        machine.sim, name=f"{vm.name}-virtio-vphi", guest_domain=vm.domain,
        suppress_notifications=config.suppress_notifications,
    )
    # the backend's libscif runs in the QEMU host process — one SCIF
    # context per VM, which is what makes card sharing "just processes".
    lib = NativeScif(
        machine.fabric, machine.kernel.scif_node, vm.qemu_process,
        host_params=machine.host_params,
    )
    # frontend and backend share the VM's tracer: one timeline per VM, so
    # per-VM breakdowns don't mix and no half of the path goes unrecorded
    # both halves draw from the machine's one injector, so a plan's
    # cadence counters span the whole datapath deterministically
    faults = machine.faults
    frontend = VPhiFrontend(
        vm, virtio, config=config, host_params=machine.host_params,
        tracer=vm.tracer, faults=faults,
    )
    # all pooled VMs on one card share one dispatch arbiter — that is
    # what makes the credit fairness *per card*, not per VM.  Lazily
    # created so blocking-mode machines carry no arbiter at all.
    arbiter = None
    if config.pooled:
        arbiter = machine.arbiter_for(card, policy=arbiter_policy)
        # the tenant's QoS identity lives in its own VPhiConfig; the
        # shared arbiter learns it at install time (and re-learns it on
        # reinstall — configure() is safe mid-flight).
        arbiter.configure(vm.name, weight=config.qos_share,
                          priority=config.qos_priority)
    # the card's power model, when enabled, makes backend dispatch
    # frequency-aware
    backend = VPhiBackend(
        vm, virtio, lib, machine.kernel, config=config, tracer=vm.tracer,
        faults=faults, arbiter=arbiter, device=machine.devices[card],
    )
    # the machine's injector learns every backend sharing the card so a
    # CARD_RESET broadcast reaches all of them
    faults.attach_backend(backend)
    # card resets / backend restarts invalidate host-side state; the
    # frontend's session manager hears about it through this hook
    backend.session_listener = frontend.session.on_backend_invalidated
    # replicate the host's mic sysfs inside the guest (live passthrough)
    for path, _ in machine.kernel.sysfs.walk():
        vm.guest_kernel.sysfs.publish(
            path, (lambda p=path: machine.kernel.sysfs.read(p))
        )
    instance = VPhiInstance(vm, virtio, frontend, backend, config, card=card)
    vm.vphi = instance
    return instance
