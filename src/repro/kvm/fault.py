"""The KVM EPT fault path — including the paper's <10-LOC modification.

§III (*Guest memory registration and MMIO*): after a guest ``scif_mmap``,
a guest-side load/store faults into the KVM module on the host.  Stock
KVM would interpret the faulting frame as ordinary guest RAM and resolve
to "an invalid memory area".  vPHI therefore tags the VMAs it creates
with ``VM_PFNPHI`` and stores the physical frame of the Xeon Phi region;
the modified fault handler spots the tag and installs a mapping to device
memory instead.

``KvmMmu(modified=False)`` reproduces the *unmodified* behaviour so the
failure mode the paper describes is testable.
"""

from __future__ import annotations

from typing import Sequence

from ..mem import (
    AddressSpace,
    BadAddress,
    PAGE_SIZE,
    PageFault,
    SGEntry,
    VMA,
    VMAFlag,
    page_align_down,
)

__all__ = ["KvmMmu", "PfnPhiInfo"]


class PfnPhiInfo:
    """The driver-private record stashed on a VM_PFNPHI VMA: where in Xeon
    Phi memory each page of the mapping lives (the 'stored frame number')."""

    __slots__ = ("runs",)

    def __init__(self, runs: Sequence[SGEntry]):
        self.runs = list(runs)

    def locate(self, rel: int) -> tuple:
        """(memory, paddr) for byte offset ``rel`` into the mapping."""
        pos = 0
        for run in self.runs:
            if pos <= rel < pos + run.nbytes:
                return run.mem, run.paddr + (rel - pos)
            pos += run.nbytes
        raise BadAddress(f"PFNPHI offset {rel:#x} beyond mapped window")


class KvmMmu:
    """The host-side second-level fault handler for one VM."""

    def __init__(self, vm_name: str, modified: bool = True):
        self.vm_name = vm_name
        #: whether the paper's <10-LOC patch is applied.
        self.modified = modified
        #: EPT faults resolved through the VM_PFNPHI patch.
        self.pfnphi_faults = 0
        #: EPT faults on untagged VMAs (always unresolvable here).
        self.regular_faults = 0
        #: :meth:`zap_vma` calls (one per mapping re-established by a
        #: session rebuild or migration).
        self.vma_zaps = 0

    def handle_fault(self, space: AddressSpace, vma: VMA, page_vaddr: int):
        """Resolve one guest fault.  Installed as the VMA fault handler for
        vPHI device mappings; returns ``(memory, paddr)`` for the page."""
        if vma.flags & VMAFlag.PFNPHI:
            if not self.modified:
                # Stock KVM: the address is interpreted against host memory
                # and lands nowhere valid.
                raise PageFault(
                    page_vaddr,
                    f"kvm[{self.vm_name}]: EPT fault on PFNPHI vma "
                    f"{vma.name!r} but the host kvm module is unmodified "
                    "(the paper's <10-LOC patch is required)",
                )
            info = vma.private
            if not isinstance(info, PfnPhiInfo):
                raise PageFault(page_vaddr, "PFNPHI vma without stored frame info")
            self.pfnphi_faults += 1
            rel = page_align_down(page_vaddr) - vma.start
            mem, paddr = info.locate(rel)
            if paddr % PAGE_SIZE:
                raise PageFault(page_vaddr, "PFNPHI mapping not page aligned")
            return mem, paddr
        self.regular_faults += 1
        raise PageFault(page_vaddr, f"kvm[{self.vm_name}]: unhandled EPT fault")

    def zap_vma(self, space: AddressSpace, vma: VMA) -> int:
        """Drop every installed translation for ``vma``.

        After a card reset the frame numbers stashed on a PFNPHI VMA are
        stale — the windows were rebuilt and may live elsewhere on the
        card.  Session recovery swaps ``vma.private`` for the fresh
        :class:`PfnPhiInfo` and zaps the old EPT entries; the next guest
        access faults back into :meth:`handle_fault` and resolves against
        the new frames.  Returns the number of pages zapped.
        """
        zapped = 0
        for vaddr in range(vma.start, vma.end, PAGE_SIZE):
            if space.is_present(vaddr):
                space.unmap_page(vaddr)
                zapped += 1
        self.vma_zaps += 1
        return zapped
