"""Virtual address spaces: VMAs, page tables, pinning, swap, fault hooks.

This models exactly the machinery §III of the paper leans on:

* ``scif_register`` needs :meth:`AddressSpace.pin` (the get_user_pages
  model) so RMA targets cannot be swapped out from under a transfer;
* ``scif_mmap`` installs a *device* VMA whose fault handler resolves to
  Xeon Phi memory — and under vPHI the guest-side VMA is tagged
  :data:`VMAFlag.PFNPHI` carrying the host frame number, which is the
  <10-LOC KVM modification;
* the swap model makes the paper's warning concrete: an RMA against an
  unpinned page that was swapped out reads stale bytes *without* faulting,
  because DMA bypasses the page tables.
"""

from __future__ import annotations

import bisect
import enum
from typing import Callable, Optional

import numpy as np

from .errors import BadAddress, MemError, PageFault, PinViolation
from .pages import PAGE_SHIFT, PAGE_SIZE, page_align_down, page_align_up, page_offset
from .physical import PhysExtent, PhysicalMemory

__all__ = ["VMAFlag", "VMA", "PTE", "PinnedPages", "AddressSpace", "SGEntry"]


class VMAFlag(enum.IntFlag):
    """VMA permission / type flags (subset of Linux ``vm_flags``)."""

    READ = 0x1
    WRITE = 0x2
    ANON = 0x10
    #: device mapping (no anonymous backing; faults go to the handler)
    DEVICE = 0x20
    #: the paper's new tag: this VMA maps Xeon Phi memory through vPHI and
    #: stores the physical frame so KVM's fault path can resolve EPT faults.
    PFNPHI = 0x1000


#: ``fault_handler(vma, page_vaddr) -> (mem, paddr)`` resolving one page.
FaultHandler = Callable[["VMA", int], tuple[PhysicalMemory, int]]


class VMA:
    """A virtual memory area: ``[start, end)`` with flags and fault hook."""

    __slots__ = ("start", "end", "flags", "name", "fault_handler", "private")

    def __init__(
        self,
        start: int,
        end: int,
        flags: VMAFlag,
        name: str = "",
        fault_handler: Optional[FaultHandler] = None,
    ):
        self.start = start
        self.end = end
        self.flags = flags
        self.name = name
        self.fault_handler = fault_handler
        #: scratch slot for driver-private data (vPHI stores the base PFN
        #: of the mapped Xeon Phi region here — the "stored frame number").
        self.private: object = None

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VMA {self.name!r} [{self.start:#x},{self.end:#x}) {self.flags!r}>"


class PTE:
    """Page-table entry: where one virtual page currently lives."""

    __slots__ = ("mem", "paddr", "pin_count", "extent")

    def __init__(self, mem: PhysicalMemory, paddr: int, extent: Optional[PhysExtent] = None):
        self.mem = mem
        self.paddr = paddr
        self.pin_count = 0
        #: owning extent for anonymous pages (freed on unmap/swap).
        self.extent = extent


class SGEntry:
    """One physically contiguous run of a scatter-gather list."""

    __slots__ = ("mem", "paddr", "nbytes")

    def __init__(self, mem: PhysicalMemory, paddr: int, nbytes: int):
        self.mem = mem
        self.paddr = paddr
        self.nbytes = nbytes

    def __iter__(self):
        return iter((self.mem, self.paddr, self.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SG {self.mem.name!r}@{self.paddr:#x}+{self.nbytes}>"


class PinnedPages:
    """Result of :meth:`AddressSpace.pin` — holds pages resident until unpinned."""

    __slots__ = ("space", "vaddr", "nbytes", "sg", "_vpns", "active")

    def __init__(self, space: "AddressSpace", vaddr: int, nbytes: int,
                 sg: list[SGEntry], vpns: list[int]):
        self.space = space
        self.vaddr = vaddr
        self.nbytes = nbytes
        self.sg = sg
        self._vpns = vpns
        self.active = True

    def unpin(self) -> None:
        self.space.unpin(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PinnedPages {self.vaddr:#x}+{self.nbytes} runs={len(self.sg)} active={self.active}>"


class AddressSpace:
    """One process's (or one kernel's) virtual address space."""

    #: default placement base for mmap without an address hint.
    MMAP_BASE = 0x7F00_0000_0000

    def __init__(self, phys: PhysicalMemory, name: str = ""):
        self.phys = phys
        self.name = name
        self._vmas: list[VMA] = []  # sorted by start
        self._pt: dict[int, PTE] = {}  # vpn -> PTE
        self._swap: dict[int, bytes] = {}  # vpn -> swapped-out contents
        self._next_map = self.MMAP_BASE
        #: counters for the experiments
        self.fault_count = 0
        self.swapin_count = 0
        self.swapout_count = 0

    # ------------------------------------------------------------------
    # VMA management
    # ------------------------------------------------------------------
    def mmap(
        self,
        length: int,
        flags: VMAFlag = VMAFlag.READ | VMAFlag.WRITE | VMAFlag.ANON,
        name: str = "",
        addr: Optional[int] = None,
        fault_handler: Optional[FaultHandler] = None,
        populate: bool = False,
    ) -> VMA:
        """Create a mapping; returns the VMA (its ``start`` is the address).

        ``populate=True`` eagerly backs an anonymous VMA with one contiguous
        extent — used by benchmark buffers so scatter-gather lists coalesce.
        """
        if length <= 0:
            raise MemError("mmap length must be positive")
        length = page_align_up(length)
        if addr is None:
            addr = self._next_map
            self._next_map += length + PAGE_SIZE  # guard page gap
        elif page_offset(addr):
            raise MemError(f"mmap hint {addr:#x} not page aligned")
        if self._overlaps(addr, addr + length):
            raise MemError(f"mmap [{addr:#x},{addr + length:#x}) overlaps existing VMA")
        vma = VMA(addr, addr + length, flags, name=name, fault_handler=fault_handler)
        starts = [v.start for v in self._vmas]
        self._vmas.insert(bisect.bisect_left(starts, vma.start), vma)
        if populate:
            if fault_handler is not None:
                raise MemError("populate only applies to anonymous VMAs")
            ext = self.phys.alloc(length, label=name or "anon")
            for i in range(length >> PAGE_SHIFT):
                vpn = (addr >> PAGE_SHIFT) + i
                self._pt[vpn] = PTE(self.phys, ext.addr + (i << PAGE_SHIFT), extent=None)
            # Remember the extent on the VMA so munmap can free it wholesale.
            vma.private = ext
        return vma

    def munmap(self, vma: VMA) -> None:
        try:
            self._vmas.remove(vma)
        except ValueError:
            raise MemError(f"munmap of unknown VMA {vma!r}") from None
        for vpn in range(vma.start >> PAGE_SHIFT, vma.end >> PAGE_SHIFT):
            pte = self._pt.pop(vpn, None)
            if pte is not None:
                if pte.pin_count:
                    raise PinViolation(
                        f"munmap of pinned page {vpn << PAGE_SHIFT:#x} in {vma.name!r}"
                    )
                if pte.extent is not None:
                    pte.extent.free()
            self._swap.pop(vpn, None)
        if isinstance(vma.private, PhysExtent) and not vma.private.freed:
            vma.private.free()

    def _overlaps(self, start: int, end: int) -> bool:
        for v in self._vmas:
            if v.start < end and start < v.end:
                return True
        return False

    def find_vma(self, vaddr: int) -> Optional[VMA]:
        starts = [v.start for v in self._vmas]
        i = bisect.bisect_right(starts, vaddr) - 1
        if i >= 0 and self._vmas[i].contains(vaddr):
            return self._vmas[i]
        return None

    # ------------------------------------------------------------------
    # translation and faults
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> tuple[PhysicalMemory, int]:
        """Resolve ``vaddr`` to (memory, physical address), faulting if needed."""
        vpn = vaddr >> PAGE_SHIFT
        pte = self._pt.get(vpn)
        if pte is None:
            pte = self._fault(vaddr)
        return pte.mem, pte.paddr + page_offset(vaddr)

    def _fault(self, vaddr: int) -> PTE:
        vma = self.find_vma(vaddr)
        if vma is None:
            raise BadAddress(f"{self.name}: no VMA maps {vaddr:#x} (SIGSEGV)")
        self.fault_count += 1
        vpn = vaddr >> PAGE_SHIFT
        if vma.fault_handler is not None:
            mem, paddr = vma.fault_handler(vma, vpn << PAGE_SHIFT)
            pte = PTE(mem, paddr)
        elif vma.flags & VMAFlag.ANON:
            ext = self.phys.alloc(PAGE_SIZE, label=vma.name or "anon")
            pte = PTE(self.phys, ext.addr, extent=ext)
            swapped = self._swap.pop(vpn, None)
            if swapped is not None:
                self.swapin_count += 1
                self.phys.write(ext.addr, swapped)
        else:
            raise PageFault(vaddr, f"{self.name}: VMA {vma.name!r} has no backing")
        self._pt[vpn] = pte
        return pte

    def unmap_page(self, vaddr: int) -> None:
        pte = self._pt.pop(vaddr >> PAGE_SHIFT, None)
        if pte is None:
            raise MemError(f"page {vaddr:#x} not mapped")
        if pte.pin_count:
            raise PinViolation(f"unmap of pinned page {vaddr:#x}")

    def is_present(self, vaddr: int) -> bool:
        return (vaddr >> PAGE_SHIFT) in self._pt

    # ------------------------------------------------------------------
    # CPU-style access (walks page tables, takes faults)
    # ------------------------------------------------------------------
    def read(self, vaddr: int, nbytes: int) -> np.ndarray:
        out = np.empty(nbytes, dtype=np.uint8)
        off = 0
        while off < nbytes:
            mem, paddr, run = self._contiguous_run(vaddr + off, nbytes - off)
            mem.read_into(paddr, out[off : off + run])
            off += run
        return out

    def write(self, vaddr: int, data: np.ndarray | bytes) -> None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = np.frombuffer(bytes(data), dtype=np.uint8)
        nbytes = len(data)
        off = 0
        while off < nbytes:
            mem, paddr, run = self._contiguous_run(vaddr + off, nbytes - off)
            mem.write(paddr, data[off : off + run])
            off += run

    def _contiguous_run(self, vaddr: int, nbytes: int) -> tuple[PhysicalMemory, int, int]:
        """Translate ``vaddr`` and extend across physically contiguous pages.

        Returns ``(mem, paddr, run)`` where ``run <= nbytes`` covers every
        consecutive page whose translation stays contiguous in ``mem`` —
        populated VMAs collapse to a single memory op instead of one per
        4 KiB page.  Pages are faulted in the same sequential order the
        page-at-a-time loop used.
        """
        mem, paddr = self.translate(vaddr)
        run = min(PAGE_SIZE - page_offset(vaddr), nbytes)
        while run < nbytes:
            m2, p2 = self.translate(vaddr + run)
            if m2 is not mem or p2 != paddr + run:
                break
            run += min(PAGE_SIZE, nbytes - run)
        return mem, paddr, run

    # ------------------------------------------------------------------
    # scatter-gather resolution (the DMA view of a user buffer)
    # ------------------------------------------------------------------
    def sg_list(self, vaddr: int, nbytes: int, fault_in: bool = True) -> list[SGEntry]:
        """Resolve a virtual range to coalesced physical runs.

        ``fault_in=False`` reads the page tables *without* faulting —
        that is how DMA sees memory, and why unpinned swapped-out pages
        yield stale physical frames (:class:`PageFault` is raised here only
        if the page was never mapped at all).
        """
        if nbytes <= 0:
            return []
        runs: list[SGEntry] = []
        off = 0
        while off < nbytes:
            a = vaddr + off
            if fault_in:
                mem, paddr = self.translate(a)
            else:
                pte = self._pt.get(a >> PAGE_SHIFT)
                if pte is None:
                    raise PageFault(a, f"{self.name}: DMA against non-present page")
                mem, paddr = pte.mem, pte.paddr + page_offset(a)
            n = min(PAGE_SIZE - page_offset(a), nbytes - off)
            if runs and runs[-1].mem is mem and runs[-1].paddr + runs[-1].nbytes == paddr:
                runs[-1].nbytes += n
            else:
                runs.append(SGEntry(mem, paddr, n))
            off += n
        return runs

    # ------------------------------------------------------------------
    # pinning (get_user_pages) and swap
    # ------------------------------------------------------------------
    def pin(self, vaddr: int, nbytes: int) -> PinnedPages:
        """Fault in and pin every page of ``[vaddr, vaddr+nbytes)``."""
        if nbytes <= 0:
            raise MemError("pin length must be positive")
        start = page_align_down(vaddr)
        end = page_align_up(vaddr + nbytes)
        vpns = []
        for vpn in range(start >> PAGE_SHIFT, end >> PAGE_SHIFT):
            a = vpn << PAGE_SHIFT
            pte = self._pt.get(vpn)
            if pte is None:
                pte = self._fault(a)
            pte.pin_count += 1
            vpns.append(vpn)
        sg = self.sg_list(vaddr, nbytes, fault_in=False)
        return PinnedPages(self, vaddr, nbytes, sg, vpns)

    def unpin(self, pinned: PinnedPages) -> None:
        if not pinned.active:
            raise PinViolation("double unpin")
        if pinned.space is not self:
            raise PinViolation("unpin against the wrong address space")
        pinned.active = False
        for vpn in pinned._vpns:
            pte = self._pt.get(vpn)
            if pte is None or pte.pin_count <= 0:
                raise PinViolation(f"unpin of unpinned page {vpn << PAGE_SHIFT:#x}")
            pte.pin_count -= 1

    def swap_out(self, vaddr: int) -> bool:
        """Evict one anonymous page to swap.  Returns False if it was pinned
        (the kernel skips pinned pages) or not present."""
        vpn = page_align_down(vaddr) >> PAGE_SHIFT
        pte = self._pt.get(vpn)
        if pte is None:
            return False
        if pte.pin_count > 0:
            return False
        if pte.extent is None:
            # Not an anonymous page we own (device mapping / populated
            # extent) — leave it alone, like the kernel would.
            return False
        self._swap[vpn] = bytes(pte.mem.read(pte.paddr, PAGE_SIZE))
        pte.extent.free()
        del self._pt[vpn]
        self.swapout_count += 1
        return True

    def resident_pages(self) -> int:
        return len(self._pt)

    def pinned_pages(self) -> int:
        return sum(1 for pte in self._pt.values() if pte.pin_count > 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AddressSpace {self.name!r} vmas={len(self._vmas)} resident={len(self._pt)}>"
