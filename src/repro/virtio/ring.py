"""The virtio ring (vring): descriptor table + avail + used rings.

§II-C: "a shared ring structure is registered between the guest and the
host ... The frontend driver submits I/O requests by posting the
respective buffers in the shared ring and notifying the backend ...  no
copies are involved ... since a shared memory area (ring) is used and
also the host can access guest's physical address space".

Descriptors therefore carry **guest-physical addresses**; the backend
resolves them through the VM's memory slots
(:meth:`repro.kvm.vm.VirtualMachine.gpa_sg`), never by copying.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..sim import SimError

__all__ = ["DescFlag", "Descriptor", "VirtqueueElement", "Vring"]


class DescFlag(enum.IntFlag):
    NONE = 0
    #: descriptor continues via ``next``.
    NEXT = 0x1
    #: buffer is device-writable (a response/in buffer).
    WRITE = 0x2


@dataclass
class Descriptor:
    """One vring descriptor: a guest-physical buffer reference."""

    addr: int  # guest physical address
    len: int
    flags: DescFlag = DescFlag.NONE
    next: int = -1


@dataclass
class VirtqueueElement:
    """A popped descriptor chain, split into out (driver->device) and in
    (device->driver) buffers, plus the driver's request header object."""

    head: int
    out: list[Descriptor] = field(default_factory=list)
    inb: list[Descriptor] = field(default_factory=list)
    #: the request header riding the chain (a Python object in this model;
    #: in hardware it would be serialized into the first out buffer).
    header: Any = None
    #: bytes the device wrote into the in buffers (reported via used ring).
    written: int = 0


class Vring:
    """The shared ring: fixed-size descriptor table + avail/used FIFOs."""

    def __init__(self, size: int = 256):
        if size <= 0 or size & (size - 1):
            raise SimError(f"vring size must be a power of two, got {size}")
        self.size = size
        self._table: list[Optional[Descriptor]] = [None] * size
        self._free: deque[int] = deque(range(size))
        self._headers: dict[int, Any] = {}
        self._avail: deque[int] = deque()
        self._used: deque[tuple[int, int]] = deque()
        #: statistics
        self.total_submissions = 0
        self.peak_in_flight = 0

    # ------------------------------------------------------------------
    # driver (guest) side
    # ------------------------------------------------------------------
    @property
    def num_free(self) -> int:
        return len(self._free)

    def add_chain(
        self,
        out: list[tuple[int, int]],
        inb: list[tuple[int, int]],
        header: Any = None,
    ) -> int:
        """Allocate descriptors for a request; returns the head index.

        ``out``/``inb`` are lists of ``(guest_physical_addr, len)``.
        """
        need = len(out) + len(inb)
        if need == 0:
            raise SimError("descriptor chain needs at least one buffer")
        if need > len(self._free):
            raise SimError(
                f"vring full: need {need} descriptors, {len(self._free)} free"
            )
        ids = [self._free.popleft() for _ in range(need)]
        chain = [(a, l, DescFlag.NONE) for a, l in out] + [
            (a, l, DescFlag.WRITE) for a, l in inb
        ]
        for i, (addr, length, flags) in enumerate(chain):
            nxt = ids[i + 1] if i + 1 < need else -1
            if nxt != -1:
                flags |= DescFlag.NEXT
            self._table[ids[i]] = Descriptor(addr, length, flags, nxt)
        head = ids[0]
        self._headers[head] = header
        self._avail.append(head)
        self.total_submissions += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return head

    @property
    def in_flight(self) -> int:
        return self.size - len(self._free)

    def get_used(self) -> Optional[tuple[int, int, Any]]:
        """Driver: reap one completion -> (head, written, header) or None."""
        if not self._used:
            return None
        head, written = self._used.popleft()
        header = self._headers.pop(head, None)
        self._release_chain(head)
        return head, written, header

    # ------------------------------------------------------------------
    # device (backend) side
    # ------------------------------------------------------------------
    def avail_pending(self) -> int:
        return len(self._avail)

    def pop_avail(self) -> Optional[VirtqueueElement]:
        """Device: take the next submitted chain, or None."""
        if not self._avail:
            return None
        head = self._avail.popleft()
        elem = VirtqueueElement(head=head, header=self._headers.get(head))
        idx = head
        while idx != -1:
            desc = self._table[idx]
            if desc is None:
                raise SimError(f"corrupt chain: descriptor {idx} is free")
            (elem.inb if desc.flags & DescFlag.WRITE else elem.out).append(desc)
            idx = desc.next if desc.flags & DescFlag.NEXT else -1
        return elem

    def push_used(self, elem: VirtqueueElement, written: int = 0,
                  header: Any = None) -> None:
        """Device: complete a chain (it becomes visible to get_used).

        ``header`` optionally replaces the chain's header object — the
        device writing its response record into the shared buffer.
        """
        elem.written = written
        if header is not None:
            elem.header = header
            self._headers[elem.head] = header
        self._used.append((elem.head, written))

    # ------------------------------------------------------------------
    def _release_chain(self, head: int) -> None:
        idx = head
        while idx != -1:
            desc = self._table[idx]
            if desc is None:
                raise SimError(f"double release of descriptor {idx}")
            self._table[idx] = None
            self._free.append(idx)
            idx = desc.next if desc.flags & DescFlag.NEXT else -1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Vring size={self.size} free={len(self._free)} "
            f"avail={len(self._avail)} used={len(self._used)}>"
        )
