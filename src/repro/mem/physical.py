"""Physical memory model: sparse, chunk-backed, byte-addressable.

Each simulated RAM (host DDR3, guest RAM, Xeon Phi GDDR5) is a
:class:`PhysicalMemory`.  Storage is materialized lazily in fixed-size
chunks of one numpy array each, so a simulated 64 GB host costs nothing
until written, while bulk copies still run at numpy speed (the guides'
"views, not copies" rule: all internal transfers slice chunk arrays
directly).

A never-written chunk reads as zeros, and zeros cost nothing to hold:

* ``write`` leaves a never-written chunk unmaterialized when the bytes
  it would receive are all zero;
* reads (``read``, ``read_into``, ``iter_views``) serve a never-written
  chunk from one shared, read-only zero chunk, so a stray write through
  such a view raises instead of corrupting memory;
* ``copy`` (the DMA move) from a never-written source moves nothing into
  a never-written destination;
* bytes whose memory *is* the zero chunk are known zeros and never
  scanned: the views reads serve, and :func:`zero_bytes`, an ``n``-byte
  zero payload that occupies no storage at all.

Reads never materialize storage; only ``write``, ``fill`` and the
destination of a ``copy`` from written memory do.

A :class:`PhysicalMemory` can be *nested*: a VM's RAM is carved out of an
extent of host RAM, so guest-physical address ``g`` **is** host-physical
``base + g`` and the QEMU backend's zero-copy access to guest buffers falls
out of the representation instead of being faked.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

import numpy as np

from .errors import BadAddress, MemError, OutOfMemory
from .pages import PAGE_SIZE, page_align_up

__all__ = ["PhysicalMemory", "PhysExtent", "CHUNK_SIZE", "POISON_BYTE", "zero_bytes"]

#: Materialization granularity of backing storage.
CHUNK_SIZE = 1 << 20  # 1 MiB

#: Pattern written into freshly *reused* frames so stale reads are detectable
#: (the paper's pinning discussion: an RMA against a swapped-out page reads
#: whatever now occupies the frame).
POISON_BYTE = 0xDD

#: What every never-written chunk reads as: shared by all memories and
#: read-only, so a view of it can never be written through.
_ZERO_CHUNK = np.zeros(CHUNK_SIZE, dtype=np.uint8)
_ZERO_CHUNK.flags.writeable = False


def zero_bytes(n: int) -> np.ndarray:
    """``n`` read-only zero bytes that occupy no storage.

    A stride-0 view of the zero chunk: :func:`holds_nonzero` knows it
    without a scan, so sending it, or writing it into never-written
    memory, costs no host work beyond the bookkeeping, however large
    ``n`` is.
    """
    return np.broadcast_to(_ZERO_CHUNK[:1], (n,))


def holds_nonzero(piece: np.ndarray) -> bool:
    """Whether a non-empty uint8 array holds a non-zero byte.

    A view of the zero chunk (a never-written chunk's read view, or
    :func:`zero_bytes`) is known zeros and is not scanned; the chunk is
    read-only, so no view of it can ever hold anything else.  Any other
    piece is scanned: its end bytes decide most non-zero pieces, then
    ``max()``, which numpy runs about four times faster than ``any()``
    over uint8.
    """
    if piece.base is _ZERO_CHUNK or piece is _ZERO_CHUNK:
        return False
    return bool(piece[0] or piece[-1] or piece.max())


class PhysExtent:
    """A contiguous physical byte range owned by an allocation."""

    __slots__ = ("mem", "addr", "nbytes", "_freed", "label")

    def __init__(self, mem: "PhysicalMemory", addr: int, nbytes: int, label: str = ""):
        self.mem = mem
        self.addr = addr
        self.nbytes = nbytes
        self.label = label
        self._freed = False

    @property
    def end(self) -> int:
        return self.addr + self.nbytes

    @property
    def freed(self) -> bool:
        return self._freed

    def _check(self, off: int, n: int) -> None:
        if self._freed:
            raise BadAddress(f"use-after-free of extent {self.label!r}@{self.addr:#x}")
        if off < 0 or n < 0 or off + n > self.nbytes:
            raise BadAddress(
                f"extent {self.label!r} access [{off}, {off + n}) outside size {self.nbytes}"
            )

    def read(self, off: int = 0, nbytes: Optional[int] = None) -> np.ndarray:
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        return self.mem.read(self.addr + off, nbytes)

    def read_into(self, out: np.ndarray, off: int = 0) -> None:
        """Copy extent bytes directly into ``out`` (a uint8 array or view)."""
        self._check(off, len(out))
        self.mem.read_into(self.addr + off, out)

    def iter_views(self, off: int = 0, nbytes: Optional[int] = None):
        """Yield ``(offset, chunk_view)`` pairs covering the range, zero-copy."""
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        return self.mem.iter_views(self.addr + off, nbytes)

    def write(self, data: np.ndarray | bytes, off: int = 0) -> None:
        data = np.asarray(bytearray(data), dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data
        self._check(off, len(data))
        self.mem.write(self.addr + off, data)

    def fill(self, byte: int, off: int = 0, nbytes: Optional[int] = None) -> None:
        nbytes = self.nbytes - off if nbytes is None else nbytes
        self._check(off, nbytes)
        self.mem.fill(self.addr + off, nbytes, byte)

    def free(self) -> None:
        self.mem.free(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PhysExtent {self.label!r} [{self.addr:#x}, {self.end:#x}) in {self.mem.name!r}>"


class PhysicalMemory:
    """Byte-addressable physical memory with a first-fit range allocator."""

    def __init__(
        self,
        size: int,
        name: str = "",
        parent: Optional[PhysExtent] = None,
    ):
        if size <= 0:
            raise ValueError("memory size must be positive")
        if parent is not None and parent.nbytes < size:
            raise ValueError("parent extent smaller than requested memory size")
        self.size = size
        self.name = name
        self.parent = parent
        # Free list: sorted list of [start, end) holes.
        self._holes: list[tuple[int, int]] = [(0, size)]
        self._extents: dict[int, PhysExtent] = {}
        self._chunks: dict[int, np.ndarray] = {}
        #: bytes currently allocated (accounting).
        self.bytes_allocated = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = PAGE_SIZE, label: str = "") -> PhysExtent:
        """Allocate a physically contiguous, ``align``-aligned extent."""
        if nbytes <= 0:
            raise MemError("allocation size must be positive")
        if align <= 0 or (align & (align - 1)):
            raise MemError(f"alignment must be a power of two, got {align}")
        nbytes = page_align_up(nbytes)
        for i, (start, end) in enumerate(self._holes):
            base = (start + align - 1) & ~(align - 1)
            if base + nbytes <= end:
                # Split the hole around [base, base+nbytes).
                newholes = []
                if start < base:
                    newholes.append((start, base))
                if base + nbytes < end:
                    newholes.append((base + nbytes, end))
                self._holes[i : i + 1] = newholes
                ext = PhysExtent(self, base, nbytes, label=label)
                self._extents[base] = ext
                self.bytes_allocated += nbytes
                return ext
        raise OutOfMemory(
            f"{self.name or 'memory'}: cannot allocate {nbytes} bytes "
            f"(allocated {self.bytes_allocated}/{self.size})"
        )

    def free(self, extent: PhysExtent) -> None:
        if extent.mem is not self:
            raise MemError("extent belongs to a different memory")
        if extent._freed:
            raise MemError(f"double free of extent @{extent.addr:#x}")
        stored = self._extents.pop(extent.addr, None)
        if stored is not extent:
            raise MemError(f"unknown extent @{extent.addr:#x}")
        extent._freed = True
        self.bytes_allocated -= extent.nbytes
        self._poison(extent.addr, extent.nbytes)
        self._insert_hole(extent.addr, extent.end)

    def _poison(self, addr: int, nbytes: int) -> None:
        """Scribble poison over the written bytes of a freed range.

        A later reuse of the range sees garbage, not the old contents,
        which is what makes stale reads against swapped/freed frames
        detectable in the pinning experiments.  A nested memory (VM RAM)
        holds no storage of its own, so the range is resolved to the root
        memory first.  Only materialized ranges holding a non-zero byte
        are poisoned: a never-written range reads as zeros, has nothing
        to leak, and stays untouched, so freeing it costs no RSS.
        """
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        end = addr + nbytes
        chunks = mem._chunks
        for ci in range(addr // CHUNK_SIZE, (end - 1) // CHUNK_SIZE + 1):
            chunk = chunks.get(ci)
            if chunk is not None:
                base = ci * CHUNK_SIZE
                view = chunk[max(addr - base, 0) : min(end - base, CHUNK_SIZE)]
                if holds_nonzero(view):
                    view[:] = POISON_BYTE

    def _insert_hole(self, start: int, end: int) -> None:
        starts = [h[0] for h in self._holes]
        i = bisect.bisect_left(starts, start)
        self._holes.insert(i, (start, end))
        # Coalesce with neighbours.
        merged: list[tuple[int, int]] = []
        for s, e in self._holes:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._holes = merged

    @property
    def bytes_free(self) -> int:
        return sum(e - s for s, e in self._holes)

    def largest_free_block(self) -> int:
        return max((e - s for s, e in self._holes), default=0)

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    def _bounds(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise BadAddress(
                f"{self.name or 'memory'}: access [{addr:#x}, {addr + nbytes:#x}) "
                f"outside size {self.size:#x}"
            )

    def _spans(self, addr: int, nbytes: int) -> Iterator[tuple[np.ndarray, int, int, int]]:
        """Yield ``(chunk, chunk_lo, chunk_hi, dest_off)`` covering the range.

        A never-written chunk is yielded as the shared read-only zero chunk.
        """
        chunks = self._chunks
        off = 0
        while off < nbytes:
            ci, co = divmod(addr + off, CHUNK_SIZE)
            n = min(CHUNK_SIZE - co, nbytes - off)
            yield chunks.get(ci, _ZERO_CHUNK), co, co + n, off
            off += n

    def _resolve(self, addr: int) -> tuple["PhysicalMemory", int]:
        """Flatten a nested address to (root memory, root address).

        Walks the parent chain once instead of recursing through each
        level's read/write; liveness of every intermediate extent is still
        enforced so use-after-free of a carved region keeps raising.
        """
        mem: PhysicalMemory = self
        while mem.parent is not None:
            ext = mem.parent
            if ext._freed:
                raise BadAddress(
                    f"use-after-free of extent {ext.label!r}@{ext.addr:#x}"
                )
            addr += ext.addr
            mem = ext.mem
        return mem, addr

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Copy ``nbytes`` out as a fresh uint8 array."""
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        ci, co = divmod(addr, CHUNK_SIZE)
        if co + nbytes <= CHUNK_SIZE:
            return mem._chunks.get(ci, _ZERO_CHUNK)[co : co + nbytes].copy()
        out = np.empty(nbytes, dtype=np.uint8)
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            out[doff : doff + (hi - lo)] = chunk[lo:hi]
        return out

    def read_into(self, addr: int, out: np.ndarray) -> None:
        """Copy ``len(out)`` bytes directly into ``out`` — one copy, no temp."""
        nbytes = len(out)
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        ci, co = divmod(addr, CHUNK_SIZE)
        if co + nbytes <= CHUNK_SIZE:
            out[:] = mem._chunks.get(ci, _ZERO_CHUNK)[co : co + nbytes]
            return
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            out[doff : doff + (hi - lo)] = chunk[lo:hi]

    def iter_views(self, addr: int, nbytes: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(offset, chunk_view)`` pairs covering the range.

        The views alias live backing storage — callers must consume (copy)
        each one before the next simulated write can touch the range.  A
        never-written chunk's view is of the shared zero chunk, read-only.
        """
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        for chunk, lo, hi, doff in mem._spans(addr, nbytes):
            yield doff, chunk[lo:hi]

    def write(self, addr: int, data: np.ndarray | bytes) -> None:
        """Store ``data`` at ``addr``.  A never-written chunk stays
        unmaterialized when its share of ``data`` is all zero."""
        if isinstance(data, (bytes, bytearray, memoryview)):
            data = np.frombuffer(bytes(data), dtype=np.uint8)
        if data.dtype != np.uint8:
            data = data.view(np.uint8) if data.flags["C_CONTIGUOUS"] else np.ascontiguousarray(data).view(np.uint8)
        n = len(data)
        self._bounds(addr, n)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        chunks = mem._chunks
        off = 0
        while off < n:
            ci, co = divmod(addr + off, CHUNK_SIZE)
            take = min(CHUNK_SIZE - co, n - off)
            piece = data[off : off + take]
            off += take
            chunk = chunks.get(ci)
            if chunk is None:
                if not holds_nonzero(piece):
                    continue  # the never-written chunk already reads as this
                if take == CHUNK_SIZE:
                    # Whole-chunk overwrite: materialize from the payload
                    # directly instead of zero-filling first.
                    chunks[ci] = piece.copy()
                    continue
                chunk = chunks[ci] = np.zeros(CHUNK_SIZE, dtype=np.uint8)
            chunk[co : co + take] = piece

    def fill(self, addr: int, nbytes: int, byte: int) -> None:
        self._bounds(addr, nbytes)
        mem = self
        if self.parent is not None:
            mem, addr = self._resolve(addr)
        chunks = mem._chunks
        for chunk, lo, hi, off in mem._spans(addr, nbytes):
            if chunk is _ZERO_CHUNK:
                chunk = chunks[(addr + off) // CHUNK_SIZE] = np.zeros(CHUNK_SIZE, dtype=np.uint8)
            chunk[lo:hi] = byte

    def copy_within(self, dst: int, src: int, nbytes: int) -> None:
        """memmove-style copy inside this memory."""
        self.write(dst, self.read(src, nbytes))

    @staticmethod
    def copy(
        dst_mem: "PhysicalMemory",
        dst: int,
        src_mem: "PhysicalMemory",
        src: int,
        nbytes: int,
    ) -> None:
        """Copy between two physical memories (the DMA engine's data move).

        Streams chunk views in lockstep — one copy per span instead of a
        full read into a temporary followed by a full write.  A
        never-written source span moves nothing into a never-written
        destination and writes zeros into a materialized one.  Overlapping
        same-root ranges fall back to the copy-via-temporary path so the
        memmove semantics are preserved.
        """
        src_mem._bounds(src, nbytes)
        dst_mem._bounds(dst, nbytes)
        smem, s = src_mem._resolve(src) if src_mem.parent is not None else (src_mem, src)
        dmem, d = dst_mem._resolve(dst) if dst_mem.parent is not None else (dst_mem, dst)
        if smem is dmem and s < d + nbytes and d < s + nbytes:
            dst_mem.write(dst, src_mem.read(src, nbytes))
            return
        schunks, dchunks = smem._chunks, dmem._chunks
        off = 0
        while off < nbytes:
            sci, sco = divmod(s + off, CHUNK_SIZE)
            dci, dco = divmod(d + off, CHUNK_SIZE)
            take = min(CHUNK_SIZE - sco, CHUNK_SIZE - dco, nbytes - off)
            off += take
            schunk = schunks.get(sci)
            dchunk = dchunks.get(dci)
            if schunk is None:
                if dchunk is not None:
                    dchunk[dco : dco + take] = 0
                continue
            if dchunk is None:
                if take == CHUNK_SIZE:
                    dchunks[dci] = schunk.copy()
                    continue
                dchunk = dchunks[dci] = np.zeros(CHUNK_SIZE, dtype=np.uint8)
            dchunk[dco : dco + take] = schunk[sco : sco + take]

    def carve(self, nbytes: int, name: str = "", label: str = "") -> "PhysicalMemory":
        """Allocate an extent and wrap it as a nested PhysicalMemory.

        This is how a VM's RAM is created out of host RAM.
        """
        ext = self.alloc(nbytes, label=label or name)
        return PhysicalMemory(nbytes, name=name, parent=ext)

    @property
    def host_base(self) -> int:
        """For nested memories: offset of address 0 in the root memory."""
        base = 0
        mem: Optional[PhysicalMemory] = self
        while mem is not None and mem.parent is not None:
            base += mem.parent.addr
            mem = mem.parent.mem
        return base

    def root(self) -> "PhysicalMemory":
        mem = self
        while mem.parent is not None:
            mem = mem.parent.mem
        return mem

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PhysicalMemory {self.name!r} size={self.size:#x} "
            f"alloc={self.bytes_allocated:#x} nested={self.parent is not None}>"
        )
