"""Stateful property test: never-written memory reads as zero and costs nothing.

A host RAM, a VM RAM carved out of it (at an offset that is not
chunk-aligned, so the two see different chunk boundaries) and a card RAM
are driven by random writes, fills, DMA copies, frees and reads, and
checked byte for byte against dense ``bytearray`` shadows.  A write's
payload is a fresh array, a read-only one, or the zero view
(``zero_bytes``), which the memory trusts as zeros without scanning; a
read-only array is trusted for nothing.  Beyond the bytes: no read ever
materializes a chunk, a write materializes exactly the never-written
chunks its non-zero bytes land in, a copy from never-written memory
materializes nothing, and the shared zero chunk stays all zero and
read-only.
"""

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.mem import CHUNK_SIZE, PAGE_SIZE, POISON_BYTE, OutOfMemory, PhysicalMemory
from repro.mem.physical import _ZERO_CHUNK, zero_bytes

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "15"))

MEMS = ("host", "vm", "card")
#: longest single access: spans up to three chunks
MAX_LEN = 2 * CHUNK_SIZE + 17


def _nonzero(buf) -> bool:
    return buf.count(0) != len(buf)


def _chunks_of(lo: int, hi: int) -> range:
    """Root chunk indices the root range [lo, hi) covers."""
    return range(lo // CHUNK_SIZE, (hi - 1) // CHUNK_SIZE + 1)


class ZeroPageMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.host = PhysicalMemory(6 * CHUNK_SIZE, "host")
        self.host.alloc(3 * PAGE_SIZE)  # the VM's RAM starts off a chunk boundary
        vm = self.host.carve(3 * CHUNK_SIZE, name="vm")
        card = PhysicalMemory(3 * CHUNK_SIZE, "card")
        self.mems = {"host": self.host, "vm": vm, "card": card}
        self.roots = {"host": self.host, "vm": self.host, "card": card}
        self.base = {"host": 0, "vm": vm.host_base, "card": 0}
        assert self.base["vm"] % CHUNK_SIZE
        shadow = {self.host: bytearray(self.host.size), card: bytearray(card.size)}
        self.shadow = {name: shadow[self.roots[name]] for name in MEMS}
        self.live = []  # (memory name, extent)

    # -- helpers --------------------------------------------------------
    def _addr(self, data, name: str, n: int) -> int:
        """An address for an n-byte access, often just off a root chunk
        boundary so the access ends or starts on a chunk's edge bytes."""
        size, base = self.mems[name].size, self.base[name]
        edges = [ci * CHUNK_SIZE - base + d
                 for ci in range(1, (base + size) // CHUNK_SIZE + 1)
                 for d in (-n, -n + 1, -1, 0, 1)]
        edges = [a for a in edges if 0 <= a <= size - n]
        anywhere = st.integers(0, size - n)
        return data.draw(st.sampled_from(edges) | anywhere if edges else anywhere)

    def _range(self, data, name: str) -> tuple[int, int]:
        n = data.draw(st.integers(1, min(MAX_LEN, self.mems[name].size)))
        return self._addr(data, name, n), n

    def _expect(self, name: str, addr: int, n: int) -> bytes:
        lo = self.base[name] + addr
        return bytes(self.shadow[name][lo : lo + n])

    def _chunk_set(self, name: str) -> set[int]:
        return set(self.roots[name]._chunks)

    # -- rules ----------------------------------------------------------
    @rule(data=st.data(), name=st.sampled_from(MEMS),
          kind=st.sampled_from(["zero", "sparse", "dense"]), whole=st.booleans(),
          form=st.sampled_from(["fresh", "read-only", "zero view"]))
    def write(self, data, name, kind, whole, form):
        mem, base = self.mems[name], self.base[name]
        if form == "zero view":
            kind = "zero"
        if whole:  # whole root chunks
            starts = range((-base) % CHUNK_SIZE, mem.size - CHUNK_SIZE + 1, CHUNK_SIZE)
            addr = data.draw(st.sampled_from(starts))
            n = CHUNK_SIZE * data.draw(st.integers(1, min(2, (mem.size - addr) // CHUNK_SIZE)))
        else:
            addr, n = self._range(data, name)
        lo = base + addr
        payload = np.zeros(n, dtype=np.uint8)
        if kind == "dense":
            seed = data.draw(st.integers(0, 2**32 - 1))
            payload[:] = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)
        elif kind == "sparse":
            # the payload's end bytes and the bytes on both sides of each
            # chunk edge it crosses are where a piece-wise zero test can go wrong
            crossed = range(lo // CHUNK_SIZE + 1, (lo + n - 1) // CHUNK_SIZE + 1)
            edges = [0, n - 1] + [c * CHUNK_SIZE - lo + d for c in crossed for d in (-1, 0)]
            where = data.draw(st.lists(st.sampled_from(edges) | st.integers(0, n - 1),
                                       min_size=1, max_size=3))
            payload[where] = data.draw(st.integers(1, 255))
        if form == "read-only":
            payload.flags.writeable = False
        elif form == "zero view":
            payload = zero_bytes(n)
        before = self._chunk_set(name)
        mem.write(addr, payload)
        self.shadow[name][lo : lo + n] = payload.tobytes()
        added = self._chunk_set(name) - before
        expected = {ci for ci in _chunks_of(lo, lo + n) if ci not in before
                    and payload[max(ci * CHUNK_SIZE - lo, 0) : (ci + 1) * CHUNK_SIZE - lo].max()}
        assert added == expected, "a write materialized the wrong chunks"

    @rule(data=st.data(), name=st.sampled_from(MEMS),
          byte=st.just(0) | st.integers(1, 255))
    def fill(self, data, name, byte):
        addr, n = self._range(data, name)
        before = self._chunk_set(name)
        self.mems[name].fill(addr, n, byte)
        lo = self.base[name] + addr
        self.shadow[name][lo : lo + n] = bytes([byte]) * n
        assert self._chunk_set(name) == before | set(_chunks_of(lo, lo + n))

    @rule(data=st.data(), dst_name=st.sampled_from(MEMS), src_name=st.sampled_from(MEMS),
          overlap=st.booleans())
    def copy(self, data, dst_name, src_name, overlap):
        src, n = self._range(data, src_name)
        dst_size = self.mems[dst_name].size
        if n > dst_size:
            return
        # an overlapping destination starts within n bytes of the source
        # in the root they share
        near = self.base[src_name] + src - self.base[dst_name]
        lo, hi = max(0, near - n + 1), min(dst_size - n, near + n - 1)
        if overlap and self.roots[dst_name] is self.roots[src_name] and lo <= hi:
            dst = data.draw(st.integers(lo, hi))
        else:
            dst = self._addr(data, dst_name, n)
        src_lo = self.base[src_name] + src
        src_written = set(_chunks_of(src_lo, src_lo + n)) & self._chunk_set(src_name)
        before = self._chunk_set(dst_name)
        PhysicalMemory.copy(self.mems[dst_name], dst, self.mems[src_name], src, n)
        moved = self._expect(src_name, src, n)
        dst_lo = self.base[dst_name] + dst
        self.shadow[dst_name][dst_lo : dst_lo + n] = moved
        if not src_written:
            assert self._chunk_set(dst_name) == before, \
                "a copy from never-written memory materialized a chunk"

    @rule(name=st.sampled_from(MEMS), pages=st.integers(1, 300))
    def alloc(self, name, pages):
        try:
            self.live.append((name, self.mems[name].alloc(pages * PAGE_SIZE)))
        except OutOfMemory:
            pass

    @rule(data=st.data())
    def free(self, data):
        if not self.live:
            return
        name, ext = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        ext.free()
        # the root poisons each chunk's share of the range that holds data
        lo = self.base[name] + ext.addr
        hi = lo + ext.nbytes
        shadow = self.shadow[name]
        for ci in _chunks_of(lo, hi):
            a, b = max(lo, ci * CHUNK_SIZE), min(hi, (ci + 1) * CHUNK_SIZE)
            if _nonzero(shadow[a:b]):
                shadow[a:b] = bytes([POISON_BYTE]) * (b - a)

    @rule(data=st.data(), name=st.sampled_from(MEMS),
          how=st.sampled_from(["read", "read_into", "iter_views"]))
    def read(self, data, name, how):
        mem = self.mems[name]
        addr, n = self._range(data, name)
        before = self._chunk_set(name)
        if how == "read":
            got = mem.read(addr, n)
        elif how == "read_into":
            got = np.full(n, 0x5A, dtype=np.uint8)
            mem.read_into(addr, got)
        else:
            views = list(mem.iter_views(addr, n))
            lo = self.base[name] + addr
            for off, view in views:
                written = (lo + off) // CHUNK_SIZE in before
                assert view.flags.writeable == written
                if not written:
                    with pytest.raises(ValueError):
                        view[0] = 1
            got = np.concatenate([view for _, view in views])
        assert got.tobytes() == self._expect(name, addr, n)
        assert self._chunk_set(name) == before, "a read materialized a chunk"

    # -- invariants -----------------------------------------------------
    @invariant()
    def every_byte_matches_the_shadow(self):
        for name in ("host", "card"):
            mem = self.mems[name]
            shadow = np.frombuffer(self.shadow[name], dtype=np.uint8)
            before = self._chunk_set(name)
            for off, view in mem.iter_views(0, mem.size):
                assert np.array_equal(view, shadow[off : off + len(view)])
            assert self._chunk_set(name) == before

    @invariant()
    def zero_chunk_stays_zero_and_read_only(self):
        assert not _ZERO_CHUNK.flags.writeable
        assert not _ZERO_CHUNK.max()


TestZeroPages = ZeroPageMachine.TestCase
TestZeroPages.settings = settings(
    max_examples=N_EXAMPLES, stateful_step_count=30, deadline=None
)
