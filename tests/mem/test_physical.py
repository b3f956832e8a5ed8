"""PhysicalMemory: allocator, data access, nesting, poisoning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    BadAddress,
    MemError,
    OutOfMemory,
    PAGE_SIZE,
    POISON_BYTE,
    PhysicalMemory,
)
from repro.mem.physical import _ZERO_CHUNK, CHUNK_SIZE, holds_nonzero, zero_bytes

MB = 1 << 20


def test_alloc_returns_aligned_disjoint_extents():
    mem = PhysicalMemory(16 * MB, "ram")
    a = mem.alloc(5000)
    b = mem.alloc(5000)
    assert a.addr % PAGE_SIZE == 0
    assert b.addr % PAGE_SIZE == 0
    assert a.end <= b.addr or b.end <= a.addr
    # sizes round up to pages
    assert a.nbytes == 8192


def test_alloc_custom_alignment():
    mem = PhysicalMemory(16 * MB)
    mem.alloc(PAGE_SIZE)  # disturb
    ext = mem.alloc(PAGE_SIZE, align=1 << 16)
    assert ext.addr % (1 << 16) == 0


def test_alloc_bad_alignment_rejected():
    mem = PhysicalMemory(MB)
    with pytest.raises(MemError):
        mem.alloc(100, align=3)


def test_alloc_nonpositive_rejected():
    mem = PhysicalMemory(MB)
    with pytest.raises(MemError):
        mem.alloc(0)


def test_out_of_memory():
    mem = PhysicalMemory(2 * PAGE_SIZE)
    mem.alloc(PAGE_SIZE)
    mem.alloc(PAGE_SIZE)
    with pytest.raises(OutOfMemory):
        mem.alloc(PAGE_SIZE)


def test_free_allows_reuse_and_coalesces():
    mem = PhysicalMemory(4 * PAGE_SIZE)
    a = mem.alloc(PAGE_SIZE)
    b = mem.alloc(PAGE_SIZE)
    c = mem.alloc(2 * PAGE_SIZE)
    a.free()
    b.free()
    c.free()
    # after freeing everything the full span is one hole again
    assert mem.largest_free_block() == 4 * PAGE_SIZE
    big = mem.alloc(4 * PAGE_SIZE)
    assert big.nbytes == 4 * PAGE_SIZE


def test_double_free_rejected():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.free()
    with pytest.raises(MemError):
        ext.free()


def test_use_after_free_rejected():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.free()
    with pytest.raises(BadAddress):
        ext.read()


def test_read_write_roundtrip():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    payload = np.arange(256, dtype=np.uint8)
    ext.write(payload, off=100)
    assert np.array_equal(ext.read(100, 256), payload)


def test_write_bytes_accepted():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.write(b"hello world")
    assert ext.read(0, 11).tobytes() == b"hello world"


def test_extent_bounds_checked():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    with pytest.raises(BadAddress):
        ext.read(0, PAGE_SIZE + 1)
    with pytest.raises(BadAddress):
        ext.write(b"x", off=PAGE_SIZE)


def test_memory_bounds_checked():
    mem = PhysicalMemory(MB)
    with pytest.raises(BadAddress):
        mem.read(MB - 1, 2)
    with pytest.raises(BadAddress):
        mem.write(MB, b"x")


def test_cross_chunk_access():
    mem = PhysicalMemory(4 * CHUNK_SIZE)
    ext = mem.alloc(2 * CHUNK_SIZE, align=PAGE_SIZE)
    # place a write straddling the chunk boundary inside the extent
    start = CHUNK_SIZE - ext.addr - 100 if ext.addr < CHUNK_SIZE else 0
    payload = np.random.default_rng(1).integers(0, 256, 300, dtype=np.uint8)
    ext.write(payload, off=start)
    assert np.array_equal(ext.read(start, 300), payload)


def test_unwritten_memory_reads_zero():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    assert not ext.read().any()


def test_zero_chunk_views_are_never_scanned(reductions):
    """Bytes whose memory is the shared read-only zero chunk are known
    zeros; anything else is still scanned."""
    mem = PhysicalMemory(4 * MB)
    views = [v for _, v in mem.iter_views(100, 2 * CHUNK_SIZE)]
    with reductions() as seen:
        assert not holds_nonzero(_ZERO_CHUNK)
        assert not holds_nonzero(_ZERO_CHUNK[7:4096])
        assert not any(holds_nonzero(v) for v in views)
    assert not seen
    with reductions() as seen:
        assert not holds_nonzero(np.zeros(4096, dtype=np.uint8))
    assert sum(seen.values()) == 1


def test_zero_bytes_is_a_free_read_only_zero_view(reductions):
    n = 3 * CHUNK_SIZE + 5
    view = zero_bytes(n)
    assert len(view) == n and not view.flags.writeable
    # the no-scan rule recognises it by its base; a numpy release that
    # changed broadcast_to's base would silently scan it again
    assert view.base is _ZERO_CHUNK
    mem = PhysicalMemory(8 * MB)
    mem.write(CHUNK_SIZE, np.full(CHUNK_SIZE, 7, dtype=np.uint8))
    written = set(mem._chunks)
    with reductions() as seen:
        assert not holds_nonzero(view) and not holds_nonzero(view[CHUNK_SIZE:])
        mem.write(3, view)  # never-written chunks and a materialized one
    assert not seen
    assert set(mem._chunks) == written
    assert not mem.read(0, 8 * MB).any()


def test_freed_region_poisoned():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.write(b"secret-data!")
    addr = ext.addr
    ext.free()
    # direct physical read now sees poison, not the old contents
    got = mem.read(addr, 12)
    assert (got == POISON_BYTE).all()


def test_fill():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(PAGE_SIZE)
    ext.fill(0xAB)
    assert (ext.read() == 0xAB).all()
    ext.fill(0x00, off=10, nbytes=10)
    assert (ext.read(10, 10) == 0).all()


def test_copy_between_memories():
    src = PhysicalMemory(MB, "a")
    dst = PhysicalMemory(MB, "b")
    se = src.alloc(PAGE_SIZE)
    de = dst.alloc(PAGE_SIZE)
    se.write(b"payload-x")
    PhysicalMemory.copy(dst, de.addr, src, se.addr, 9)
    assert de.read(0, 9).tobytes() == b"payload-x"


def test_copy_within():
    mem = PhysicalMemory(MB)
    ext = mem.alloc(2 * PAGE_SIZE)
    ext.write(b"abcd")
    mem.copy_within(ext.addr + PAGE_SIZE, ext.addr, 4)
    assert ext.read(PAGE_SIZE, 4).tobytes() == b"abcd"


class TestNested:
    def test_carve_creates_window_into_parent(self):
        host = PhysicalMemory(64 * MB, "host")
        guest = host.carve(8 * MB, name="vm0-ram")
        guest.write(0x1000, b"guest-bytes")
        # the same bytes are visible at host physical base+0x1000
        base = guest.host_base
        assert host.read(base + 0x1000, 11).tobytes() == b"guest-bytes"

    def test_nested_alloc_and_bounds(self):
        host = PhysicalMemory(64 * MB, "host")
        guest = host.carve(4 * MB, name="vm0-ram")
        ext = guest.alloc(PAGE_SIZE)
        ext.write(b"inner")
        assert ext.read(0, 5).tobytes() == b"inner"
        with pytest.raises(BadAddress):
            guest.read(4 * MB, 1)

    def test_two_level_nesting_host_base(self):
        root = PhysicalMemory(64 * MB, "root")
        mid = root.carve(16 * MB, name="mid")
        leaf = mid.carve(4 * MB, name="leaf")
        leaf.write(0, b"Z")
        assert root.read(leaf.host_base, 1).tobytes() == b"Z"
        assert leaf.root() is root

    @pytest.mark.parametrize("depth", [1, 2])
    def test_reused_frame_never_reads_previous_owner(self, depth):
        """A nested memory holds no storage of its own: its free poisons
        the root bytes the range resolves to, so the next owner of a
        guest frame reads poison, not the old contents."""
        mem = PhysicalMemory(64 * MB, "host")
        for level in range(depth):
            mem = mem.carve(16 * MB >> level, name=f"level{level}")
        ext = mem.alloc(PAGE_SIZE)
        ext.write(b"secret-data!")
        ext.free()
        reused = mem.alloc(PAGE_SIZE)
        assert reused.addr == ext.addr
        assert reused.read(0, 12).tobytes() == bytes([POISON_BYTE]) * 12

    def test_freeing_a_never_written_extent_touches_no_storage(self):
        """A never-written range has nothing to leak: freeing it neither
        materializes a chunk nor writes into one that exists."""
        host = PhysicalMemory(64 * MB, "host")
        guest = host.carve(8 * MB, name="vm0-ram")
        blank = guest.alloc(3 * CHUNK_SIZE)
        blank.free()
        assert host._chunks == {}
        # a neighbour's write materializes the chunk the next extent
        # shares; that extent's own zero bytes stay zero when it is freed
        written = guest.alloc(PAGE_SIZE)
        written.write(b"x")
        blank = guest.alloc(PAGE_SIZE)
        blank.free()
        assert len(host._chunks) == 1
        assert not guest.read(blank.addr, PAGE_SIZE).any()
        assert guest.read(written.addr, 1).tobytes() == b"x"

    def test_accounting(self):
        mem = PhysicalMemory(MB)
        assert mem.bytes_free == MB
        e = mem.alloc(3 * PAGE_SIZE)
        assert mem.bytes_allocated == 3 * PAGE_SIZE
        assert mem.bytes_free == MB - 3 * PAGE_SIZE
        e.free()
        assert mem.bytes_allocated == 0


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=6 * PAGE_SIZE),  # alloc size
            st.booleans(),  # free it afterwards in this round?
        ),
        min_size=1,
        max_size=25,
    )
)
def test_allocator_never_overlaps_and_conserves(ops):
    """Property: live extents never overlap; free+allocated == size."""
    mem = PhysicalMemory(256 * PAGE_SIZE)
    live = []
    for size, do_free in ops:
        try:
            ext = mem.alloc(size)
        except OutOfMemory:
            continue
        for other in live:
            assert ext.end <= other.addr or other.end <= ext.addr
        if do_free:
            ext.free()
        else:
            live.append(ext)
        assert mem.bytes_free + mem.bytes_allocated == mem.size


@settings(max_examples=25, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * PAGE_SIZE - 1),
            st.binary(min_size=1, max_size=600),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_read_back_matches_reference_model(writes):
    """Property: PhysicalMemory behaves like a flat bytearray."""
    mem = PhysicalMemory(4 * PAGE_SIZE)
    ref = bytearray(4 * PAGE_SIZE)
    for off, data in writes:
        data = data[: 4 * PAGE_SIZE - off]
        if not data:
            continue
        mem.write(off, data)
        ref[off : off + len(data)] = data
    assert mem.read(0, 4 * PAGE_SIZE).tobytes() == bytes(ref)
