"""Memory substrate: physical memories, address spaces, pinning, kmalloc."""

from .address_space import (
    VMA,
    AddressSpace,
    PTE,
    PinnedPages,
    SGEntry,
    VMAFlag,
)
from .buffer import Buffer
from .errors import (
    AllocTooLarge,
    BadAddress,
    MemError,
    OutOfMemory,
    PageFault,
    PinViolation,
)
from .kmalloc import KMALLOC_MAX_SIZE, KernelAllocator
from .pages import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    is_page_aligned,
    page_align_down,
    page_align_up,
    page_offset,
    pages_spanned,
)
from .physical import CHUNK_SIZE, POISON_BYTE, PhysExtent, PhysicalMemory, zero_bytes

__all__ = [
    "AddressSpace",
    "AllocTooLarge",
    "BadAddress",
    "Buffer",
    "CHUNK_SIZE",
    "KMALLOC_MAX_SIZE",
    "KernelAllocator",
    "MemError",
    "OutOfMemory",
    "PAGE_MASK",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "POISON_BYTE",
    "PTE",
    "PageFault",
    "PhysExtent",
    "PhysicalMemory",
    "PinViolation",
    "PinnedPages",
    "SGEntry",
    "VMA",
    "VMAFlag",
    "is_page_aligned",
    "page_align_down",
    "page_align_up",
    "page_offset",
    "pages_spanned",
    "zero_bytes",
]
