"""MIC binary model: executables + shared-object dependencies.

A :class:`MICBinary` stands in for a k1om ELF: it has a *size* (its bytes
really cross the PCIe link at launch, which is what Figs 6-8 amortize)
and an *entry point* — a generator run on the card's uOS once the loader
has "exec'ed" it.  Its image is drawn once per binary into a read-only
memo, which both launch paths send; ``send`` snapshots it like any other
payload.  ``register_binary`` adds entries to the global registry the
coi_daemon resolves names against.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["MICBinary", "SharedLibrary", "register_binary", "lookup_binary", "BINARIES"]

MB = 1 << 20


@dataclass(frozen=True)
class SharedLibrary:
    """A dependency transferred alongside the executable."""

    name: str
    size: int


@dataclass
class MICBinary:
    """One launchable MIC executable."""

    name: str
    size: int
    #: ``entry(uos, proc, argv, env) -> generator returning an exit dict``
    entry: Callable
    deps: tuple = ()
    _image: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                         compare=False)
    _crc: Optional[int] = field(default=None, init=False, repr=False,
                                compare=False)

    @property
    def total_transfer_bytes(self) -> int:
        """Executable + every dependency (what micnativeloadex ships)."""
        return self.size + sum(d.size for d in self.deps)

    def image(self) -> np.ndarray:
        """Deterministic fake ELF bytes (checksummed by the loader), drawn
        once per binary into a read-only memo: what a launch sends."""
        if self._image is None:
            rng = np.random.default_rng(zlib.crc32(self.name.encode()))
            image = rng.integers(0, 256, size=self.size, dtype=np.uint8)
            image.flags.writeable = False
            self._image = image
        return self._image

    def content(self) -> np.ndarray:
        """The :meth:`image` bytes as a fresh writable array on every call."""
        return self.image().copy()

    def checksum(self) -> int:
        """CRC-32 of :meth:`content`, drawn once per binary."""
        if self._crc is None:
            self._crc = zlib.crc32(self.content())
        return self._crc


#: global registry (name -> binary), populated by workloads at import.
BINARIES: dict[str, MICBinary] = {}


def register_binary(binary: MICBinary) -> MICBinary:
    BINARIES[binary.name] = binary
    return binary


def lookup_binary(name: str) -> Optional[MICBinary]:
    return BINARIES.get(name)
