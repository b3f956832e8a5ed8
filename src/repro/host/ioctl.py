"""SCIF ioctl command numbers and request records.

``libscif`` talks to ``/dev/mic/scif`` almost exclusively through
``ioctl()`` (§II-B: "Most of the SCIF functionality is exposed to user
space through different ioctl() commands").  These mirror the request
layout of the real driver's ``scif_ioctl.h`` in spirit: one command per
API entry point, with a dataclass standing in for the C request struct.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["ScifIoctl", "IoctlRequest"]


class ScifIoctl(enum.IntEnum):
    """ioctl command numbers (values arbitrary but stable, like _IOW codes)."""

    BIND = 0x7001
    LISTEN = 0x7002
    CONNECT = 0x7003
    ACCEPTREQ = 0x7004
    SEND = 0x7006
    RECV = 0x7007
    REG = 0x7008
    UNREG = 0x7009
    READFROM = 0x700A
    WRITETO = 0x700B
    VREADFROM = 0x700C
    VWRITETO = 0x700D
    FENCE_MARK = 0x7010
    FENCE_WAIT = 0x7011
    GET_NODE_IDS = 0x7012


@dataclass
class IoctlRequest:
    """The argument block handed to the driver (the C struct analogue)."""

    cmd: ScifIoctl
    #: connection fields
    port: int = 0
    addr: Optional[tuple[int, int]] = None
    backlog: int = 16
    block: bool = True
    #: data-plane fields
    payload: Any = None
    nbytes: int = 0
    flags: int = 0
    #: RMA fields
    vaddr: int = 0
    loffset: int = 0
    roffset: int = 0
    offset: Optional[int] = None
    prot: int = 0
    mark: int = 0
