"""vPHI: the paper's contribution — SCIF virtualization for QEMU-KVM guests.

Split-driver design (§III): a guest-kernel frontend intercepts SCIF
system calls and forwards them over a virtio ring to a QEMU backend that
replays them against the host SCIF driver.  Multiple VMs are just
multiple host processes, so the card is shared.

Per-operation semantics (marshal rules, backend handler, blocking class,
trace keys, cost hooks) are declared exactly once in the
:mod:`~repro.vphi.ops` registry; every layer derives from it.
"""

from .backend import VPhiBackend
from .chunking import BounceBuffers, chunk_plan
from .config import VPhiConfig, WaitMode
from .frontend import VPhiFrontend
from .guest_libscif import GuestEndpoint, GuestScif
from .ops import (
    BLOCKING,
    NONBLOCKING,
    REQUIRED,
    ArgSpec,
    OpSpec,
    default_nonblocking_ops,
    register,
    registered_ops,
    spec_for,
    temporary_op,
)
from .pool import CardArbiter, WorkerPool
from .protocol import BatchCall, VPhiOp, VPhiRequest, VPhiResponse
from .qos import AdmissionController
from .session import (
    EndpointRecord,
    MmapRecord,
    SessionJournal,
    SessionManager,
    WindowRecord,
)
from .setup import VPhiInstance, install_vphi
from .wait import HybridWait, InterruptWait, PollingWait, make_wait_scheme

__all__ = [
    "AdmissionController",
    "ArgSpec",
    "BLOCKING",
    "BatchCall",
    "BounceBuffers",
    "CardArbiter",
    "EndpointRecord",
    "GuestEndpoint",
    "GuestScif",
    "MmapRecord",
    "SessionJournal",
    "SessionManager",
    "HybridWait",
    "InterruptWait",
    "NONBLOCKING",
    "OpSpec",
    "PollingWait",
    "REQUIRED",
    "VPhiBackend",
    "VPhiConfig",
    "VPhiFrontend",
    "VPhiInstance",
    "VPhiOp",
    "VPhiRequest",
    "VPhiResponse",
    "WaitMode",
    "WindowRecord",
    "WorkerPool",
    "chunk_plan",
    "default_nonblocking_ops",
    "install_vphi",
    "make_wait_scheme",
    "register",
    "registered_ops",
    "spec_for",
    "temporary_op",
]
