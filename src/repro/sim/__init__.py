"""Deterministic discrete-event simulation kernel.

The substrate every simulated component (card, PCIe, SCIF, virtio, QEMU/KVM,
vPHI) executes on.  See :mod:`repro.sim.core` for the execution model.
"""

from .calendar import CalendarQueue
from .core import (
    MS,
    SECOND,
    US,
    AllOf,
    AnyOf,
    Domain,
    Event,
    Process,
    Simulator,
    Timeout,
    ms,
    us,
)
from .errors import DeadlockError, Interrupted, Killed, SimError
from .primitives import (
    Channel,
    ChannelClosed,
    Mutex,
    Resource,
    Semaphore,
    WaitQueue,
    run_with,
)
from .trace import LatencyStat, Span, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarQueue",
    "Channel",
    "ChannelClosed",
    "DeadlockError",
    "Domain",
    "Event",
    "Interrupted",
    "Killed",
    "LatencyStat",
    "MS",
    "Mutex",
    "Process",
    "Resource",
    "SECOND",
    "Semaphore",
    "SimError",
    "Simulator",
    "Span",
    "Timeout",
    "Tracer",
    "US",
    "WaitQueue",
    "ms",
    "run_with",
    "us",
]
