"""Frontend wait schemes: interrupt-based, polling, hybrid.

§III: "we can either implement a polling-based method or an interrupt-
based one.  Since busy-waiting on a shared resource consumes CPU cycles,
we choose the interrupt-based approach, adding up some extra overhead
when the driver sets up the sleeping mechanism" — and §IV-B measures that
overhead at 93 % of the 375 µs gap.  The hybrid scheme (poll for small
transfers, sleep for large ones) is the paper's stated future work,
implemented here so the ablation benches can quantify it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.calibration import VPHI_COSTS, VPhiCosts

if TYPE_CHECKING:  # pragma: no cover
    from .frontend import VPhiFrontend

__all__ = ["HYBRID_THRESHOLD", "POLL_CPU_KEY", "InterruptWait", "PollingWait",
           "HybridWait", "make_wait_scheme"]

#: hybrid scheme: requests moving fewer bytes than this poll, larger
#: ones sleep (the paper's proposed future work).
HYBRID_THRESHOLD = 32 * 1024
#: accumulator of vCPU seconds burnt busy-polling the shared ring.
POLL_CPU_KEY = "vphi.poll_cpu_time"


class InterruptWait:
    """Sleep on the driver wait queue; the virtual-interrupt ISR wakes all
    sleepers, each of which pays the reschedule + ring-scan cost.

    With a ``deadline`` (the fault-recovery watchdog), the sleep races a
    timer; expiry returns ``None`` instead of a response and the waiter
    is withdrawn from the queue.
    """

    name = "interrupt"

    def __init__(self, costs: VPhiCosts = VPHI_COSTS):
        self.costs = costs

    def wait_for(self, frontend: "VPhiFrontend", tag: int, data_bytes: int,
                 deadline: float | None = None):
        sim = frontend.sim
        while tag not in frontend.responses:
            if deadline is None:
                yield frontend.waitq.wait()
            else:
                if sim.now >= deadline:
                    return None
                ev = frontend.waitq.wait()
                which, _ = yield sim.any_of([ev, sim.timeout(deadline - sim.now)])
                if which == 1:
                    frontend.waitq.cancel(ev)
                    # the VM may have been frozen past the deadline while
                    # the response landed (blocking-mode handling defers
                    # our timer): deliver it rather than spuriously
                    # timing out.
                    if tag in frontend.responses:
                        continue
                    return None
            # woken by the ISR: being rescheduled and scanning the shared
            # ring is the dominant cost of the whole vPHI path (§IV-B).
            yield sim.timeout(self.costs.wakeup_scheme)
        return frontend.claim_response(tag)


class PollingWait:
    """Busy-wait on the shared ring: low latency, burns a vCPU."""

    name = "polling"

    def __init__(self, costs: VPhiCosts = VPHI_COSTS):
        self.costs = costs

    def wait_for(self, frontend: "VPhiFrontend", tag: int, data_bytes: int,
                 deadline: float | None = None):
        sim = frontend.sim
        while tag not in frontend.responses:
            if deadline is not None and sim.now >= deadline:
                return None
            yield sim.timeout(self.costs.poll_interval)
            frontend.tracer.accumulate(POLL_CPU_KEY, self.costs.poll_interval)
            frontend.drain_used()
        return frontend.claim_response(tag)


class HybridWait:
    """Poll for requests under :data:`HYBRID_THRESHOLD` bytes, sleep for
    larger ones (paper future work)."""

    name = "hybrid"

    def __init__(self, costs: VPhiCosts = VPHI_COSTS):
        self._poll = PollingWait(costs)
        self._intr = InterruptWait(costs)

    def wait_for(self, frontend: "VPhiFrontend", tag: int, data_bytes: int,
                 deadline: float | None = None):
        scheme = self._poll if data_bytes < HYBRID_THRESHOLD else self._intr
        result = yield from scheme.wait_for(frontend, tag, data_bytes, deadline)
        return result


def make_wait_scheme(mode: str, costs: VPhiCosts = VPHI_COSTS):
    if mode == "interrupt":
        return InterruptWait(costs)
    if mode == "polling":
        return PollingWait(costs)
    if mode == "hybrid":
        return HybridWait(costs)
    raise ValueError(f"unknown wait mode {mode!r}")
