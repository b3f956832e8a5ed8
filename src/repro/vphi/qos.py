"""QoS admission control: typed EBUSY back-pressure at the submit gate.

The paper's prototype has no defence against an oversubscribed card: a
tenant can pile requests into the ring until descriptor exhaustion parks
every submitter and tail latency grows without bound.  The admission
controller gives each vPHI instance a **queue-depth watermark**
(``VPhiConfig.admit_queue_depth``, off by default, so the Fig 4/5 and
A8-A11 baselines are byte-identical): the number of
admitted-but-uncompleted guest-visible requests in this frontend.
Crossing it starts shedding; shedding stops only once the depth drains
to ``admit_queue_depth * ADMIT_HYSTERESIS`` (classic two-watermark
hysteresis, so the gate does not flap at the boundary).

A shed is a **typed refusal, not a stall**: the submit raises
:class:`~repro.scif.errors.EBUSY` *before* any bounce chunk or ring
descriptor is allocated, so the guest sees immediate back-pressure it
can react to (the open-loop traffic harness counts these as shed
arrivals).  Three invariants the tests pin:

* a request is admitted **once** per guest-visible submit — a segmented
  transfer is one request however many ring submissions it takes;
* session-recovery **replay bypasses** admission — replayed ops already
  passed the gate once and refusing them would deadlock the rebuild;
* shedding can never strand the frontend: with nothing in flight the
  gate always re-opens (depth 0 is at or below the low-water mark), so
  every arrival gets a typed completion — grant or EBUSY — in bounded
  time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..scif.errors import EBUSY

if TYPE_CHECKING:  # pragma: no cover
    from .frontend import VPhiFrontend
    from .ops import OpSpec

__all__ = ["ADMIT_HYSTERESIS", "AdmissionController"]

#: once shedding starts, submits stay refused until the admitted depth
#: drains to ``admit_queue_depth * ADMIT_HYSTERESIS``.
ADMIT_HYSTERESIS = 0.5


class AdmissionController:
    """Depth-watermark admission gate for one vPHI frontend."""

    def __init__(self, frontend: "VPhiFrontend"):
        cfg = frontend.config
        self.frontend = frontend
        self.tracer = frontend.tracer
        self.enabled = cfg.admit_queue_depth is not None
        self.depth_high = cfg.admit_queue_depth
        self.depth_low = (
            None if cfg.admit_queue_depth is None
            else cfg.admit_queue_depth * ADMIT_HYSTERESIS
        )
        #: admitted-but-uncompleted guest-visible requests.
        self.depth = 0
        #: hysteresis state: currently refusing new work.
        self.shedding = False
        #: metrics
        self.admitted = 0
        self.shed = 0

    # ------------------------------------------------------------------
    def _overloaded(self) -> bool:
        """Evaluate the watermark with hysteresis."""
        if self.shedding:
            if self.depth <= self.depth_low:
                self.shedding = False
        elif self.depth >= self.depth_high:
            self.shedding = True
        return self.shedding

    def admit(self, spec: "OpSpec", n: int = 1) -> None:
        """Gate ``n`` guest-visible requests of one op; raises
        :class:`EBUSY` (shedding all ``n``) or admits all of them.

        Called once per guest-visible submit — before any marshalling,
        kmalloc or descriptor allocation, so a refusal costs the guest
        nothing but the syscall.
        """
        if self._overloaded():
            self.shed += n
            self.tracer.count(spec.shed_key, n)
            raise EBUSY(
                f"{self.frontend.vm.name}: admission control shedding "
                f"{spec.op_name} (depth {self.depth})"
            )
        self.admitted += n
        self.depth += n

    def finish(self, n: int = 1) -> None:
        """Retire ``n`` admitted requests (success *and* failure paths
        both count — a request that errored still occupied the
        frontend)."""
        self.depth -= n
        if self.depth < 0:  # pragma: no cover - accounting guard
            raise AssertionError(
                f"{self.frontend.vm.name}: admission depth went negative"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AdmissionController depth={self.depth} "
            f"shedding={self.shedding} admitted={self.admitted} "
            f"shed={self.shed}>"
        )
