"""QoS admission control: typed EBUSY back-pressure at the submit gate.

The paper's prototype has no defence against an oversubscribed card: a
tenant can pile requests into the ring until descriptor exhaustion parks
every submitter and tail latency grows without bound.  The admission
controller gives each vPHI instance two watermarks (both off by default,
so the Fig 4/5 and A8-A11 baselines are byte-identical):

* **queue depth** (``VPhiConfig.admit_queue_depth``) — the number of
  admitted-but-uncompleted guest-visible requests in this frontend.
  Crossing it starts shedding; shedding stops only once the depth drains
  below ``admit_queue_depth * admit_hysteresis`` (classic two-watermark
  hysteresis, so the gate does not flap at the boundary).
* **latency** (``VPhiConfig.admit_latency``) — an EWMA of completed
  request latency.  Crossing it starts shedding; shedding stops when the
  EWMA decays below ``admit_latency * admit_hysteresis``.

A shed is a **typed refusal, not a stall**: the submit raises
:class:`~repro.scif.errors.EBUSY` *before* any bounce chunk or ring
descriptor is allocated, so the guest sees immediate back-pressure it
can react to (the open-loop traffic harness counts these as shed
arrivals).  Three invariants the tests pin:

* a request is admitted **once** per guest-visible submit — segmentation
  re-enters ``submit_batch`` internally and must not double-admit;
* session-recovery **replay bypasses** admission — replayed ops already
  passed the gate once and refusing them would deadlock the rebuild;
* shedding can never strand the frontend: with nothing in flight the
  gate always re-opens (an empty frontend is by definition not
  overloaded), so every arrival gets a typed completion — grant or
  EBUSY — in bounded time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..scif.errors import EBUSY

if TYPE_CHECKING:  # pragma: no cover
    from .frontend import VPhiFrontend
    from .ops import OpSpec

__all__ = ["AdmissionController"]


class AdmissionController:
    """Watermark-based admission gate for one vPHI frontend."""

    def __init__(self, frontend: "VPhiFrontend"):
        cfg = frontend.config
        self.frontend = frontend
        self.tracer = frontend.tracer
        self.enabled = (
            cfg.admit_queue_depth is not None or cfg.admit_latency is not None
        )
        self.depth_high = cfg.admit_queue_depth
        self.depth_low = (
            None if cfg.admit_queue_depth is None
            else cfg.admit_queue_depth * cfg.admit_hysteresis
        )
        self.latency_high = cfg.admit_latency
        self.latency_low = (
            None if cfg.admit_latency is None
            else cfg.admit_latency * cfg.admit_hysteresis
        )
        self.alpha = cfg.admit_ewma_alpha
        #: admitted-but-uncompleted guest-visible requests.
        self.depth = 0
        #: EWMA of completed-request latency (None until first sample).
        self.ewma: float | None = None
        #: hysteresis state: currently refusing new work.
        self.shedding = False
        #: metrics
        self.admitted = 0
        self.shed = 0

    # ------------------------------------------------------------------
    def _overloaded(self) -> bool:
        """Evaluate the watermarks with hysteresis."""
        if self.depth == 0:
            # nothing in flight can never be overload — this is the
            # no-deadlock guarantee: a fully-drained frontend always
            # re-opens the gate regardless of a stale latency EWMA.
            self.shedding = False
            return False
        if self.shedding:
            depth_ok = self.depth_high is None or self.depth <= self.depth_low
            lat_ok = (self.latency_high is None or self.ewma is None
                      or self.ewma <= self.latency_low)
            if depth_ok and lat_ok:
                self.shedding = False
        else:
            depth_hit = (self.depth_high is not None
                         and self.depth >= self.depth_high)
            lat_hit = (self.latency_high is not None and self.ewma is not None
                       and self.ewma > self.latency_high)
            if depth_hit or lat_hit:
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
                f"{spec.op_name} (depth {self.depth}"
                + (f", ewma {self.ewma:.3g}s" if self.ewma is not None else "")
                + ")"
            )
        self.admitted += n
        self.depth += n

    def finish(self, elapsed: float, n: int = 1) -> None:
        """Retire ``n`` admitted requests that took ``elapsed`` seconds
        (success *and* failure paths both count — a request that errored
        still occupied the frontend)."""
        self.depth -= n
        if self.depth < 0:  # pragma: no cover - accounting guard
            raise AssertionError(
                f"{self.frontend.vm.name}: admission depth went negative"
            )
        if self.ewma is None:
            self.ewma = elapsed
        else:
            self.ewma = self.alpha * elapsed + (1.0 - self.alpha) * self.ewma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AdmissionController depth={self.depth} "
            f"shedding={self.shedding} admitted={self.admitted} "
            f"shed={self.shed}>"
        )
