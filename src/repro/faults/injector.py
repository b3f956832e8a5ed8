"""The runtime half of fault injection: drawing and firing faults.

One :class:`FaultInjector` is built per :class:`~repro.system.Machine`
from its :class:`~repro.faults.plan.FaultPlan` and threaded to every
injection site (PCIe links, the host chardev, each VM's vPHI backend and
frontend).  Sites call :meth:`FaultInjector.draw` on their hot path; the
injector deterministically decides — purely from per-spec match counters
and simulated time — whether a fault fires there, and returns an
:class:`Injection` describing it (or ``None``, the overwhelmingly common
case, at the cost of one tuple-filter pass over the armed specs).

Fired injections are recorded twice: in the injector's global ``log``
(workload-wide audit, ordered; ``injected`` and :meth:`fires_of` count
it) and, for vPHI sites, under the op's ``injected_key`` on the per-VM
tracer, so per-VM recovery accounting in
:func:`repro.analysis.per_op_stats` lines up with what was actually
injected into that VM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..scif import ScifError
from .plan import FaultKind, FaultPlan, FaultSpec

__all__ = ["Injection", "FaultInjector", "NO_FAULTS"]


@dataclass(frozen=True)
class Injection:
    """One fired fault: what, where, when, and against whom."""

    kind: str
    spec: FaultSpec
    site: str
    time: float
    op: Optional[str] = None
    vm: Optional[str] = None
    seq: int = 0

    def make_error(self) -> ScifError:
        """The typed ScifError this injection surfaces as."""
        if self.kind == FaultKind.RING_CORRUPT:
            from ..scif.errors import ECONNRESET

            return ECONNRESET(
                f"virtio descriptor chain corrupted (injected at {self.time:g}s)"
            )
        if self.kind == FaultKind.WORKER_DEATH:
            from ..scif.errors import ECONNRESET

            return ECONNRESET(
                f"vphi backend worker died mid-request (injected at {self.time:g}s)"
            )
        if self.kind == FaultKind.CARD_RESET:
            from ..scif.errors import ENXIO

            return ENXIO(f"card reset mid-operation (injected at {self.time:g}s)")
        if self.kind == FaultKind.BACKEND_RESTART:
            from ..scif.errors import ESHUTDOWN

            return ESHUTDOWN(
                f"vphi backend restarted mid-operation (injected at {self.time:g}s)"
            )
        if self.kind == FaultKind.CARD_UNPLUG:
            from ..scif.errors import ENXIO

            return ENXIO(f"card hot-unplugged (at {self.time:g}s)")
        if self.kind == FaultKind.HOST_FAIL:
            from ..scif.errors import ENXIO

            return ENXIO(f"host failed (at {self.time:g}s)")
        return self.spec.errno(
            f"host scif syscall failed (injected {self.spec.errno.__name__} "
            f"at {self.time:g}s)"
        )


class _SpecState:
    """Mutable cadence counters for one armed spec."""

    __slots__ = ("spec", "matches", "fires")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.matches = 0
        self.fires = 0

    def should_fire(self) -> bool:
        """Called once per match (matches already incremented)."""
        spec = self.spec
        if spec.max_fires is not None and self.fires >= spec.max_fires:
            return False
        idx = self.matches - 1  # 0-based index of this match
        if idx in spec.at:
            return True
        if spec.every is not None and self.matches % spec.every == 0:
            return True
        return False


class FaultInjector:
    """Deterministic fault source for one simulated machine."""

    def __init__(self, plan: Optional[FaultPlan] = None, sim=None):
        self.plan = plan or FaultPlan.none()
        self.sim = sim
        self._states = [_SpecState(s) for s in self.plan.specs]
        #: every fired injection, in firing order.
        self.log: list[Injection] = []
        #: PCIe links registered for LINK_FLAP delivery.
        self.links: list = []
        #: vPHI backends registered for machine-wide CARD_RESET fan-out.
        self.backends: list = []

    # ------------------------------------------------------------------
    def attach_link(self, link) -> None:
        """Register a PCIe link as a flap target."""
        if link not in self.links:
            self.links.append(link)

    def attach_backend(self, backend) -> None:
        """Register a vPHI backend as a card-reset broadcast target."""
        if backend not in self.backends:
            self.backends.append(backend)

    def detach_backend(self, backend) -> None:
        """Forget a backend (its VM migrated off this machine).

        A migrated-away backend must stop hearing this machine's
        CARD_RESET broadcasts — the card it would invalidate against is
        no longer the one underneath its VM.
        """
        if backend in self.backends:
            self.backends.remove(backend)

    @property
    def active(self) -> bool:
        """Whether any spec is armed (False for the fault-free plan)."""
        return bool(self._states)

    @property
    def injected(self) -> int:
        return len(self.log)

    # ------------------------------------------------------------------
    def draw(self, site: str, op: Optional[str] = None,
             vm: Optional[str] = None) -> Optional[Injection]:
        """One deterministic draw at an injection site.

        Returns the fired :class:`Injection` (first armed spec wins) or
        ``None``.  LINK_FLAP injections also deliver the flap to every
        attached link before returning, so the site only has to record
        the event.
        """
        if not self._states:
            return None
        now = self.sim.now if self.sim is not None else 0.0
        for state in self._states:
            spec = state.spec
            if spec.site != site:
                continue
            if spec.vm is not None and spec.vm != vm:
                continue
            if spec.op is not None and spec.op != op:
                continue
            if not (spec.after <= now < spec.until):
                continue
            state.matches += 1
            if not state.should_fire():
                continue
            state.fires += 1
            inj = Injection(
                kind=spec.kind, spec=spec, site=site, time=now,
                op=op, vm=vm, seq=len(self.log),
            )
            self.log.append(inj)
            if spec.kind == FaultKind.LINK_FLAP:
                for link in self.links:
                    link.flap(spec.outage)
            return inj
        return None

    def fire(self, kind: str, vm: Optional[str] = None,
             op: Optional[str] = None,
             duration: Optional[float] = None) -> Injection:
        """Push-fire one fault outside any draw cadence.

        Cluster churn (card hot-unplug, host failure) is *commanded* by
        the topology layer, not sampled on a datapath, but it must still
        land in the same audit trail — ``log`` order and ``fires_of`` —
        that the pull-based plans feed, so a chaos run's post-mortem
        sees one interleaved fault history.
        """
        from .plan import SITE_FOR_KIND, FaultSpec

        if kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {kind!r}")
        spec = FaultSpec(kind=kind, vm=vm, op=op, duration=duration)
        now = self.sim.now if self.sim is not None else 0.0
        inj = Injection(
            kind=kind, spec=spec, site=SITE_FOR_KIND[kind], time=now,
            op=op, vm=vm, seq=len(self.log),
        )
        self.log.append(inj)
        return inj

    def fires_of(self, kind: str) -> int:
        """Total injections of one kind so far (assertion helper)."""
        return sum(1 for inj in self.log if inj.kind == kind)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FaultInjector plan={self.plan.name!r} specs={len(self._states)} "
            f"fired={len(self.log)}>"
        )


#: shared do-nothing injector for components built without a machine.
NO_FAULTS = FaultInjector(FaultPlan.none())
