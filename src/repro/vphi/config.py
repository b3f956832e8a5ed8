"""vPHI configuration: wait scheme, blocking policy, chunking.

The defaults are the paper's implementation choices (§III): interrupt-
based waiting in the frontend; blocking backend handling for every SCIF
operation except ``scif_accept`` (whose completion time is unbounded) and
``poll`` (same reason); 4 MB KMALLOC chunking.  The alternatives — polling
and the **hybrid** scheme the paper lists as future work — are implemented
and selectable for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..mem import KMALLOC_MAX_SIZE
from .ops import default_nonblocking_ops

__all__ = ["RECOVERY_SETTLE", "RETRY_BACKOFF", "RETRY_BACKOFF_MAX",
           "WaitMode", "VPhiConfig"]

#: exponential backoff for transient-fault retries: the first retry
#: waits ``RETRY_BACKOFF``, each further retry doubles it, capped at
#: ``RETRY_BACKOFF_MAX`` (see :meth:`VPhiConfig.backoff_for`).
RETRY_BACKOFF = 100e-6
RETRY_BACKOFF_MAX = 5e-3
#: settle delay before a session replay starts (models reset-detection +
#: re-enumeration latency; also spaces replay retries while the
#: card-side peer re-establishes its listeners/windows).
RECOVERY_SETTLE = 1e-3


class WaitMode:
    """Frontend wait-scheme names."""

    INTERRUPT = "interrupt"
    POLLING = "polling"
    HYBRID = "hybrid"

    ALL = (INTERRUPT, POLLING, HYBRID)


@dataclass
class VPhiConfig:
    """Tunable knobs of one vPHI instance."""

    #: frontend wait scheme (§III design choice; §IV-B blames it for 93 %
    #: of the latency overhead).
    wait_mode: str = WaitMode.INTERRUPT
    #: kmalloc bounce chunk size (the x86_64 KMALLOC_MAX_SIZE).
    chunk_size: int = KMALLOC_MAX_SIZE
    #: ops handled on a QEMU worker thread instead of freezing the VM.
    #: The default is derived from the op registry's blocking classes
    #: (each op declares its class exactly once in :mod:`repro.vphi.ops`).
    nonblocking_ops: frozenset = field(default_factory=default_nonblocking_ops)
    #: EVENT_IDX-style notification suppression: skip kicks while the
    #: backend is draining, coalesce completion interrupts.  Off by
    #: default (the paper's prototype predates it); ablation A7 measures
    #: what it saves.
    suppress_notifications: bool = False
    #: per-request completion timeout for *blocking-class* ops (their
    #: completion time is bounded, so a stall means something died).
    #: ``None`` disables the watchdog — the default, because the paper's
    #: prototype has none and the Fig 4/5 baselines must stay
    #: byte-identical.  Non-blocking ops (accept/poll/fences) have
    #: unbounded completion time and never get a timeout.
    op_timeout: Optional[float] = None
    #: bounded-retry policy for transient faults on *idempotent* ops
    #: (the op registry declares idempotency; non-idempotent ops always
    #: fail fast with the typed ScifError).
    max_retries: int = 4
    #: size of the backend's persistent worker pool.  ``0`` (the default)
    #: keeps the paper's dispatch exactly: blocking-class ops freeze the
    #: whole VM in QEMU's event loop, unbounded ops spawn ad-hoc worker
    #: threads — the Fig 4/5 baselines stay byte-identical.  ``> 0``
    #: routes every pool-eligible op (see :attr:`OpSpec.rides_pool`) to
    #: that many persistent workers, so the vCPU keeps running and
    #: completions return out of order by tag.
    backend_workers: int = 0
    #: bound on requests popped off the avail ring but not yet completed
    #: while the pool is active; excess chains stay on the ring until a
    #: completion retires (back-pressure toward the guest).  Ignored in
    #: blocking mode.
    max_inflight: int = 32
    #: session-recovery policy after a card reset / backend restart:
    #:
    #: - ``"none"`` (default): no journal, no replay — the paper's
    #:   behaviour; in-flight ops fail with ENXIO/ESHUTDOWN and the
    #:   session stays broken.  Keeps Fig 4/5 baselines byte-identical.
    #: - ``"queue"``: journal + replay; submits arriving during rebuild
    #:   park until the session is active again.
    #: - ``"fail_fast"``: journal + replay; submits during rebuild fail
    #:   immediately with EStaleEpoch.
    #: - ``"circuit_break"``: like ``queue``, but more than
    #:   ``recovery_max_resets`` resets inside ``recovery_window``
    #:   seconds trips the breaker: the session goes BROKEN and every
    #:   submit fails with EStaleEpoch from then on.
    recovery_policy: str = "none"
    #: circuit-breaker threshold: resets tolerated per window.
    recovery_max_resets: int = 3
    #: circuit-breaker sliding window (simulated seconds).
    recovery_window: float = 1.0
    #: multi-tenant QoS: this VM's weight under the card arbiter's
    #: ``wfq`` policy — the share of dispatch credits it is entitled to
    #: relative to the other tenants on the card (2.0 gets twice the
    #: credits of 1.0 under contention).  ``0.0`` marks a best-effort
    #: tenant: it is only served when no weighted tenant is waiting.
    #: Ignored by the default ``rr`` policy, so Fig 4/5 and the A8-A11
    #: baselines are untouched.
    qos_share: float = 1.0
    #: strict priority class under the arbiter's ``priority`` policy:
    #: lower numbers are served first (0 = most important); within a
    #: class credits rotate round-robin.  Ignored by ``rr``/``wfq``.
    qos_priority: int = 0
    #: admission control: shed new submits with typed EBUSY once this
    #: many requests are admitted-but-uncompleted in the frontend
    #: (posted, parked on ring space, or queued in the pool).  ``None``
    #: (the default) disables admission — no check runs and the
    #: baselines stay byte-identical.  Shedding stops once the depth
    #: drains to ``admit_queue_depth *``
    #: :data:`~repro.vphi.qos.ADMIT_HYSTERESIS`.
    admit_queue_depth: Optional[int] = None
    #: request-lifecycle spans: every submit opens a per-request span
    #: stamped with phase timestamps by the frontend, backend, pool and
    #: session layers (see :data:`repro.vphi.ops.SPAN_PHASE_ORDER`).
    #: Pure bookkeeping — no simulated time is charged, so the Fig 4/5
    #: goldens are byte-identical either way; turn off to shed the
    #: constant per-request overhead on very long soak runs.
    trace_spans: bool = True

    RECOVERY_POLICIES = ("none", "queue", "fail_fast", "circuit_break")

    def __post_init__(self) -> None:
        if self.wait_mode not in WaitMode.ALL:
            raise ValueError(f"unknown wait mode {self.wait_mode!r}")
        if self.chunk_size <= 0 or self.chunk_size > KMALLOC_MAX_SIZE:
            raise ValueError(
                f"chunk_size must be in (0, {KMALLOC_MAX_SIZE}], got {self.chunk_size}"
            )
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError("op_timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backend_workers < 0:
            raise ValueError("backend_workers must be >= 0 (0 = blocking dispatch)")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.recovery_policy not in self.RECOVERY_POLICIES:
            raise ValueError(
                f"unknown recovery_policy {self.recovery_policy!r} "
                f"(choose from {self.RECOVERY_POLICIES})"
            )
        if self.recovery_max_resets < 1:
            raise ValueError("recovery_max_resets must be >= 1")
        if self.recovery_window <= 0:
            raise ValueError("recovery_window must be positive")
        if self.qos_share < 0:
            raise ValueError("qos_share must be >= 0 (0 = best-effort)")
        if self.admit_queue_depth is not None and self.admit_queue_depth < 1:
            raise ValueError("admit_queue_depth must be >= 1 (or None)")

    @property
    def pooled(self) -> bool:
        """Whether backend dispatch runs on the worker pool."""
        return self.backend_workers > 0

    @property
    def recovery_enabled(self) -> bool:
        """Whether the session journal + replay orchestrator is active."""
        return self.recovery_policy != "none"

    def is_blocking(self, op) -> bool:
        return op not in self.nonblocking_ops

    def timeout_for(self, spec) -> Optional[float]:
        """The completion watchdog for one op, from its blocking class:
        blocking ops get ``op_timeout``; non-blocking (unbounded) ops
        never time out."""
        return self.op_timeout if spec.blocking else None

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), exponentially
        doubled and bounded."""
        return min(RETRY_BACKOFF * (2 ** (attempt - 1)), RETRY_BACKOFF_MAX)
