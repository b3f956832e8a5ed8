"""The §IV-B breakdown analysis, produced from live request spans.

"we performed deeper breakdown measurements to further investigate the
cause of this overhead.  Based on the breakdown analysis, we conclude
that 93% of this overhead attributes to the waiting scheme of vPHI
inside the frontend driver."

:func:`overhead_breakdown` reproduces that attribution for any vPHI
frontend after it has carried traffic: per-request phase costs, each
phase's share of the +375 µs virtualization overhead, rendered the way
the paper narrates it.  It is a view over the request spans
(:func:`repro.analysis.span_breakdown`), which record where every
request's simulated time went.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import SCIF_COSTS
from .spans import span_breakdown

__all__ = [
    "BREAKDOWN_ROWS",
    "ConcurrencySnapshot",
    "ConcurrencyStats",
    "OpStats",
    "PhaseShare",
    "RecoveryStats",
    "concurrency_snapshot",
    "concurrency_stats",
    "overhead_breakdown",
    "per_op_stats",
    "recovery_stats",
    "render_breakdown",
    "render_concurrency",
    "render_per_op",
    "render_recovery",
]


@dataclass(frozen=True)
class PhaseShare:
    phase: str
    per_request: float  # seconds
    share_of_overhead: float


#: the §IV-B rows, each the sum of some span phases.  The backend row is
#: reported net of the native control-plane floor.  ``post`` (ring-space
#: back-pressure), ``retry_backoff`` and ``session_wait`` are fault and
#: contention waits, not virtualization overhead, and belong to no row.
BREAKDOWN_ROWS = (
    ("frontend driver (marshalling)", ("marshal",)),
    ("user<->kernel copies", ("copy_in", "copy_out")),
    ("virtio kick (vmexit)", ("kick",)),
    ("sleep/wake-up scheme", ("guest_wake",)),
    ("backend + host syscall + irq",
     ("ring", "credit_wait", "backend_pop", "host_call", "completion_push",
      "irq_deliver")),
    ("response demux + return", ("guest_return",)),
)
_SERVICE_ROW = "backend + host syscall + irq"


def overhead_breakdown(frontend) -> list[PhaseShare]:
    """The §IV-B table as a view over the frontend's request spans.

    Each row of :data:`BREAKDOWN_ROWS` sums its span phases over every
    request span on the frontend's tracer and divides by the number of
    those spans; rows come most expensive first.  The native SCIF
    control-plane floor (the host-side call itself) is subtracted from
    the backend row, so the rows add up to the virtualization overhead.

    Spans are the only record read here: with
    ``VPhiConfig(trace_spans=False)`` the frontend opens none, and this
    returns ``[]``.
    """
    from ..vphi.ops import registered_ops

    per_op = span_breakdown(frontend.tracer,
                            ops=[spec.op_name for spec in registered_ops()])
    n = sum(bd.count for bd in per_op.values())
    if n == 0:
        return []
    phases: dict[str, float] = {}
    for bd in per_op.values():
        for phase, seconds in bd.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    rows = {name: sum(phases.get(p, 0.0) for p in members)
            for name, members in BREAKDOWN_ROWS}
    native_per_req = SCIF_COSTS.one_byte_latency  # control-plane floor
    rows[_SERVICE_ROW] = max(rows[_SERVICE_ROW] - native_per_req * n, 0.0)
    total_overhead = sum(rows.values())
    if total_overhead <= 0:
        return []
    out = [
        PhaseShare(name, value / n, value / total_overhead)
        for name, value in rows.items()
    ]
    out.sort(key=lambda p: p.per_request, reverse=True)
    return out


@dataclass(frozen=True)
class OpStats:
    """Per-operation service metrics for one VM's vPHI traffic."""

    op: str
    submitted: int
    served: int
    errors: int
    mean_latency: float  # seconds; 0.0 when nothing completed
    #: fault-recovery accounting (all zero on fault-free runs)
    injected: int = 0
    retried: int = 0
    recovered: int = 0
    failed: int = 0
    #: requests serviced by a pool member instead of a blocking worker
    #: (zero under the default blocking dispatch)
    pooled: int = 0
    #: completions from a pre-reset epoch dropped at the frontend demux
    #: (zero unless a session recovery fenced mid-flight requests)
    stale_dropped: int = 0


def per_op_stats(frontend) -> list[OpStats]:
    """Per-op submitted/served/error/latency metrics from live traces.

    Every key comes from the op registry's declared trace keys — the
    analysis layer holds no op-name string literals — so newly registered
    operations show up here with zero extra wiring.  The frontend and
    backend share the VM tracer, so one tracer holds both sides' counts.
    """
    from ..vphi.ops import registered_ops

    tracer = frontend.tracer
    out = []
    for spec in registered_ops():
        submitted = tracer.counters.get(spec.counter_key, 0)
        served = tracer.counters.get(spec.served_key, 0)
        errors = tracer.counters.get(spec.error_key, 0)
        if not (submitted or served):
            continue
        stat = tracer.stats.get(spec.latency_key)
        mean_latency = stat.mean if stat is not None else 0.0
        out.append(OpStats(
            spec.op_name, submitted, served, errors, mean_latency,
            injected=tracer.counters.get(spec.injected_key, 0),
            retried=tracer.counters.get(spec.retried_key, 0),
            recovered=tracer.counters.get(spec.recovered_key, 0),
            failed=tracer.counters.get(spec.failed_key, 0),
            pooled=tracer.counters.get(spec.pooled_key, 0),
            stale_dropped=tracer.counters.get(spec.stale_key, 0),
        ))
    out.sort(key=lambda s: s.submitted, reverse=True)
    return out


def render_per_op(frontend) -> str:
    """Human-readable per-op service table."""
    rows = per_op_stats(frontend)
    lines = ["vPHI per-op service metrics:"]
    if not rows:
        lines.append("  (no traffic)")
        return "\n".join(lines)
    faulty = any(s.injected or s.retried or s.recovered or s.failed
                 for s in rows)
    pooled = any(s.pooled for s in rows)
    stale = any(s.stale_dropped for s in rows)
    header = (f"  {'op':<14} {'submitted':>9} {'served':>7} "
              f"{'errors':>7} {'mean latency':>14}")
    if pooled:
        header += f" {'pooled':>6}"
    if faulty:
        header += f" {'inj':>5} {'retry':>5} {'recov':>5} {'fail':>5}"
    if stale:
        header += f" {'stale':>5}"
    lines.append(header)
    for s in rows:
        line = (
            f"  {s.op:<14} {s.submitted:>9} {s.served:>7} {s.errors:>7} "
            f"{s.mean_latency * 1e6:>11.1f} us"
        )
        if pooled:
            line += f" {s.pooled:>6}"
        if faulty:
            line += (f" {s.injected:>5} {s.retried:>5} "
                     f"{s.recovered:>5} {s.failed:>5}")
        if stale:
            line += f" {s.stale_dropped:>5}"
        lines.append(line)
    return "\n".join(lines)


@dataclass(frozen=True)
class ConcurrencyStats:
    """How one VM's event loop and backend pool spent a run.

    Under the paper's blocking dispatch the interesting number is
    ``event_loop_occupancy`` — the fraction of wall time the vCPU was
    *paused* inside a blocking host syscall (§III's whole-VM freeze).
    Under pooled dispatch that fraction collapses toward zero and the
    pool-side numbers take over the story.
    """

    vm: str
    elapsed: float  # seconds of simulated time covered
    #: fraction of the run the QEMU event loop was frozen (vCPU paused)
    event_loop_occupancy: float
    #: pool numbers (all zero when running the blocking default)
    pool_size: int = 0
    pool_utilization: float = 0.0
    peak_inflight: int = 0
    pooled_requests: int = 0
    credit_wait: float = 0.0
    #: machine-wide arbiter grants charged to this VM
    arbiter_grants: int = 0

    @property
    def pooled(self) -> bool:
        return self.pool_size > 0


@dataclass(frozen=True)
class ConcurrencySnapshot:
    """A window boundary for :func:`concurrency_stats`.

    Take one with :func:`concurrency_snapshot` at the start of the
    interval you care about, run traffic, then pass it back as
    ``since=``; the reported occupancy/utilization cover exactly that
    window.  The snapshot counts any pause still open at capture time
    (``Domain.paused_seconds``), so a vCPU frozen across the boundary is
    charged to each window only for the part inside it.
    """

    vm: str
    time: float
    paused_seconds: float
    pool_busy: float = 0.0
    pool_credit_wait: float = 0.0
    pool_completed: int = 0
    arbiter_grants: int = 0


def concurrency_snapshot(vm) -> ConcurrencySnapshot:
    """Capture one VM's concurrency counters at the current sim time."""
    backend = vm.vphi.backend
    pool = backend.pool
    if pool is None:
        return ConcurrencySnapshot(
            vm.name, backend.sim.now, vm.domain.paused_seconds
        )
    return ConcurrencySnapshot(
        vm.name,
        backend.sim.now,
        vm.domain.paused_seconds,
        pool_busy=pool.busy_time,
        pool_credit_wait=pool.credit_wait,
        pool_completed=pool.completed,
        arbiter_grants=pool.arbiter.grants_by_vm.get(vm.name, 0),
    )


def concurrency_stats(
    vm,
    elapsed: float | None = None,
    since: ConcurrencySnapshot | None = None,
) -> ConcurrencyStats:
    """Event-loop occupancy + pool utilization for one vPHI-enabled VM.

    With no arguments the window is the whole run (time 0 to the
    simulation clock, which is right after a ``machine.run()`` to
    quiescence).  To measure a sub-interval pass ``since=`` a
    :class:`ConcurrencySnapshot` taken at the window's start — the
    paused/busy/credit numbers are then *deltas* against that boundary.
    A bare ``elapsed`` (without ``since``) only rescales whole-run
    totals and is almost never what a sub-window measurement wants:
    dividing run-total paused time by a shorter window inflates
    occupancy (historically masked by the ``min(..., 1.0)`` clamp).
    """
    backend = vm.vphi.backend
    now = backend.sim.now
    if since is not None:
        if since.vm != vm.name:
            raise ValueError(
                f"snapshot is for VM {since.vm!r}, stats requested for {vm.name!r}"
            )
        if elapsed is None:
            elapsed = now - since.time
        paused = vm.domain.paused_seconds - since.paused_seconds
    else:
        if elapsed is None:
            elapsed = now
        paused = vm.domain.paused_seconds
    occupancy = min(paused / elapsed, 1.0) if elapsed > 0 else 0.0
    pool = backend.pool
    if pool is None:
        return ConcurrencyStats(vm.name, elapsed, occupancy)
    base = since or ConcurrencySnapshot(vm.name, 0.0, 0.0)
    busy = pool.busy_time - base.pool_busy
    util = min(busy / (pool.size * elapsed), 1.0) if elapsed > 0 else 0.0
    return ConcurrencyStats(
        vm.name, elapsed, occupancy,
        pool_size=pool.size,
        pool_utilization=util,
        peak_inflight=pool.peak_inflight,
        pooled_requests=pool.completed - base.pool_completed,
        credit_wait=pool.credit_wait - base.pool_credit_wait,
        arbiter_grants=pool.arbiter.grants_by_vm.get(vm.name, 0)
        - base.arbiter_grants,
    )


def render_concurrency(
    vm,
    elapsed: float | None = None,
    since: ConcurrencySnapshot | None = None,
) -> str:
    """Human-readable concurrency summary for one VM."""
    s = concurrency_stats(vm, elapsed, since=since)
    mode = f"pooled x{s.pool_size}" if s.pooled else "blocking"
    lines = [
        f"vPHI backend concurrency ({s.vm}, {mode} dispatch):",
        f"  event-loop occupancy (vCPU paused)  {s.event_loop_occupancy:6.1%}",
    ]
    if s.pooled:
        lines += [
            f"  pool utilization                    {s.pool_utilization:6.1%}",
            f"  peak in-flight window               {s.peak_inflight:>6}",
            f"  requests pooled                     {s.pooled_requests:>6}",
            f"  time waiting for dispatch credits   {s.credit_wait * 1e6:6.1f} us",
            f"  card arbiter grants                 {s.arbiter_grants:>6}",
        ]
    return "\n".join(lines)


@dataclass(frozen=True)
class RecoveryStats:
    """How one VM's vPHI session weathered card resets and restarts.

    All-zero on fault-free runs; with ``recovery_policy`` armed the
    interesting numbers are ``recoveries`` (complete journal replays),
    ``rebuild_mean`` (how long the session stayed degraded) and
    ``stale_dropped`` (pre-reset completions the epoch fence kept out of
    the rebuilt state).
    """

    vm: str
    policy: str
    state: str
    resets_seen: int = 0
    recoveries: int = 0
    replayed_ops: int = 0
    replay_failures: int = 0
    endpoints_lost: int = 0
    aborted_inflight: int = 0
    stale_dropped: int = 0
    queued_submits: int = 0
    rejected_submits: int = 0
    journal_size: int = 0
    circuit_open: bool = False
    rebuild_mean: float = 0.0  # seconds
    rebuild_max: float = 0.0  # seconds


def recovery_stats(vm) -> RecoveryStats:
    """Session-recovery metrics for one vPHI-enabled VM."""
    ses = vm.vphi.frontend.session
    times = ses.rebuild_times
    return RecoveryStats(
        vm.name,
        policy=ses.policy,
        state=ses.state,
        resets_seen=ses.resets_seen,
        recoveries=ses.recoveries,
        replayed_ops=ses.replayed_ops,
        replay_failures=ses.replay_failures,
        endpoints_lost=ses.endpoints_lost,
        aborted_inflight=ses.aborted_inflight,
        stale_dropped=ses.stale_drops,
        queued_submits=ses.queued_submits,
        rejected_submits=ses.rejected_submits,
        journal_size=ses.journal.size,
        circuit_open=ses.state == "broken",
        rebuild_mean=sum(times) / len(times) if times else 0.0,
        rebuild_max=max(times) if times else 0.0,
    )


def render_recovery(vm) -> str:
    """Human-readable session-recovery summary for one VM."""
    s = recovery_stats(vm)
    lines = [
        f"vPHI session recovery ({s.vm}, policy={s.policy}, state={s.state}):",
        f"  resets seen                         {s.resets_seen:>6}",
        f"  sessions rebuilt                    {s.recoveries:>6}",
        f"  ops replayed                        {s.replayed_ops:>6}",
        f"  replay failures                     {s.replay_failures:>6}",
        f"  endpoints lost                      {s.endpoints_lost:>6}",
        f"  in-flight requests fenced           {s.aborted_inflight:>6}",
        f"  stale completions dropped           {s.stale_dropped:>6}",
        f"  submits queued during rebuild       {s.queued_submits:>6}",
        f"  submits rejected (fail-fast)        {s.rejected_submits:>6}",
        f"  journal size (facts)                {s.journal_size:>6}",
    ]
    if s.recoveries:
        lines.append(
            f"  rebuild time mean / max       {s.rebuild_mean * 1e6:8.1f} / "
            f"{s.rebuild_max * 1e6:.1f} us"
        )
    if s.circuit_open:
        lines.append("  CIRCUIT OPEN: session abandoned after repeated resets")
    return "\n".join(lines)


def render_breakdown(frontend) -> str:
    """The human-readable table (what §IV-B summarizes in one sentence)."""
    shares = overhead_breakdown(frontend)
    lines = ["vPHI virtualization overhead breakdown (per request):"]
    for p in shares:
        lines.append(
            f"  {p.phase:<32} {p.per_request * 1e6:8.1f} us  {p.share_of_overhead:6.1%}"
        )
    total = sum(p.per_request for p in shares)
    lines.append(f"  {'total overhead':<32} {total * 1e6:8.1f} us")
    return "\n".join(lines)
