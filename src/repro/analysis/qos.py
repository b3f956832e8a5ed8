"""Per-tenant SLO accounting for multi-tenant QoS runs.

Builds on the PR 5 trace layer: per-request latency is already recorded
into each VM's sparse geometric histograms
(:class:`~repro.sim.trace.LatencyStat`, one per op), so the SLO
percentiles here come from **merging histogram buckets** — no new
hot-path observations, and a 200-tenant sweep costs one dict walk per
tenant at report time.

The fairness headline is Jain's index

    J(x) = (sum x_i)^2 / (n * sum x_i^2)

over per-tenant throughput: 1.0 = perfectly even, 1/n = one tenant has
everything.  The *weighted* variant normalizes each tenant's throughput
by its wfq share first (x_i / w_i), so under weighted fair queuing the
target is still 1.0 even when the shares are deliberately unequal;
best-effort tenants (share 0) are excluded from the weighted index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..sim.trace import LatencyStat

__all__ = [
    "TenantSLO",
    "QosReport",
    "jain_index",
    "merged_latency_stat",
    "qos_stats",
    "render_qos",
]


def jain_index(values: Iterable[float]) -> float:
    """Jain's fairness index of a sample; 1.0 for an empty/zero sample
    (nothing allocated is vacuously fair)."""
    xs = [float(v) for v in values]
    n = len(xs)
    total = sum(xs)
    if n == 0 or total == 0.0:
        return 1.0
    sq = sum(x * x for x in xs)
    return (total * total) / (n * sq)


def merged_latency_stat(vm, name: str = "merged") -> LatencyStat:
    """One tenant's end-to-end request latency distribution, merged
    bucket-by-bucket from the histograms of its registered ops."""
    from ..vphi.ops import registered_ops

    latency_keys = {spec.latency_key for spec in registered_ops()}
    merged = LatencyStat(name)
    for key, stat in vm.tracer.stats.items():
        if key not in latency_keys:
            continue
        merged.count += stat.count
        merged.total += stat.total
        merged.zeros += stat.zeros
        if stat.min < merged.min:
            merged.min = stat.min
        if stat.max > merged.max:
            merged.max = stat.max
        for idx, n in stat.buckets.items():
            merged.buckets[idx] = merged.buckets.get(idx, 0) + n
    return merged


@dataclass(frozen=True)
class TenantSLO:
    """One tenant's service-level summary for a run."""

    name: str
    share: float
    priority: int
    offered: int
    completed: int
    shed: int
    errors: int
    #: completions per second over the measurement window.
    throughput: float
    #: payload bytes completed per second.
    goodput: float
    #: merged per-op latency percentiles (seconds; 0 if nothing completed).
    p50: float
    p95: float
    p99: float
    mean: float

    @property
    def admit_ratio(self) -> float:
        return self.completed / self.offered if self.offered else 1.0


@dataclass(frozen=True)
class QosReport:
    """The whole run: per-tenant rows + fairness headlines."""

    policy: str
    duration: float
    tenants: tuple[TenantSLO, ...]
    #: Jain's index over raw per-tenant throughput.
    jain: float
    #: Jain's index over share-normalized throughput (wfq's target).
    weighted_jain: float
    total_offered: int
    total_completed: int
    total_shed: int
    total_errors: int

    @property
    def worst_p99(self) -> float:
        return max((t.p99 for t in self.tenants if t.completed), default=0.0)


def qos_stats(result) -> QosReport:
    """Build the report from a :class:`~repro.traffic.harness.HarnessResult`
    (duck-typed: anything with ``plan``, ``loads`` and per-load ``vm``)."""
    plan = result.plan
    window = plan.duration
    rows = []
    for load in result.loads:
        stat = merged_latency_stat(load.vm, name=load.name)
        completed = load.completed
        rows.append(TenantSLO(
            name=load.name,
            share=load.spec.share,
            priority=load.spec.priority,
            offered=load.offered,
            completed=completed,
            shed=load.shed,
            errors=load.errors,
            throughput=completed / window,
            goodput=load.bytes_done / window,
            p50=stat.p50 if completed else 0.0,
            p95=stat.p95 if completed else 0.0,
            p99=stat.p99 if completed else 0.0,
            mean=stat.mean if completed else 0.0,
        ))
    weighted = [t.throughput / t.share for t in rows if t.share > 0]
    return QosReport(
        policy=plan.policy,
        duration=window,
        tenants=tuple(rows),
        jain=jain_index(t.throughput for t in rows),
        weighted_jain=jain_index(weighted),
        total_offered=sum(t.offered for t in rows),
        total_completed=sum(t.completed for t in rows),
        total_shed=sum(t.shed for t in rows),
        total_errors=sum(t.errors for t in rows),
    )


def _us(v: float) -> str:
    return f"{v * 1e6:.0f}"


def render_qos(report: QosReport, limit: Optional[int] = 16) -> str:
    """The per-tenant SLO table + fairness headlines, print-ready."""
    lines = [
        f"QoS report: policy={report.policy} window={report.duration:g}s "
        f"tenants={len(report.tenants)}",
        f"  offered {report.total_offered}  completed "
        f"{report.total_completed}  shed {report.total_shed}  errors "
        f"{report.total_errors}",
        f"  Jain's index {report.jain:.4f}  (share-weighted "
        f"{report.weighted_jain:.4f})",
        "",
        f"  {'tenant':<16} {'share':>5} {'prio':>4} {'offered':>8} "
        f"{'done':>7} {'shed':>7} {'err':>4} {'req/s':>9} "
        f"{'p50us':>7} {'p95us':>7} {'p99us':>7}",
    ]
    shown = report.tenants if limit is None else report.tenants[:limit]
    for t in shown:
        lines.append(
            f"  {t.name:<16} {t.share:>5g} {t.priority:>4} {t.offered:>8} "
            f"{t.completed:>7} {t.shed:>7} {t.errors:>4} "
            f"{t.throughput:>9.0f} {_us(t.p50):>7} {_us(t.p95):>7} "
            f"{_us(t.p99):>7}"
        )
    hidden = len(report.tenants) - len(shown)
    if hidden > 0:
        lines.append(f"  ... and {hidden} more tenants")
    return "\n".join(lines)
