"""Power analysis: throughput-per-watt, throttle residency, tail spikes.

Three views over a run with the power model on (``power_model="knc"``):

* :func:`power_stats` — per-card energy/thermal/residency accounting
  joined with the uOS scheduler's delivered flops, yielding the
  datacenter currencies: average watts and GFLOPS per watt.
* :func:`render_power` — the human table.
* :func:`throttle_tail` — per-op latency percentiles computed from the
  PR 5 span record, with the throttled-dispatch count alongside, so a
  throttle-induced p99 spike is attributable in the same breakdown the
  span machinery already provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "CardPowerStats",
    "PowerReport",
    "power_stats",
    "render_power",
    "throttle_tail",
]


@dataclass
class CardPowerStats:
    """One card's power accounting over a run."""

    card: str
    sku: str
    elapsed_s: float
    energy_j: float
    flops_delivered: float
    busy_time_s: float
    throttled_time_s: float
    pstate_residency_s: list[float]
    cstate_core_seconds: dict[str, float]
    max_temp_c: float
    thermal_trips: int
    governor_ticks: int
    tdp_cap_w: float

    @property
    def avg_watts(self) -> float:
        return self.energy_j / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def gflops_per_watt(self) -> float:
        """Delivered GFLOPS per average watt — the efficiency currency."""
        if self.energy_j <= 0:
            return 0.0
        return (self.flops_delivered / 1e9) / self.energy_j

    @property
    def throttle_residency(self) -> float:
        """Fraction of the busy window spent below the requested clock."""
        if self.busy_time_s <= 0:
            return 0.0
        return min(self.throttled_time_s / self.busy_time_s, 1.0)


@dataclass
class PowerReport:
    """All cards' power stats for one machine (or cluster host)."""

    cards: list[CardPowerStats] = field(default_factory=list)


def power_stats(machine, elapsed: Optional[float] = None) -> PowerReport:
    """Collect per-card power stats from a machine with the model on.

    ``elapsed`` defaults to the simulator clock; pass a window length
    to rate a sub-interval measured by the caller.
    """
    if elapsed is None:
        elapsed = machine.sim.now
    report = PowerReport()
    for dev in machine.devices:
        power = dev.power
        if power is None:
            continue
        snap = power.stats()  # advances integrals to sim.now
        sched = dev.uos.scheduler if dev.uos is not None else None
        report.cards.append(CardPowerStats(
            card=dev.name,
            sku=dev.sku.name,
            elapsed_s=elapsed,
            energy_j=snap["energy_j"],
            flops_delivered=sched.flops_delivered if sched else 0.0,
            busy_time_s=sched.busy_time if sched else 0.0,
            throttled_time_s=snap["throttled_time_s"],
            pstate_residency_s=snap["pstate_residency_s"],
            cstate_core_seconds=snap["cstate_core_seconds"],
            max_temp_c=snap["max_temp_c"],
            thermal_trips=snap["thermal_trips"],
            governor_ticks=snap["governor_ticks"],
            tdp_cap_w=snap["tdp_cap_w"],
        ))
    return report


def render_power(report: PowerReport) -> str:
    """The per-card power table, one row per card."""
    lines = [
        f"{'card':<6} {'sku':<6} {'cap(W)':>7} {'avg(W)':>7} "
        f"{'energy(J)':>10} {'GF/W':>7} {'thr%':>6} {'maxT(C)':>8} "
        f"{'trips':>5}"
    ]
    for c in report.cards:
        lines.append(
            f"{c.card:<6} {c.sku:<6} {c.tdp_cap_w:>7.0f} {c.avg_watts:>7.1f} "
            f"{c.energy_j:>10.2f} {c.gflops_per_watt:>7.3f} "
            f"{c.throttle_residency:>6.1%} {c.max_temp_c:>8.1f} "
            f"{c.thermal_trips:>5}"
        )
        deepest = len(c.pstate_residency_s) - 1
        resid = "  ".join(
            f"P{i}={t:.4f}s" for i, t in enumerate(c.pstate_residency_s)
            if t > 0 or i in (0, deepest)
        )
        lines.append(f"       pstate residency: {resid}")
    return "\n".join(lines)


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Exact nearest-rank percentile over an already-sorted list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals))))
    return sorted_vals[idx]


def throttle_tail(vm, ops: Optional[Iterable[str]] = None) -> dict[str, dict]:
    """Per-op latency percentiles from one VM's span record, throttle-aware.

    Returns ``{op: {count, p50, p99, max}}`` from closed ok spans, plus
    a ``"_throttled_ops"`` entry carrying the backend's count of
    dispatches that ran with a frequency multiplier — the pair is what
    surfaces a throttle-induced p99 spike next to its cause.
    """
    wanted = set(ops) if ops is not None else None
    by_op: dict[str, list[float]] = {}
    for span in vm.tracer.spans:
        if span.status != "ok":
            continue
        if wanted is not None and span.op not in wanted:
            continue
        by_op.setdefault(span.op, []).append(span.elapsed)
    out: dict[str, dict] = {}
    for op, vals in sorted(by_op.items()):
        vals.sort()
        out[op] = {
            "count": len(vals),
            "p50": _percentile(vals, 0.50),
            "p99": _percentile(vals, 0.99),
            "max": vals[-1],
        }
    out["_throttled_ops"] = {"count": vm.vphi.backend.throttled_ops}
    return out
