"""Declarative traffic plans: tenants, QoS identities, workload mixes.

A :class:`TrafficPlan` is the unit the harness runs and the CLI
loads (``python -m repro qos --plan plan.json``): an arbiter
policy, a duration, a seed, and a list of tenant groups, each with an
arrival process, a workload mix and a QoS identity (``share`` for wfq,
``priority`` for strict classes).  A group with ``count > 1`` expands
into that many identically-shaped tenants (``name-0`` .. ``name-N-1``),
which is how a 200-tenant oversubscription sweep stays a ten-line file.

Workload mixes draw from the paper's two microbenchmark op shapes
(:mod:`repro.workloads`): ``send`` (Fig 4 send/recv message) and
``rma_read`` / ``rma_write`` (Fig 5 remote RMA against a registered
window).  The presets match the regimes the paper sweeps: *interactive*
= small latency-bound sends, *bulk* = window-sized RMA, *mixed* = both.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from .arrivals import ArrivalProcess, make_arrivals

__all__ = ["WorkloadMix", "TenantSpec", "TrafficPlan"]

KB = 1 << 10

#: request kinds a mix may contain (the harness knows how to drive these).
KINDS = ("send", "rma_read", "rma_write")

#: the policies the card arbiter implements (mirrors CardArbiter.POLICIES
#: without importing the sim stack into the plan layer).
POLICIES = ("rr", "wfq", "priority")


@dataclass(frozen=True)
class WorkloadMix:
    """A weighted mix of request shapes: ``(kind, nbytes, weight)``."""

    name: str
    items: tuple[tuple[str, int, float], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError(f"mix {self.name!r} has no items")
        for kind, nbytes, weight in self.items:
            if kind not in KINDS:
                raise ValueError(
                    f"mix {self.name!r}: unknown kind {kind!r} "
                    f"(choose from {KINDS})"
                )
            if nbytes <= 0:
                raise ValueError(f"mix {self.name!r}: nbytes must be positive")
            if weight <= 0:
                raise ValueError(f"mix {self.name!r}: weight must be positive")

    def draw(self, rng: random.Random) -> tuple[str, int]:
        """One weighted draw -> ``(kind, nbytes)``."""
        total = sum(w for _, _, w in self.items)
        x = rng.random() * total
        for kind, nbytes, weight in self.items:
            x -= weight
            if x <= 0:
                return kind, nbytes
        kind, nbytes, _ = self.items[-1]  # pragma: no cover - fp slack
        return kind, nbytes

    @property
    def max_nbytes(self) -> int:
        return max(n for _, n, _ in self.items)

    # -- presets (the paper's two microbenchmark regimes) --------------
    @classmethod
    def interactive(cls) -> "WorkloadMix":
        """Small latency-bound sends (the Fig 4 send/recv shape)."""
        return cls("interactive", (
            ("send", 64, 0.5), ("send", 1 * KB, 0.35), ("send", 4 * KB, 0.15),
        ))

    @classmethod
    def bulk(cls) -> "WorkloadMix":
        """Window-sized RMA transfers (the Fig 5 remote-read shape)."""
        return cls("bulk", (
            ("rma_read", 128 * KB, 0.6), ("rma_write", 128 * KB, 0.4),
        ))

    @classmethod
    def mixed(cls) -> "WorkloadMix":
        """Interactive sends with an RMA tail — the contended regime."""
        return cls("mixed", (
            ("send", 1 * KB, 0.7), ("rma_read", 64 * KB, 0.2),
            ("rma_write", 64 * KB, 0.1),
        ))

    PRESETS = ("interactive", "bulk", "mixed")

    @classmethod
    def from_spec(cls, spec) -> "WorkloadMix":
        """A preset name or ``{"name": ..., "items": [[kind, nbytes, w]]}``."""
        if isinstance(spec, WorkloadMix):
            return spec
        if isinstance(spec, str):
            if spec not in cls.PRESETS:
                raise ValueError(
                    f"unknown mix preset {spec!r} (choose from {cls.PRESETS})"
                )
            return getattr(cls, spec)()
        if isinstance(spec, dict):
            items = spec.get("items")
            if not isinstance(items, (list, tuple)):
                raise ValueError(f"mix spec needs an 'items' list, got {spec!r}")
            return cls(
                str(spec.get("name", "custom")),
                tuple((str(k), int(n), float(w)) for k, n, w in items),
            )
        raise ValueError(f"bad mix spec {spec!r}")

    def to_dict(self):
        if self.name in self.PRESETS and self == getattr(
                WorkloadMix, self.name)():
            return self.name
        return {"name": self.name,
                "items": [list(item) for item in self.items]}


@dataclass
class TenantSpec:
    """One tenant group: QoS identity + traffic shape (+ replication)."""

    name: str
    arrivals: ArrivalProcess
    mix: WorkloadMix
    share: float = 1.0
    priority: int = 0
    count: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.share < 0:
            raise ValueError(f"tenant {self.name!r}: share must be >= 0")
        if self.count < 1:
            raise ValueError(f"tenant {self.name!r}: count must be >= 1")

    def expand(self) -> list["TenantSpec"]:
        """Replicate a group into its individual tenants."""
        if self.count == 1:
            return [self]
        return [
            TenantSpec(f"{self.name}-{i}", self.arrivals, self.mix,
                       self.share, self.priority)
            for i in range(self.count)
        ]

    @classmethod
    def from_dict(cls, d: dict) -> "TenantSpec":
        if not isinstance(d, dict):
            raise ValueError(f"tenant spec must be a dict, got {d!r}")
        unknown = set(d) - {"name", "arrivals", "mix", "share", "priority",
                            "count"}
        if unknown:
            raise ValueError(
                f"tenant {d.get('name', '?')!r}: unknown keys {sorted(unknown)}"
            )
        if "arrivals" not in d:
            raise ValueError(f"tenant {d.get('name', '?')!r}: missing arrivals")
        return cls(
            name=str(d.get("name", "")),
            arrivals=make_arrivals(d["arrivals"]),
            mix=WorkloadMix.from_spec(d.get("mix", "interactive")),
            share=float(d.get("share", 1.0)),
            priority=int(d.get("priority", 0)),
            count=int(d.get("count", 1)),
        )

    def to_dict(self) -> dict:
        d = {"name": self.name, "arrivals": self.arrivals.to_dict(),
             "mix": self.mix.to_dict()}
        if self.share != 1.0:
            d["share"] = self.share
        if self.priority:
            d["priority"] = self.priority
        if self.count != 1:
            d["count"] = self.count
        return d


@dataclass
class TrafficPlan:
    """A complete open-loop experiment: policy + tenants + knobs."""

    tenants: list[TenantSpec]
    policy: str = "wfq"
    duration: float = 0.05
    seed: int = 0
    #: dispatch slots on the shared card arbiter (None = host cores).
    slots: Optional[int] = None
    backend_workers: int = 2
    max_inflight: int = 8
    #: admission depth watermark applied to every tenant (None = no
    #: shedding).
    admit_queue_depth: Optional[int] = None
    #: cluster target: anything beyond 1x1 runs the plan on a
    #: :class:`~repro.cluster.Cluster` instead of a single machine,
    #: placing tenants by ``placement`` policy.
    hosts: int = 1
    cards_per_host: int = 1
    placement: str = "spread"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r} (choose from {POLICIES})"
            )
        if not self.tenants:
            raise ValueError("plan has no tenants")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.hosts < 1 or self.cards_per_host < 1:
            raise ValueError("hosts and cards_per_host must be >= 1")
        if self.placement not in ("spread", "pack"):
            raise ValueError(
                f"unknown placement {self.placement!r} "
                "(choose from ('spread', 'pack'))"
            )
        if self.slots is not None and self.slots < 1:
            raise ValueError("slots must be >= 1 (or None for host cores)")
        if self.backend_workers < 1:
            raise ValueError("backend_workers must be >= 1 (open-loop load "
                             "needs pooled dispatch)")
        names: set[str] = set()
        for t in self.expanded():
            if t.name in names:
                raise ValueError(f"duplicate tenant name {t.name!r}")
            names.add(t.name)

    def expanded(self) -> list[TenantSpec]:
        """Every individual tenant, groups replicated out."""
        out: list[TenantSpec] = []
        for t in self.tenants:
            out.extend(t.expand())
        return out

    # -- serialization -------------------------------------------------
    @classmethod
    def from_dict(cls, d: dict) -> "TrafficPlan":
        if not isinstance(d, dict):
            raise ValueError(f"plan must be a dict, got {type(d).__name__}")
        known = {"tenants", "policy", "duration", "seed", "slots",
                 "backend_workers", "max_inflight", "admit_queue_depth",
                 "hosts", "cards_per_host", "placement"}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"plan: unknown keys {sorted(unknown)}")
        tenants_raw = d.get("tenants")
        if not isinstance(tenants_raw, list) or not tenants_raw:
            raise ValueError("plan needs a non-empty 'tenants' list")
        kwargs = {k: d[k] for k in known - {"tenants"} if k in d}
        return cls(tenants=[TenantSpec.from_dict(t) for t in tenants_raw],
                   **kwargs)

    @classmethod
    def from_file(cls, path) -> "TrafficPlan":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        d: dict = {"policy": self.policy, "duration": self.duration,
                   "seed": self.seed,
                   "tenants": [t.to_dict() for t in self.tenants]}
        if self.slots is not None:
            d["slots"] = self.slots
        d["backend_workers"] = self.backend_workers
        d["max_inflight"] = self.max_inflight
        if self.admit_queue_depth is not None:
            d["admit_queue_depth"] = self.admit_queue_depth
        if self.is_cluster:
            d["hosts"] = self.hosts
            d["cards_per_host"] = self.cards_per_host
            d["placement"] = self.placement
        return d

    @property
    def is_cluster(self) -> bool:
        """True when the plan targets more than one card."""
        return self.hosts > 1 or self.cards_per_host > 1

    # -- canned plans --------------------------------------------------
    @classmethod
    def smoke(cls, tenants: int = 8, policy: str = "wfq",
              oversubscription: float = 10.0,
              duration: float = 0.02, seed: int = 0) -> "TrafficPlan":
        """The CLI's built-in plan: ``tenants`` equal-share interactive
        tenants offering ``oversubscription`` times the card's dispatch
        capacity, with the admission watermark armed."""
        slots = 4
        # a 1 KB send holds a dispatch slot for ~10 us in the calibrated
        # cost model -> capacity ~ slots / 10us; spread the oversubscribed
        # offered load evenly over the tenants.
        per_tenant = oversubscription * slots * 1e5 / tenants
        return cls(
            tenants=[TenantSpec(
                name="tenant",
                arrivals=make_arrivals({"kind": "poisson", "rate": per_tenant}),
                mix=WorkloadMix.interactive(),
                count=tenants,
            )],
            policy=policy, duration=duration, seed=seed, slots=slots,
            admit_queue_depth=16,
        )


def plan_check(plan: TrafficPlan) -> list[str]:
    """Human-readable summary lines ``python -m repro qos`` prints
    before it runs a plan."""
    lines = []
    expanded = plan.expanded()
    total = 0
    rng_base = plan.seed
    for i, t in enumerate(expanded[:4]):
        n = t.arrivals.count(rng_base + i, plan.duration)
        total += n
        lines.append(
            f"  {t.name}: {type(t.arrivals).__name__.lower()} "
            f"mix={t.mix.name} share={t.share:g} prio={t.priority} "
            f"-> {n} arrivals in {plan.duration:g}s"
        )
    if len(expanded) > 4:
        lines.append(f"  ... and {len(expanded) - 4} more tenants")
    lines.insert(0, (
        f"plan ok: {len(expanded)} tenants, policy={plan.policy}, "
        f"duration={plan.duration:g}s, seed={plan.seed}"
    ))
    if plan.is_cluster:
        lines.insert(1, (
            f"  cluster: {plan.hosts} hosts x {plan.cards_per_host} cards, "
            f"placement={plan.placement}"
        ))
    return lines
