"""Ablation A12: arbiter policy under 10x oversubscription, 200 tenants.

The paper's headline is that many VMs share one Phi card with near-native
efficiency — but §III's dispatch is plain round-robin, which says nothing
about *fairness* once the card is oversubscribed.  This ablation drives
the open-loop traffic harness (``repro.traffic``) against all three
arbiter policies with the same seeded plan and lets the SLO layer
(``repro.analysis.qos``) judge them.

The tenant population (200 VMs, one shared card, 4 dispatch slots):

* 160 *gold* tenants — latency-bound interactive sends, wfq share 4
* 20 *bronze* tenants — the same mix at wfq share 1
* 20 *bulk* tenants — 128 KB RMA streams at share 0 (best-effort), the
  background load whose long slot holds wreck everyone's tail if the
  arbiter lets them in

Offered load is ~10x what the card completes, so admission control is
doing real work (most arrivals shed as typed EBUSY).  The acceptance
shape: WFQ holds the share-weighted Jain index >= 0.95 and keeps gold
p99 bounded, where round-robin — blind to shares, happily granting bulk
RMA slots — degrades both.
"""

from conftest import print_table
from repro.analysis import qos_stats
from repro.traffic import Poisson, TenantSpec, TrafficPlan, WorkloadMix, run_plan

#: simulated measurement window (seconds of open-loop arrivals).
DURATION = 0.008
SEED = 7
SLOTS = 4
POLICIES = ("rr", "wfq", "priority")

GOLD_COUNT, BRONZE_COUNT, BULK_COUNT = 160, 20, 20
GOLD_RATE, BRONZE_RATE, BULK_RATE = 20_000.0, 10_000.0, 2_000.0

#: WFQ must hold the share-weighted Jain index at least this high.
JAIN_FLOOR = 0.95


def build_plan(policy: str) -> TrafficPlan:
    return TrafficPlan(
        tenants=[
            TenantSpec(name="gold", arrivals=Poisson(GOLD_RATE),
                       mix=WorkloadMix.interactive(), share=4.0, priority=0,
                       count=GOLD_COUNT),
            TenantSpec(name="bronze", arrivals=Poisson(BRONZE_RATE),
                       mix=WorkloadMix.interactive(), share=1.0, priority=1,
                       count=BRONZE_COUNT),
            TenantSpec(name="bulk", arrivals=Poisson(BULK_RATE),
                       mix=WorkloadMix.bulk(), share=0.0, priority=2,
                       count=BULK_COUNT),
        ],
        policy=policy, duration=DURATION, seed=SEED, slots=SLOTS,
        backend_workers=2, max_inflight=4, admit_queue_depth=8,
    )


def gold_p99(report) -> float:
    """Worst p99 (seconds) across the gold tenants that completed work."""
    return max(t.p99 for t in report.tenants
               if t.name.startswith("gold") and t.completed)


def run_qos_ablation() -> dict:
    """Run the same plan under every policy -> {policy: QosReport}."""
    reports = {}
    for policy in POLICIES:
        result = run_plan(build_plan(policy))
        result.check_conservation()
        reports[policy] = qos_stats(result)
    return reports


def test_ablation_qos(run_once, golden):
    reports = run_once(run_qos_ablation)
    golden("a12", {
        "figure": "a12",
        "unit": "mixed",
        "weighted_jain_by_policy": [[p, r.weighted_jain] for p, r in reports.items()],
        "gold_p99_by_policy": [[p, gold_p99(r)] for p, r in reports.items()],
        "completed_by_policy": [[p, r.total_completed] for p, r in reports.items()],
        "shed_by_policy": [[p, r.total_shed] for p, r in reports.items()],
    })
    rr, wfq, prio = reports["rr"], reports["wfq"], reports["priority"]

    rows = []
    for policy, rep in reports.items():
        rows.append([
            policy,
            f"{rep.weighted_jain:.4f}",
            f"{gold_p99(rep) * 1e6:.0f} us",
            f"{rep.total_completed}",
            f"{rep.total_shed}",
            f"{rep.total_offered / rep.total_completed:.1f}x",
        ])
    print_table(
        "A12: arbiter policy at 10x oversubscription (200 tenants)",
        ["policy", "weighted Jain", "gold p99", "completed", "shed", "oversub"],
        rows,
    )

    # the offered load really is ~10x the card's completion capacity
    assert rr.total_offered >= 8 * rr.total_completed, (
        f"scenario is not oversubscribed: offered {rr.total_offered} vs "
        f"completed {rr.total_completed}"
    )

    # admission control shed load (as typed EBUSY) instead of deadlocking;
    # conservation was already asserted inside run_qos_ablation
    for policy, rep in reports.items():
        assert rep.total_shed > 0, f"{policy}: nothing shed at 10x load"
        assert rep.total_errors == 0, f"{policy}: untyped failures leaked"

    # WFQ holds share-weighted fairness where round-robin degrades
    assert wfq.weighted_jain >= JAIN_FLOOR, (
        f"wfq weighted Jain {wfq.weighted_jain:.4f} < {JAIN_FLOOR}"
    )
    assert rr.weighted_jain < wfq.weighted_jain, (
        f"rr weighted Jain {rr.weighted_jain:.4f} should degrade below "
        f"wfq {wfq.weighted_jain:.4f}"
    )

    # WFQ bounds the gold tail where round-robin (granting bulk RMA slots
    # on equal terms) collapses it; strict priority does at least as well
    assert gold_p99(wfq) < gold_p99(rr), (
        f"wfq gold p99 {gold_p99(wfq):.6f}s should beat rr {gold_p99(rr):.6f}s"
    )
    assert gold_p99(prio) <= gold_p99(wfq) * 1.1, (
        "strict priority should bound the gold tail at least as tightly "
        "as wfq"
    )
