"""The open-loop harness end-to-end: conservation, determinism, QoS.

Includes the chaos hook: setting ``VPHI_CHAOS_TRAFFIC=1`` (the nightly
job does) randomizes the plan seed; the failing seed is printed so a
red run replays bit-for-bit with ``TrafficPlan(..., seed=<seed>)``.
"""

import os
import random

import pytest

from repro.analysis import merged_latency_stat, qos_stats, render_qos
from repro.traffic import (
    MMPP,
    Poisson,
    TenantSpec,
    TrafficPlan,
    WorkloadMix,
    run_plan,
)

# the nightly chaos job randomizes the traffic seed; CI stays pinned
if os.environ.get("VPHI_CHAOS_TRAFFIC"):
    CHAOS_SEED = random.SystemRandom().randrange(1 << 30)
else:
    CHAOS_SEED = 0


def small_plan(policy="wfq", seed=CHAOS_SEED, **kw):
    defaults = dict(
        tenants=[
            TenantSpec(name="fast", arrivals=Poisson(40_000.0),
                       mix=WorkloadMix.interactive(), share=2.0, count=3),
            TenantSpec(name="slow", arrivals=Poisson(20_000.0),
                       mix=WorkloadMix.interactive(), share=1.0, count=3),
        ],
        policy=policy, duration=0.004, seed=seed, slots=2,
        backend_workers=2, max_inflight=4, admit_queue_depth=6,
    )
    defaults.update(kw)
    return TrafficPlan(**defaults)


class TestConservation:
    @pytest.mark.parametrize("policy", ["rr", "wfq", "priority"])
    def test_every_arrival_gets_a_typed_outcome(self, policy):
        """The harness invariant under every policy, chaos-seeded in
        the nightly job: offered == completed + shed + errors, and the
        arbiter holds its full credit complement afterwards."""
        result = run_plan(small_plan(policy))
        result.check_conservation()  # raises on a stranded arrival
        total = sum(load.offered for load in result.loads)
        assert total > 0, f"seed {CHAOS_SEED}: no arrivals generated"
        shed = sum(load.shed for load in result.loads)
        assert shed > 0, (
            f"seed {CHAOS_SEED}: oversubscribed plan shed nothing — "
            "admission control is not engaging"
        )

    def test_conservation_with_bursty_arrivals(self):
        plan = small_plan(tenants=[
            TenantSpec(name="burst",
                       arrivals=MMPP(5_000.0, 100_000.0, 0.002, 0.001),
                       mix=WorkloadMix.mixed(), count=4),
        ])
        result = run_plan(plan)
        result.check_conservation()

    def test_conservation_when_tenant_vm_errors_mid_plan(self):
        """A tenant whose requests fail mid-plan still settles every
        arrival: errors are a typed outcome, not a leak.  Injected
        SCIF_ERROR on every 7th send — setup ops (open/connect) stay
        clean so the pacers all reach the measurement gate."""
        from repro.faults import FaultKind, FaultPlan, FaultSpec
        from repro.scif.errors import EINVAL
        from repro.system import Machine

        plan = FaultPlan.of(FaultSpec(kind=FaultKind.SCIF_ERROR,
                                      errno=EINVAL, op="send", every=7))
        machine = Machine(cards=1, fault_plan=plan).boot()
        result = run_plan(small_plan("wfq", seed=3), machine=machine)
        result.check_conservation()
        errors = sum(load.errors for load in result.loads)
        completed = sum(load.completed for load in result.loads)
        assert errors > 0, "fault plan injected nothing"
        assert completed > 0, "every request failed — plan too aggressive"
        for load in result.loads:
            assert load.offered == load.completed + load.shed + load.errors


class TestDeterminism:
    def test_same_plan_same_counters(self):
        a = run_plan(small_plan(seed=11))
        b = run_plan(small_plan(seed=11))
        for la, lb in zip(a.loads, b.loads):
            assert (la.offered, la.completed, la.shed, la.errors) == \
                (lb.offered, lb.completed, lb.shed, lb.errors)
            sa, sb = merged_latency_stat(la.vm), merged_latency_stat(lb.vm)
            assert (sa.count, sa.total, sa.min, sa.max, sa.buckets) == \
                (sb.count, sb.total, sb.min, sb.max, sb.buckets)

    def test_different_seed_different_trace(self):
        a = run_plan(small_plan(seed=11))
        b = run_plan(small_plan(seed=12))
        assert [x.offered for x in a.loads] != [x.offered for x in b.loads]


class TestQosIntegration:
    def test_wfq_report_shape_and_fairness(self):
        result = run_plan(small_plan("wfq"))
        result.check_conservation()
        report = qos_stats(result)
        assert report.policy == "wfq"
        assert len(report.tenants) == 6
        assert report.total_offered == sum(x.offered for x in result.loads)
        assert 0.0 < report.weighted_jain <= 1.0
        # equal-mix tenants at 2:1 shares under sustained overload: wfq
        # keeps share-normalized throughput close to even
        assert report.weighted_jain >= 0.9
        rendered = render_qos(report)
        assert "fast-0" in rendered and "wfq" in rendered
        for t in report.tenants:
            if t.completed:
                assert t.p50 <= t.p95 <= t.p99

    def test_render_limits_rows(self):
        result = run_plan(small_plan("rr"))
        rendered = render_qos(qos_stats(result), limit=2)
        assert "... and 4 more tenants" in rendered
