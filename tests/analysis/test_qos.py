"""SLO accounting: Jain's index, histogram merging, report rendering."""

import math

import pytest

from repro.analysis import jain_index, merged_latency_stat, qos_stats
from repro.analysis.qos import QosReport, TenantSLO, render_qos
from repro.sim.trace import LatencyStat


class TestJain:
    def test_perfectly_even(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_tenant_has_everything(self):
        assert jain_index([9.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_empty_and_zero_are_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_known_value(self):
        # J([1,2,3]) = 36 / (3 * 14)
        assert jain_index([1, 2, 3]) == pytest.approx(36 / 42)


class _FakeTracer:
    def __init__(self, stats):
        self.stats = stats


class _FakeVm:
    def __init__(self, stats):
        self.tracer = _FakeTracer(stats)


def _stat(name, samples):
    s = LatencyStat(name)
    for x in samples:
        s.add(x)
    return s


class TestMergedHistogram:
    def test_merges_only_op_latency_keys(self):
        vm = _FakeVm({
            "vphi.op.send.latency": _stat("a", [1e-5, 2e-5]),
            "vphi.op.vreadfrom.latency": _stat("b", [4e-4]),
            "vphi.ring.kicks": _stat("c", [99.0]),  # not an op latency
        })
        merged = merged_latency_stat(vm)
        assert merged.count == 3
        assert merged.max == pytest.approx(4e-4)
        assert merged.min == pytest.approx(1e-5)

    def test_unregistered_op_latency_is_left_out(self):
        vm = _FakeVm({
            "vphi.op.send.latency": _stat("a", [1e-5]),
            "vphi.op.bogus.latency": _stat("b", [1.0]),  # no such op
        })
        merged = merged_latency_stat(vm)
        assert merged.count == 1
        assert merged.max == pytest.approx(1e-5)

    def test_percentiles_track_merged_population(self):
        fast = [1e-5] * 90
        slow = [1e-3] * 10
        vm = _FakeVm({
            "vphi.op.send.latency": _stat("a", fast),
            "vphi.op.writeto.latency": _stat("b", slow),
        })
        merged = merged_latency_stat(vm)
        assert merged.p50 < 1e-4
        assert merged.p99 > 5e-4

    def test_empty_vm_merges_empty(self):
        merged = merged_latency_stat(_FakeVm({}))
        assert merged.count == 0


def _slo(name, share, tput, **kw):
    defaults = dict(priority=0, offered=100, completed=80, shed=15,
                    errors=5, goodput=0.0, p50=1e-5, p95=2e-5, p99=3e-5,
                    mean=1.5e-5)
    defaults.update(kw)
    return TenantSLO(name=name, share=share, throughput=tput, **defaults)


class TestReport:
    def make_report(self):
        tenants = (
            _slo("gold-0", 4.0, 400.0),
            _slo("gold-1", 4.0, 400.0),
            _slo("bronze-0", 1.0, 100.0),
            _slo("effort-0", 0.0, 25.0),
        )
        weighted = [t.throughput / t.share for t in tenants if t.share > 0]
        return QosReport(
            policy="wfq", duration=0.01, tenants=tenants,
            jain=jain_index(t.throughput for t in tenants),
            weighted_jain=jain_index(weighted),
            total_offered=400, total_completed=320, total_shed=60,
            total_errors=20,
        )

    def test_weighted_jain_excludes_best_effort(self):
        report = self.make_report()
        # gold and bronze normalize to exactly 100 each -> perfect
        assert report.weighted_jain == pytest.approx(1.0)
        assert report.jain < 1.0

    def test_admit_ratio_and_worst_p99(self):
        report = self.make_report()
        assert report.tenants[0].admit_ratio == pytest.approx(0.8)
        assert report.worst_p99 == pytest.approx(3e-5)

    def test_render_contains_headlines_and_rows(self):
        out = render_qos(self.make_report())
        assert "policy=wfq" in out
        assert "Jain's index" in out
        assert "gold-0" in out and "effort-0" in out
        assert "shed" in out

    def test_render_truncates(self):
        out = render_qos(self.make_report(), limit=1)
        assert "... and 3 more tenants" in out
        assert "bronze-0" not in out


class TestQosStatsDuckTyping:
    def test_builds_from_harness_like_object(self):
        class Load:
            def __init__(self, name, share, completed):
                class Spec:
                    pass
                self.spec = Spec()
                self.spec.share = share
                self.spec.priority = 0
                self.name = name
                self.offered = completed + 2
                self.completed = completed
                self.shed = 2
                self.errors = 0
                self.bytes_done = completed * 1024
                self.vm = _FakeVm({
                    "vphi.op.send.latency": _stat("s", [1e-5] * completed),
                })

        class Result:
            class plan:
                duration = 0.01
                policy = "rr"

            loads = [Load("a", 1.0, 10), Load("b", 1.0, 10)]

        report = qos_stats(Result())
        assert report.policy == "rr"
        assert report.total_completed == 20
        assert report.weighted_jain == pytest.approx(1.0)
        assert not math.isnan(report.tenants[0].p99)
