"""Ablation A14: power/thermal model — TDP-cap DGEMM sweep, throttle tails.

Two sweeps pin the power model's performance coupling (DESIGN §15):

**DGEMM time/energy vs TDP cap.**  The same fixed-flops compute job runs
under a descending ladder of RAPL-style card caps.  The governor picks
the shallowest P-state floor whose full-load draw fits the cap, so each
cap maps to one working point: time stretches as the clock drops and
average watts stay at or under the cap.  GFLOPS-per-watt *falls* as the
cap tightens: the card's static floor (idle + uncore, ~42% of TDP) burns
for the whole stretched runtime, and the V² dynamic saving never pays it
back — the classic race-to-idle result, which is exactly the trade-off
the report has to surface before an operator picks a cap.  Throttle
residency is zero uncapped and pegged while the job runs capped.

**Guest RMA tail under throttle.**  The vPHI backend prices its fixed
per-op costs through the registry's cost tables; those scale by the
power model's cost multiplier (f0 over the uOS service core's effective
clock).  A guest issuing the Fig 5 vreadfrom workload against a card
pinned to the deepest P-state sees every dispatch surcharged — the span
record shows the p99 spike, and the backend's throttled-dispatch counter
attributes it to the throttle rather than to queueing noise.
"""

import pytest

from conftest import print_table
from repro import Machine
from repro.analysis import power_stats, throttle_tail
from repro.phi import Scope
from repro.workloads import ClientContext, rma_read_throughput

#: fixed compute job: ~0.5 s at the 3120P's P0 clock, 224 threads
FLOPS = 4e11
THREADS = 224
EFFICIENCY = 0.8
#: descending cap ladder; 0.0 means uncapped (cap = SKU TDP)
CAPS = (0.0, 260.0, 230.0, 200.0)

KB = 1 << 10
#: tail workload: enough identical transfers for a stable p99
TAIL_TRANSFERS = [64 * KB] * 40
TAIL_OP = "vreadfrom"


def run_capped_dgemm(cap: float):
    """One working point: run the fixed job under ``cap`` watts.

    Returns ``(job_time_s, CardPowerStats)``.
    """
    m = Machine(cards=1, power_model="knc").boot()
    if cap:
        m.pepc().set_tdp(cap, Scope.one_card(0))
    out = {}

    def drive():
        job = yield from m.uos(0).run_compute(
            FLOPS, THREADS, efficiency=EFFICIENCY, name="a14-dgemm")
        out["t"] = job.finished_at - job.started_at

    m.sim.spawn(drive(), name="a14-drive")
    m.run()
    return out["t"], power_stats(m).cards[0]


def run_power_ablation():
    """The cap sweep: ``[(cap, time, avg_watts, gflops_per_watt,
    throttle_residency)]`` in CAPS order."""
    rows = []
    for cap in CAPS:
        t, card = run_capped_dgemm(cap)
        rows.append((cap, t, card.avg_watts, card.gflops_per_watt,
                     card.throttle_residency))
    return rows


def run_tail_scenario(throttled: bool):
    """Guest Fig 5 vreadfroms, card at P0 or pinned to the deepest
    P-state.  Returns the :func:`throttle_tail` dict."""
    m = Machine(cards=1, power_model="knc").boot()
    vm = m.create_vm("vm0")
    if throttled:
        deepest = len(m.devices[0].power.pstates) - 1
        m.pepc().set_pstate(deepest, Scope.one_card(0))
    rma_read_throughput(m, ClientContext.guest(vm), TAIL_TRANSFERS)
    return throttle_tail(vm, ops=[TAIL_OP])


# ----------------------------------------------------------------------
# pytest shape assertions
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def a14(golden):
    """The cap sweep and both tail runs, run once and pinned by the a14
    golden."""
    rows, base, slow = run_power_ablation(), run_tail_scenario(False), run_tail_scenario(True)
    golden("a14", {
        "figure": "a14",
        "unit": "mixed",
        "time_by_cap": [[cap, t] for cap, t, _, _, _ in rows],
        "avg_watts_by_cap": [[cap, w] for cap, _, w, _, _ in rows],
        "gflops_per_watt_by_cap": [[cap, e] for cap, _, _, e, _ in rows],
        "throttle_residency_by_cap": [[cap, r] for cap, _, _, _, r in rows],
        "guest_rma_p99": [["p0", base[TAIL_OP]["p99"]], ["deep", slow[TAIL_OP]["p99"]]],
        "throttled_ops": [["p0", base["_throttled_ops"]["count"]],
                          ["deep", slow["_throttled_ops"]["count"]]],
    })
    return rows, base, slow


def test_tdp_cap_sweep(a14):
    rows, _, _ = a14
    print_table(
        "A14: dgemm vs TDP cap (3120P, 224 threads)",
        ["cap(W)", "time(s)", "avg(W)", "GF/W", "thr%"],
        [[f"{cap:.0f}" if cap else "none", f"{t:.4f}", f"{w:.1f}",
          f"{e:.4f}", f"{r:.0%}"] for cap, t, w, e, r in rows],
    )
    times = [t for _, t, _, _, _ in rows]
    watts = [w for _, _, w, _, _ in rows]
    eff = [e for _, _, _, e, _ in rows]
    resid = [r for _, _, _, _, r in rows]
    # tighter cap -> deeper floor -> strictly slower, strictly fewer watts
    assert times == sorted(times), "time must rise as the cap tightens"
    assert watts == sorted(watts, reverse=True), \
        "average watts must fall as the cap tightens"
    # race-to-idle: the static floor burns for the stretched runtime,
    # so efficiency falls with the cap despite the V^2 dynamic saving
    assert eff == sorted(eff, reverse=True), \
        "GFLOPS/W must fall as the cap tightens (static floor dominates)"
    # uncapped never throttles; every real cap pins the floor while busy
    assert resid[0] == 0.0
    assert all(r > 0.9 for r in resid[1:]), \
        f"capped runs must spend the busy window throttled: {resid}"
    # the working point respects the cap (average includes idle boot
    # time, so it sits strictly below)
    for (cap, _, w, _, _) in rows[1:]:
        assert w <= cap, f"avg {w:.1f} W over the {cap:.0f} W cap"


def test_guest_tail_under_throttle(a14):
    _, base, slow = a14
    print_table(
        "A14: guest vreadfrom tail, P0 vs deepest P-state",
        ["run", "count", "p50(s)", "p99(s)", "throttled ops"],
        [["P0", str(base[TAIL_OP]["count"]), f"{base[TAIL_OP]['p50']:.6f}",
          f"{base[TAIL_OP]['p99']:.6f}",
          str(base["_throttled_ops"]["count"])],
         ["deep", str(slow[TAIL_OP]["count"]), f"{slow[TAIL_OP]['p50']:.6f}",
          f"{slow[TAIL_OP]['p99']:.6f}",
          str(slow["_throttled_ops"]["count"])]],
    )
    assert base[TAIL_OP]["count"] == len(TAIL_TRANSFERS)
    assert slow[TAIL_OP]["count"] == len(TAIL_TRANSFERS)
    # at P0 nothing is surcharged; pinned deep, every dispatch is
    assert base["_throttled_ops"]["count"] == 0
    assert slow["_throttled_ops"]["count"] >= len(TAIL_TRANSFERS)
    # and the surcharge shows up where the operator looks: the p99
    assert slow[TAIL_OP]["p99"] > base[TAIL_OP]["p99"]
    assert slow[TAIL_OP]["p50"] > base[TAIL_OP]["p50"]
