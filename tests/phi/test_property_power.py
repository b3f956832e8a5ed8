"""Power-model properties: monotone slowdowns, cap safety, determinism.

Three invariants the rest of the stack leans on:

* **lower frequency is never faster** — a deeper requested P-state can
  only stretch a compute job, and the cost multiplier only grows with
  depth (the registry's fixed costs never get cheaper under throttle);
* **the ladder is power-monotone** — deeper floors draw fewer watts, so
  the governor's lowest-feasible-floor scan is well-defined;
* **seed-determinism** — the same cap and workload reproduce the exact
  job time and energy, which is what lets A14 commit golden floats.

A fourth pins the memoized core walks: after any sequence of pepc-style
mutations, ``power_watts`` and ``multiplier`` return exactly (``==``)
what the uncached per-core loop computes, so no mutator can leave a
stale watt or clock scale behind.
"""

import os

from hypothesis import given, settings, strategies as st

from repro import Machine
from repro.phi import PowerConfig, Scope, XeonPhiDevice, sku
from repro.phi.power import CSTATES
from repro.sim import Simulator, run_with

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "8"))

CARD = sku("3120P")
N_PSTATES = 6
#: small job keeps each Hypothesis example cheap (~50 ms simulated)
FLOPS = 2e10


def job_time(pstate=None, cap=None):
    m = Machine(cards=1, power_model="knc").boot()
    if pstate is not None:
        m.pepc().set_pstate(pstate, Scope.one_card(0))
    if cap is not None:
        m.pepc().set_tdp(cap, Scope.one_card(0))
    out = {}

    def drive():
        job = yield from m.uos(0).run_compute(FLOPS, 224, efficiency=0.8,
                                              name="prop")
        out["t"] = job.finished_at - job.started_at

    m.sim.spawn(drive(), name="prop-drive")
    m.run()
    return out["t"], m.devices[0].power


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=N_PSTATES - 1),
       st.integers(min_value=0, max_value=N_PSTATES - 1))
def test_deeper_pstate_never_faster(a, b):
    lo, hi = sorted((a, b))
    t_lo, _ = job_time(pstate=lo)
    t_hi, _ = job_time(pstate=hi)
    assert t_hi >= t_lo
    if hi > lo:
        assert t_hi > t_lo


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=N_PSTATES - 1),
       st.floats(min_value=0.4, max_value=1.0))
def test_cost_multiplier_is_a_slowdown(pstate, uncore):
    sim = Simulator()
    dev = XeonPhiDevice(sim, "3120P", power_model="knc")
    run_with(sim, dev.boot())
    dev.power.set_pstate(pstate)
    dev.power.set_uncore(uncore)
    mult = dev.power.cost_multiplier()
    assert mult >= 1.0 - 1e-12
    # deepening the request can only grow the multiplier
    if pstate + 1 < N_PSTATES:
        dev.power.set_pstate(pstate + 1)
        assert dev.power.cost_multiplier() >= mult - 1e-12


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(st.integers(min_value=0, max_value=N_PSTATES - 1),
       st.integers(min_value=0, max_value=300))
def test_power_ladder_is_monotone_in_floor(floor, demand):
    sim = Simulator()
    dev = XeonPhiDevice(sim, "3120P", power_model="knc")
    run_with(sim, dev.boot())
    power = dev.power
    watts = power.power_watts(floor=floor, demand=demand)
    assert 0 < watts <= CARD.tdp_watts + 1e-9
    if floor + 1 < N_PSTATES:
        assert power.power_watts(floor=floor + 1, demand=demand) <= watts


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(st.sampled_from([None, 280.0, 240.0, 200.0]))
def test_capped_run_is_seed_deterministic(cap):
    t1, p1 = job_time(cap=cap)
    t2, p2 = job_time(cap=cap)
    assert t1 == t2
    assert p1.energy_j == p2.energy_j
    assert p1.throttled_time == p2.throttled_time
    assert p1.pstate_residency == p2.pstate_residency


def test_thermal_trip_count_is_deterministic():
    hot = PowerConfig(thermal_tau_s=0.005, trip_c=80.0,
                      trip_hysteresis_c=5.0,
                      thermal_resistance_c_per_w=0.15)

    def run():
        m = Machine(cards=1, power_model="knc", power_config=hot).boot()

        def drive():
            yield from m.uos(0).run_compute(2e11, 224, efficiency=0.8,
                                            name="hot")

        m.sim.spawn(drive(), name="hot-drive")
        m.run()
        p = m.devices[0].power
        return p.thermal_trips, p.max_temp_c, p.energy_j

    assert run() == run()


def reference_watts(power, floor, demand):
    """Card power from the uncached per-core walk."""
    active_user = min(demand, power.sku.usable_cores)
    f0 = power.pstates[0].freq_hz
    v0 = power.pstates[0].voltage
    watts = power.p_idle + power.p_uncore * power.uncore_mult
    uos_core = power.sku.cores - 1
    for core, req in enumerate(power.requested):
        pstate = power.pstates[max(req, floor)]
        scale = (pstate.freq_hz / f0) * (pstate.voltage / v0) ** 2
        if core == uos_core:
            active = power._scheduler is not None
        else:
            active = core < active_user
        if active:
            watts += power.p_core * scale
        elif power.cstates_enabled:
            watts += power.p_core * CSTATES["C6"]
        else:
            watts += power.p_core * CSTATES["C0_IDLE"] * scale
    return watts


def reference_multiplier(power):
    """Clock scale from the uncached walk over the usable cores."""
    floor = power._floor()
    f0 = power.pstates[0].freq_hz
    usable = power.sku.usable_cores
    total = sum(power.pstates[max(r, floor)].freq_hz
                for r in power.requested[:usable])
    return total / (usable * f0)


#: demands on both sides of the usable-core clamp (56 on the 3120P)
DEMANDS = (0, 1, 28, 56, 60)

MUTATIONS = st.one_of(
    st.tuples(st.just("pstate"), st.integers(0, N_PSTATES - 1),
              st.lists(st.integers(0, CARD.cores - 1), min_size=1,
                       max_size=CARD.cores, unique=True)),
    st.tuples(st.just("uncore"), st.floats(min_value=0.4, max_value=1.0)),
    st.tuples(st.just("cstates"), st.booleans()),
    st.tuples(st.just("tdp"), st.floats(min_value=40.0, max_value=320.0)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("detach")),
)


def assert_memo_matches(power):
    for floor in range(N_PSTATES):
        for demand in DEMANDS:
            assert power.power_watts(floor=floor, demand=demand) \
                == reference_watts(power, floor, demand), (floor, demand)
    assert power.multiplier() == reference_multiplier(power)


@settings(max_examples=N_EXAMPLES, deadline=None)
@given(st.lists(MUTATIONS, max_size=12))
def test_memo_equals_the_uncached_walk(steps):
    sim = Simulator()
    dev = XeonPhiDevice(sim, "3120P", power_model="knc")
    run_with(sim, dev.boot())
    power, scheduler = dev.power, dev.uos.scheduler
    assert_memo_matches(power)
    for kind, *args in steps:
        if kind == "pstate":
            power.set_pstate(args[0], cores=args[1])
        elif kind == "uncore":
            power.set_uncore(args[0])
        elif kind == "cstates":
            power.set_cstates(args[0])
        elif kind == "tdp":
            power.set_tdp_cap(args[0])
        elif kind == "reset":
            power.reset_state()
            assert_memo_matches(power)  # detached, at boot defaults
            power.attach_scheduler(scheduler)
        else:
            power.detach_scheduler()
        assert_memo_matches(power)
