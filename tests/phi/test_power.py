"""Power/thermal model: P/C-states, throttle convergence, thermal trips."""

import pytest

from repro import Machine
from repro.phi import PowerConfig, Scope, XeonPhiDevice, pstate_table, sku
from repro.phi.power import CSTATES, PSTATE_FLOOR_HZ, V_MAX, V_MIN
from repro.sim import SimError, Simulator, run_with

CARD = sku("3120P")
TDP = CARD.tdp_watts

FLOPS = 2e11
THREADS = 224


def powered_machine(**kw):
    return Machine(cards=1, power_model="knc", **kw).boot()


def run_dgemm(m, flops=FLOPS, threads=THREADS):
    out = {}

    def drive():
        job = yield from m.uos(0).run_compute(flops, threads,
                                              efficiency=0.8, name="job")
        out["t"] = job.finished_at - job.started_at

    m.sim.spawn(drive(), name="drive")
    m.run()
    return out["t"]


def booted_device(config=None):
    sim = Simulator()
    dev = XeonPhiDevice(sim, "3120P", power_model="knc", power_config=config)
    run_with(sim, dev.boot())
    return sim, dev


class TestPStateTable:
    def test_ladder_endpoints_and_step(self):
        table = pstate_table(CARD)
        assert table[0].freq_hz == CARD.clock_hz
        assert table[-1].freq_hz == PSTATE_FLOOR_HZ
        assert table[0].voltage == V_MAX
        assert table[-1].voltage == V_MIN
        # 1100 -> 600 MHz in 100 MHz steps
        assert len(table) == 6
        steps = [a.freq_hz - b.freq_hz for a, b in zip(table, table[1:])]
        assert all(s == pytest.approx(100e6) for s in steps)

    def test_voltage_monotone_with_frequency(self):
        table = pstate_table(CARD)
        volts = [p.voltage for p in table]
        assert volts == sorted(volts, reverse=True)

    def test_freq_khz_is_integral(self):
        assert pstate_table(CARD)[0].freq_khz == 1_100_000


class TestConfigValidation:
    def test_bad_tdp_rejected(self):
        with pytest.raises(SimError, match="tdp_watts"):
            PowerConfig(tdp_watts=-5.0)

    def test_bad_fractions_rejected(self):
        with pytest.raises(SimError, match="fraction"):
            PowerConfig(idle_fraction=0.7, uncore_fraction=0.4)

    def test_bad_tau_rejected(self):
        with pytest.raises(SimError, match="thermal_tau_s"):
            PowerConfig(thermal_tau_s=0.0)

    def test_unknown_power_model_rejected(self):
        with pytest.raises(SimError, match="power model"):
            XeonPhiDevice(Simulator(), "3120P", power_model="skylake")


class TestPowerAccounting:
    def test_full_load_at_p0_is_exactly_tdp(self):
        """The power split is normalized so a fully loaded card at P0
        dissipates the SKU TDP — the default cap never throttles."""
        _, dev = booted_device()
        assert dev.power.power_watts(demand=THREADS) == pytest.approx(TDP)

    def test_idle_card_burns_the_static_floor(self):
        _, dev = booted_device()
        idle = dev.power.power_watts(demand=0)
        # base + uncore + one active uOS core + 56 gated cores
        assert idle < 0.5 * TDP
        assert idle > (dev.power.p_idle + dev.power.p_uncore)

    def test_cstates_off_burns_more_when_idle(self):
        _, dev = booted_device()
        gated = dev.power.power_watts(demand=0)
        dev.power.set_cstates(False)
        ungated = dev.power.power_watts(demand=0)
        assert ungated > gated
        # the C0-idle residual scales with V/f; C6 is a flat trickle
        assert ungated - gated == pytest.approx(
            CARD.usable_cores * dev.power.p_core
            * (CSTATES["C0_IDLE"] - CSTATES["C6"]), rel=1e-6)

    def test_cstate_residency_accumulates(self):
        m = powered_machine()
        run_dgemm(m)
        secs = m.devices[0].power.stats()["cstate_core_seconds"]
        assert secs["C0"] > 0          # busy cores during the job
        assert secs["C6"] > 0          # gated cores while idle
        assert secs["C0_IDLE"] == 0.0  # C-states were never disabled

    def test_deeper_pstate_draws_less(self):
        _, dev = booted_device()
        ladder = [dev.power.power_watts(floor=i, demand=THREADS)
                  for i in range(len(dev.power.pstates))]
        assert ladder == sorted(ladder, reverse=True)
        assert ladder[0] == pytest.approx(TDP)


class TestPStateControl:
    def test_per_core_request(self):
        _, dev = booted_device()
        dev.power.set_pstate(3, cores=[0, 1])
        assert dev.power.requested[0] == 3
        assert dev.power.requested[2] == 0
        assert dev.power.effective_index(0) == 3

    def test_out_of_range_pstate_rejected(self):
        _, dev = booted_device()
        with pytest.raises(SimError, match="out of range"):
            dev.power.set_pstate(99)

    def test_unknown_core_rejected(self):
        _, dev = booted_device()
        with pytest.raises(SimError, match="no core"):
            dev.power.set_pstate(1, cores=[CARD.cores])

    def test_bad_core_leaves_every_request_unchanged(self):
        """Regression: a good core listed before a bad one kept its new
        request, so ``multiplier()`` moved while the scheduler's clock
        scale stayed put until the next refresh."""
        m = powered_machine()
        power = m.devices[0].power
        scheduler = m.uos(0).scheduler
        floor, scale = power.throttle_idx, scheduler.clock_scale
        with pytest.raises(SimError, match=f"no core {CARD.cores}"):
            power.set_pstate(3, cores=[0, CARD.cores])
        assert power.requested == [0] * CARD.cores
        assert power.throttle_idx == floor
        assert scheduler.clock_scale == scale
        assert power.multiplier() == scale

    def test_uncore_bounds(self):
        _, dev = booted_device()
        with pytest.raises(SimError, match="uncore"):
            dev.power.set_uncore(0.1)

    def test_uncore_slows_the_cost_path(self):
        _, dev = booted_device()
        assert dev.power.cost_multiplier() == pytest.approx(1.0)
        dev.power.set_uncore(0.5)
        assert dev.power.cost_multiplier() == pytest.approx(2.0)

    def test_deep_request_slows_compute(self):
        m0 = powered_machine()
        t0 = run_dgemm(m0)
        m5 = powered_machine()
        m5.pepc().set_pstate(5, Scope.one_card(0))
        t5 = run_dgemm(m5)
        f = m5.devices[0].power.pstates
        assert t5 / t0 == pytest.approx(f[0].freq_hz / f[5].freq_hz, rel=1e-6)


class TestThrottleLoop:
    def test_tdp_cap_converges_under_the_cap(self):
        m = powered_machine()
        m.pepc().set_tdp(210.0, Scope.one_card(0))
        probe = {}

        def probe_proc():
            yield m.sim.timeout(0.3)
            power = m.devices[0].power
            power.refresh()
            probe["watts"] = power.power_watts()
            probe["khz"] = int(m.devices[0].sysfs_attrs()["cores_frequency"])

        m.sim.spawn(probe_proc(), name="probe")
        t_cap = run_dgemm(m)
        power = m.devices[0].power
        assert probe["watts"] <= 210.0
        # live sysfs frequency reflected the throttle mid-run...
        assert probe["khz"] < power.pstates[0].freq_khz
        # ...and recovered once the job retired and demand dropped
        assert int(m.devices[0].sysfs_attrs()["cores_frequency"]) \
            == power.pstates[0].freq_khz
        assert power.throttled_time > 0
        assert power.governor_ticks > 0
        assert t_cap > FLOPS / 1e12  # visibly slower than uncapped ballpark

    def test_cap_below_deepest_floor_pins_the_deepest(self):
        """An unsatisfiable cap pins P-deepest rather than oscillating."""
        _, dev = booted_device(PowerConfig(tdp_watts=50.0))
        deepest = len(dev.power.pstates) - 1
        dev.power.refresh()
        assert dev.power.throttle_idx == deepest

    def test_default_cap_never_throttles(self):
        m = powered_machine()
        run_dgemm(m)
        assert m.devices[0].power.throttled_time == 0.0


#: fast thermal plant: tiny tau + low trip make the trip/release cycle
#: observable inside a sub-second compute job.
HOT = PowerConfig(thermal_tau_s=0.005, trip_c=80.0, trip_hysteresis_c=5.0,
                  thermal_resistance_c_per_w=0.15)


class TestThermal:
    def test_trip_and_hysteresis_recovery(self):
        m = powered_machine(power_config=HOT)
        run_dgemm(m)
        power = m.devices[0].power
        assert power.thermal_trips >= 1
        assert power.max_temp_c >= HOT.trip_c
        # tripping forces the deepest P-state for a while
        assert power.pstate_residency[-1] > 0
        # the job is gone, the card cooled through the hysteresis band
        power.refresh()
        assert not power.thermal_throttled
        assert power.temp_c < HOT.trip_c

    def test_temperature_relaxes_toward_ambient(self):
        sim, dev = booted_device()
        run_with(sim, dev.reset())
        assert dev.power.temp_c == dev.power.config.ambient_c


class TestResetRestoresDefaults:
    def test_reset_restores_power_and_clock_state(self):
        sim, dev = booted_device()
        power = dev.power
        power.set_tdp_cap(150.0)
        power.set_pstate(4)
        power.set_uncore(0.6)
        power.set_cstates(False)
        power.refresh()
        assert power.tdp_cap == 150.0
        run_with(sim, dev.reset())
        assert power.tdp_cap == power.default_cap == TDP
        assert power.requested == [0] * CARD.cores
        assert power.throttle_idx == 0
        assert not power.thermal_throttled
        assert power.uncore_mult == 1.0
        assert power.cstates_enabled
        assert dev.sysfs_attrs()["cores_frequency"] == "1100000"

    def test_accounting_survives_reset(self):
        """Energy/residency integrals describe the card's lifetime."""
        m = powered_machine()
        m.pepc().set_tdp(210.0, Scope.one_card(0))
        run_dgemm(m)
        dev = m.devices[0]
        before = dev.power.energy_j
        throttled = dev.power.throttled_time
        run_with(m.sim, m.reboot_card(0))
        assert dev.power.energy_j >= before
        assert dev.power.throttled_time == throttled
        assert dev.power.tdp_cap == TDP


class TestSysfs:
    def test_frequency_exported_in_khz(self):
        """Regression: the attribute was exported in Hz (and static)."""
        sim = Simulator()
        dev = XeonPhiDevice(sim, "3120P")
        assert dev.sysfs_attrs()["cores_frequency"] == "1100000"

    def test_frequency_live_without_power_model(self):
        sim = Simulator()
        dev = XeonPhiDevice(sim, "3120P")
        assert dev.current_clock_hz == CARD.clock_hz
