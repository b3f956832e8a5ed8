"""pepc control plane: scope resolution, property set/get, the closed
throttle loop driven end to end through it, CLI."""

import pytest

from repro import Machine
from repro.cli import main
from repro.phi import PowerConfig, PowerControl, Scope
from repro.sim import SimError

#: the conformance job: a DGEMM-sized compute burst across every thread
FLOPS, THREADS = 4e11, 224


def powered(cards=2):
    return Machine(cards=cards, power_model="knc").boot()


def dgemm_run(machine, probe_at=None):
    """Run the job on card 0; returns its duration and, with ``probe_at``,
    the card's watts and sysfs kHz sampled at that simulated time."""
    uos = machine.uos(0)
    out, probe = {}, {}

    def drive():
        job = yield from uos.run_compute(FLOPS, THREADS, efficiency=0.8,
                                         name="dgemm")
        out["t"] = job.finished_at - job.started_at

    def sample():
        yield machine.sim.timeout(probe_at)
        power = machine.devices[0].power
        power.refresh()
        probe["watts"] = power.power_watts()
        probe["khz"] = int(machine.devices[0].sysfs_attrs()["cores_frequency"])

    if probe_at is not None:
        machine.sim.spawn(sample(), name="pepc-probe")
    machine.sim.spawn(drive(), name="pepc-drive")
    machine.run()
    return out["t"], probe


@pytest.fixture(scope="module")
def baseline():
    """One job at P0 under the default (SKU TDP) cap."""
    m = powered(cards=1)
    khz_at_boot = int(m.devices[0].sysfs_attrs()["cores_frequency"])
    t, _ = dgemm_run(m)
    return m, khz_at_boot, t


class TestScopes:
    def test_global_addresses_every_card(self):
        m = powered(cards=2)
        rows = m.pepc().info()
        assert [r["card"] for r in rows] == ["mic0", "mic1"]
        assert all(r["state"] == "online" for r in rows)

    def test_card_scope_addresses_one_card(self):
        m = powered(cards=2)
        ctl = m.pepc()
        ctl.set_tdp(200.0, Scope.one_card(1))
        rows = ctl.info()
        assert rows[0]["tdp_cap_w"] == m.devices[0].sku.tdp_watts
        assert rows[1]["tdp_cap_w"] == 200.0

    def test_core_scope_addresses_a_subset(self):
        m = powered(cards=1)
        ctl = m.pepc()
        ctl.set_pstate(3, Scope.one_core([0, 1], card=0))
        row = ctl.info(Scope.one_card(0))[0]
        assert row["requested_pstate"][0] == 3
        assert row["requested_pstate"][1] == 3
        assert row["requested_pstate"][2] == 0
        # effective clock follows the request when nothing throttles
        assert row["effective_khz"][0] == 800_000
        assert row["effective_khz"][2] == 1_100_000

    def test_scope_str_forms(self):
        assert str(Scope.everything()) == "global"
        assert str(Scope.one_card(0)) == "c0"
        assert str(Scope.one_card(1, host=0)) == "h0c1"
        assert str(Scope.one_core([0, 3], card=2)) == "c2:cores[0, 3]"
        assert str(Scope.one_vm("vm0")) == "vm:vm0"

    def test_unmatched_scope_is_an_error(self):
        m = powered(cards=1)
        with pytest.raises(SimError, match="matches no cards"):
            m.pepc().info(Scope.one_card(7))

    def test_unknown_level_is_an_error(self):
        m = powered(cards=1)
        with pytest.raises(SimError, match="scope level"):
            m.pepc().info(Scope("package"))


class TestVmScope:
    def test_vm_scope_resolves_to_its_card(self):
        m = powered(cards=2)
        vm = m.create_vm("vm0", card=1)
        ctl = m.pepc(vms={"vm0": vm})
        ctl.set_pstate(2, Scope.one_vm("vm0"))
        rows = ctl.info()
        assert set(rows[0]["requested_pstate"].values()) == {0}
        assert set(rows[1]["requested_pstate"].values()) == {2}

    def test_unknown_vm_is_an_error(self):
        m = powered(cards=1)
        with pytest.raises(SimError, match="unknown VM"):
            m.pepc().set_pstate(1, Scope.one_vm("ghost"))


class TestThrottleLoop:
    def test_default_cap_never_throttles_and_sysfs_is_khz(self, baseline):
        m, khz, _ = baseline
        dev = m.devices[0]
        assert khz == int(dev.sku.clock_hz / 1e3)
        assert dev.power.throttled_time == 0

    def test_deeper_pstate_is_slower(self, baseline):
        m0, _, t_base = baseline
        deepest = len(m0.devices[0].power.pstates) - 1
        times = [t_base]
        for pstate in (2, deepest):
            m = powered(cards=1)
            m.pepc().set_pstate(pstate, Scope.one_card(0))
            times.append(dgemm_run(m)[0])
        assert times[0] < times[1] < times[2]

    def test_tdp_cap_converges_under_the_cap(self, baseline):
        _, _, t_base = baseline
        m = powered(cards=1)
        m.pepc().set_tdp(210.0, Scope.one_card(0))
        t_cap, mid = dgemm_run(m, probe_at=0.3)
        assert m.devices[0].power.throttled_time > 0
        assert t_cap > t_base
        # the mid-run working point (floor in force) fits the cap, and the
        # live sysfs frequency shows the throttle while it holds
        assert mid["watts"] <= 210.0 + 1e-6
        assert mid["khz"] < int(m.devices[0].sku.clock_hz / 1e3)

    def test_thermal_trip_forces_the_deepest_pstate(self):
        hot = PowerConfig(thermal_tau_s=0.005, trip_c=80.0,
                          trip_hysteresis_c=5.0,
                          thermal_resistance_c_per_w=0.15)
        m = Machine(cards=1, power_model="knc", power_config=hot).boot()
        dgemm_run(m)
        power = m.devices[0].power
        assert power.thermal_trips >= 1
        assert power.pstate_residency[-1] > 0

    def test_reset_restores_boot_defaults(self):
        m = powered(cards=1)
        ctl = m.pepc()
        ctl.set_tdp(150.0)
        ctl.set_pstate(3)
        dgemm_run(m)

        def do_reset():
            yield from m.devices[0].reset(m.fabric)

        m.sim.spawn(do_reset(), name="pepc-reset")
        m.run()
        power = m.devices[0].power
        assert power.tdp_cap == power.default_cap
        assert not any(power.requested)
        assert power.throttle_idx == 0
        assert not power.thermal_throttled
        assert power.temp_c == power.config.ambient_c


class TestErrors:
    def test_unpowered_card_is_a_typed_error(self):
        m = Machine(cards=1).boot()
        with pytest.raises(SimError, match="power_model='knc'"):
            m.pepc().info()

    def test_no_machines_rejected(self):
        with pytest.raises(SimError, match="at least one machine"):
            PowerControl([])

    @pytest.mark.parametrize("core", [99, -1])
    def test_core_outside_the_card_is_a_typed_error(self, core):
        """Regression: core 99 raised a bare IndexError, and core -1
        read back the last core's row under the name -1."""
        m = powered(cards=1)
        with pytest.raises(SimError, match=f"no core {core}"):
            m.pepc().info(Scope.one_core([core], card=0))

    def test_bad_core_in_a_set_touches_no_card(self):
        m = powered(cards=1)
        with pytest.raises(SimError, match="no core 99"):
            m.pepc().set_pstate(3, Scope.one_core([0, 99], card=0))
        assert not any(m.devices[0].power.requested)


class TestCli:
    def test_pepc_card_scope_sets_and_renders(self, capsys):
        assert main(["pepc", "--card", "0", "--tdp", "200"]) == 0
        out = capsys.readouterr().out
        assert "scope: c0" in out
        assert "200" in out
        assert "mic0" in out

    def test_pepc_core_scope_renders_a_range(self, capsys):
        assert main(["pepc", "--core", "0-3", "--pstate", "5"]) == 0
        out = capsys.readouterr().out
        assert "cores[0, 1, 2, 3]" in out
        assert "P0-P5" in out

    def test_pepc_vm_scope(self, capsys):
        assert main(["pepc", "--vm", "--pstate", "2"]) == 0
        out = capsys.readouterr().out
        assert "scope: vm:vm0" in out
