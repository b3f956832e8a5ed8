"""Power/thermal model for the Knights Corner card (opt-in).

The real Phi's performance envelope is power-bound: Fang et al.'s KNC
study ties achieved DGEMM and bandwidth directly to frequency and power
limits, and operational reports flag power efficiency as the card's
defining constraint.  This module gives the simulated card that
envelope:

* **P-states** — a frequency/voltage ladder derived from each
  :class:`~repro.phi.specs.PhiSKU` (100 MHz steps from the SKU clock
  down to a 600 MHz floor, voltage scaling linearly with frequency).
  Each core carries a *requested* state; the governor may impose a
  lower *floor* on all of them.
* **C-states** — idle cores (no resident threads, per the scheduler's
  round-robin placement) drop into C6 when C-states are enabled,
  otherwise they burn C0-idle power at their effective clock.
* **Uncore** — the ring/GDDR domain has its own multiplier; lowering
  it saves uncore watts and slows the SCIF/RMA datapath.
* **Thermal** — an exponential (RC) model: die temperature relaxes
  toward ``ambient + P * R`` with time constant ``tau``, integrated
  exactly over every piecewise-constant power segment.
* **Throttle loop** — a RAPL-style TDP cap (pick the fastest P-state
  floor whose card power fits under the cap) plus a thermal trip point
  with hysteresis (trip forces the lowest P-state until the die cools
  ``trip - hysteresis``).

Everything is closed-form and lazy: :meth:`PhiPowerModel.advance`
integrates energy/residency/temperature up to ``sim.now`` using the
state held since the previous advance, so the model is exact no matter
how sparsely it is polled.  A governor tick (``sim.call_at`` chain)
bounds staleness while compute jobs run — it re-arms only while the
scheduler is busy, so an idle simulation still drains its event queue
and ``sim.run()`` terminates.

Card power and the clock scale are sums over every core, and one
governor tick asks for card power up to seven times.  Both are
memoized per instance: :meth:`PhiPowerModel.power_watts` on (floor,
active user cores) and :meth:`PhiPowerModel.multiplier` on the floor.
Every mutator of what the sums read (per-core requests, uncore
multiplier, C-state enablement, the scheduler binding) clears both, so
a tick walks the cores only the first time it meets a state, and a hit
returns the very float the walk produced.

The model feeds performance two ways:

* :meth:`multiplier` scales the uOS scheduler's processor-sharing
  rates (DGEMM Figs 6-8 become power-dependent);
* :meth:`cost_multiplier` scales the vPHI registry's declarative
  fixed-cost hooks (guest op latency becomes power-dependent), using
  the uOS service core's effective clock — that is where the card-side
  driver runs — divided by the uncore multiplier for the datapath.

Both are >= 1 slowdowns (never a speedup), which is the monotonicity
property the Hypothesis suite pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..sim import SimError, Simulator
from .specs import PhiSKU

__all__ = [
    "CSTATES",
    "PState",
    "PowerConfig",
    "PhiPowerModel",
    "pstate_table",
]

#: P-state ladder parameters: 100 MHz steps down to a 600 MHz floor.
PSTATE_STEP_HZ = 100e6
PSTATE_FLOOR_HZ = 600e6

#: Core voltage range across the ladder (P0 .. deepest).
V_MAX = 1.05
V_MIN = 0.85

#: C-state catalog: residual power as a fraction of the core's active
#: power budget.  C0_IDLE is an un-gated idle core (clock running, no
#: issue) and still scales with the effective V/f point; C6 is power
#: gated and burns a flat trickle.
CSTATES = {"C0": 1.0, "C0_IDLE": 0.30, "C6": 0.02}


@dataclass(frozen=True)
class PState:
    """One frequency/voltage operating point."""

    index: int
    freq_hz: float
    voltage: float

    @property
    def freq_khz(self) -> int:
        return int(self.freq_hz / 1e3)


def pstate_table(sku: PhiSKU) -> tuple[PState, ...]:
    """Derive the P-state ladder for one SKU (P0 = the SKU clock)."""
    freqs = []
    f = float(sku.clock_hz)
    while f >= PSTATE_FLOOR_HZ - 1.0:
        freqs.append(f)
        f -= PSTATE_STEP_HZ
    if len(freqs) < 2:  # pathological SKU clock near the floor
        freqs.append(max(freqs[0] / 2, PSTATE_FLOOR_HZ))
    f0, fmin = freqs[0], freqs[-1]
    span = (f0 - fmin) or 1.0
    return tuple(
        PState(i, f, V_MIN + (V_MAX - V_MIN) * (f - fmin) / span)
        for i, f in enumerate(freqs)
    )


@dataclass
class PowerConfig:
    """Knobs for the card power model (defaults match a tuned KNC).

    ``tdp_watts=None`` means "cap at the SKU's TDP": the power split is
    normalized so a fully loaded card at P0 dissipates exactly the SKU
    TDP, so the default cap never throttles — throttling is something a
    deployment opts into by capping below TDP (or by a thermal trip).
    """

    tdp_watts: Optional[float] = None
    ambient_c: float = 40.0
    trip_c: float = 95.0
    trip_hysteresis_c: float = 8.0
    #: thermal RC time constant (die + heatsink), seconds.
    thermal_tau_s: float = 2.0
    #: degC of steady-state rise per dissipated watt.
    thermal_resistance_c_per_w: float = 0.18
    #: governor tick while compute jobs are resident.
    governor_interval_s: float = 250e-6
    cstates_enabled: bool = True
    #: share of SKU TDP burned by the always-on base (fans, VRs, GDDR
    #: refresh) and by the uncore (ring + memory controllers); cores
    #: split the remainder evenly.
    idle_fraction: float = 0.25
    uncore_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.tdp_watts is not None and self.tdp_watts <= 0:
            raise SimError(f"tdp_watts must be > 0, got {self.tdp_watts}")
        if self.trip_hysteresis_c <= 0:
            raise SimError("trip_hysteresis_c must be > 0")
        if self.thermal_tau_s <= 0:
            raise SimError("thermal_tau_s must be > 0")
        if self.governor_interval_s <= 0:
            raise SimError("governor_interval_s must be > 0")
        if not 0.0 < self.idle_fraction + self.uncore_fraction < 1.0:
            raise SimError("idle_fraction + uncore_fraction must be in (0, 1)")


class PhiPowerModel:
    """Per-card power/thermal state machine with a closed throttle loop.

    Lifecycle: constructed with the device, attached to the uOS
    scheduler at boot (:meth:`attach_scheduler`), detached + restored
    to boot defaults on card reset (:meth:`reset_state`).  Accounting
    integrals (energy, residency, trips) are cumulative across resets —
    they describe the card's lifetime, not one boot.
    """

    #: bounds accepted by :meth:`set_uncore` (full speed .. deep save).
    UNCORE_MIN = 0.4
    UNCORE_MAX = 1.0

    def __init__(
        self,
        sim: Simulator,
        sku: PhiSKU,
        config: Optional[PowerConfig] = None,
        name: str = "mic0",
    ):
        self.sim = sim
        self.sku = sku
        self.config = config or PowerConfig()
        self.name = name
        self.pstates = pstate_table(sku)
        cfg = self.config
        #: the boot-default cap :meth:`reset_state` restores.
        self.default_cap = float(cfg.tdp_watts if cfg.tdp_watts is not None
                                 else sku.tdp_watts)
        self.tdp_cap = self.default_cap
        #: per-core requested P-state index (pepc-settable).
        self.requested = [0] * sku.cores
        #: governor-imposed TDP floor (index; higher = slower).
        self.throttle_idx = 0
        self.thermal_throttled = False
        self.temp_c = cfg.ambient_c
        self.uncore_mult = 1.0
        self.cstates_enabled = cfg.cstates_enabled
        # power split (normalized to the SKU TDP at P0 full load)
        self.p_idle = cfg.idle_fraction * sku.tdp_watts
        self.p_uncore = cfg.uncore_fraction * sku.tdp_watts
        self.p_core = ((1.0 - cfg.idle_fraction - cfg.uncore_fraction)
                       * sku.tdp_watts / sku.cores)
        # lifetime accounting
        self.energy_j = 0.0
        self.throttled_time = 0.0
        self.pstate_residency = [0.0] * len(self.pstates)
        self.cstate_core_seconds = {c: 0.0 for c in CSTATES}
        self.max_temp_c = cfg.ambient_c
        self.thermal_trips = 0
        self.governor_ticks = 0
        self._scheduler = None
        self._last = sim.now
        self._armed = False
        self._gen = 0  # invalidates stale governor ticks
        #: memoized core walks: (floor, active user cores) -> watts and
        #: floor -> clock scale; :meth:`_forget` empties both.
        self._watts: dict[tuple[int, int], float] = {}
        self._scales: dict[int, float] = {}

    # -- wiring --------------------------------------------------------
    def attach_scheduler(self, scheduler) -> None:
        """Bind the booted uOS scheduler (demand source + rate sink)."""
        self._scheduler = scheduler
        scheduler.power = self
        self._forget()
        self.refresh()

    def detach_scheduler(self) -> None:
        if self._scheduler is not None:
            if self._scheduler.power is self:
                self._scheduler.power = None
            self._scheduler = None
            self._forget()
        self._gen += 1  # kill any armed governor tick
        self._armed = False

    def reset_state(self) -> None:
        """Restore power/clock state to boot defaults (card reset).

        The pre-reset segment is accounted first, then requested
        P-states, the throttle floor, the thermal accumulator, the TDP
        cap, uncore and C-state enablement all return to defaults — a
        post-reset card must not inherit the pre-reset throttle level.
        """
        self.advance()
        self.detach_scheduler()
        self.requested = [0] * self.sku.cores
        self.throttle_idx = 0
        self.thermal_throttled = False
        self.temp_c = self.config.ambient_c
        self.tdp_cap = self.default_cap
        self.uncore_mult = 1.0
        self.cstates_enabled = self.config.cstates_enabled
        self._forget()

    def _forget(self) -> None:
        """Drop the memoized watts and clock scales.  Called by every
        mutator of what the core walks read: per-core requests, uncore
        multiplier, C-state enablement and the scheduler binding."""
        self._watts.clear()
        self._scales.clear()

    # -- demand / effective state --------------------------------------
    def _demand(self) -> int:
        s = self._scheduler
        return s.total_demand if s is not None else 0

    def _floor(self) -> int:
        """The governor floor every core's request is clamped to."""
        if self.thermal_throttled:
            return len(self.pstates) - 1
        return self.throttle_idx

    @property
    def is_throttled(self) -> bool:
        """True when the floor forces some core below its request."""
        return self._floor() > min(self.requested)

    def effective_index(self, core: int) -> int:
        return max(self.requested[core], self._floor())

    def card_clock_hz(self) -> float:
        """The clock of the fastest effective core — the single number
        mpss exports as ``cores_frequency`` (live, throttle-aware)."""
        self.refresh()
        return self.pstates[max(min(self.requested), self._floor())].freq_hz

    def multiplier(self) -> float:
        """Mean effective-frequency fraction over the usable cores — the
        scheduler's processor-sharing rates scale by this (<= 1)."""
        floor = self._floor()
        scale = self._scales.get(floor)
        if scale is None:
            f0 = self.pstates[0].freq_hz
            usable = self.sku.usable_cores
            total = sum(self.pstates[max(r, floor)].freq_hz
                        for r in self.requested[:usable])
            scale = self._scales[floor] = total / (usable * f0)
        return scale

    def cost_multiplier(self) -> float:
        """Slowdown applied to the registry's fixed cost hooks (>= 1).

        The card-side driver runs on the uOS service core (the reserved
        last core), so its effective clock sets the control-path cost;
        the uncore multiplier divides through for the ring/DMA datapath.
        """
        self.refresh()
        eff = self.pstates[max(self.requested[-1], self._floor())]
        return (self.pstates[0].freq_hz / eff.freq_hz) / self.uncore_mult

    # -- power ---------------------------------------------------------
    def power_watts(self, floor: Optional[int] = None,
                    demand: Optional[int] = None) -> float:
        """Instantaneous card power at the current (or supplied) state."""
        if floor is None:
            floor = self._floor()
        if demand is None:
            demand = self._demand()
        sku = self.sku
        active_user = min(demand, sku.usable_cores)
        key = (floor, active_user)
        watts = self._watts.get(key)
        if watts is not None:
            return watts
        f0 = self.pstates[0].freq_hz
        v0 = self.pstates[0].voltage
        watts = self.p_idle + self.p_uncore * self.uncore_mult
        uos_core = sku.cores - 1
        for core, req in enumerate(self.requested):
            st = self.pstates[max(req, floor)]
            scale = (st.freq_hz / f0) * (st.voltage / v0) ** 2
            if core == uos_core:
                active = self._scheduler is not None
            else:
                # round-robin placement fills cores from the bottom
                active = core < active_user
            if active:
                watts += self.p_core * scale
            elif self.cstates_enabled:
                watts += self.p_core * CSTATES["C6"]
            else:
                watts += self.p_core * CSTATES["C0_IDLE"] * scale
        self._watts[key] = watts
        return watts

    # -- integration ---------------------------------------------------
    def advance(self) -> None:
        """Integrate energy/residency/temperature up to ``sim.now``
        using the state held since the last advance (exact closed form
        for piecewise-constant power)."""
        now = self.sim.now
        dt = now - self._last
        if dt <= 0:
            return
        demand = self._demand()
        watts = self.power_watts(demand=demand)
        self.energy_j += watts * dt
        self.pstate_residency[self._floor()] += dt
        if self.is_throttled:
            self.throttled_time += dt
        active_user = min(demand, self.sku.usable_cores)
        idle_user = self.sku.usable_cores - active_user
        busy = active_user + (1 if self._scheduler is not None else 0)
        self.cstate_core_seconds["C0"] += busy * dt
        idle_state = "C6" if self.cstates_enabled else "C0_IDLE"
        self.cstate_core_seconds[idle_state] += idle_user * dt
        cfg = self.config
        t_inf = cfg.ambient_c + watts * cfg.thermal_resistance_c_per_w
        self.temp_c = t_inf + (self.temp_c - t_inf) * math.exp(
            -dt / cfg.thermal_tau_s)
        if self.temp_c > self.max_temp_c:
            self.max_temp_c = self.temp_c
        self._last = now

    # -- throttle policy -----------------------------------------------
    def _policy(self) -> None:
        """Re-evaluate the closed loop: thermal trip first, then the
        RAPL-style cap (fastest floor whose card power fits)."""
        cfg = self.config
        if not self.thermal_throttled and self.temp_c >= cfg.trip_c:
            self.thermal_throttled = True
            self.thermal_trips += 1
        elif (self.thermal_throttled
              and self.temp_c <= cfg.trip_c - cfg.trip_hysteresis_c):
            self.thermal_throttled = False
        demand = self._demand()
        deepest = len(self.pstates) - 1
        floor = deepest
        for idx in range(len(self.pstates)):
            if self.power_watts(idx, demand) <= self.tdp_cap + 1e-9:
                floor = idx
                break
        self.throttle_idx = floor
        self._push_scale()

    def _push_scale(self) -> None:
        if self._scheduler is not None:
            self._scheduler.set_clock_scale(self.multiplier())

    def refresh(self) -> None:
        """Advance the integrals, then re-run the throttle policy.

        Safe to call at any cadence: the policy is a pure function of
        (temperature, demand, cap), not an incremental stepper, so
        extra refreshes never change the trajectory.
        """
        self.advance()
        self._policy()

    # -- governor ------------------------------------------------------
    def on_scheduler_change(self) -> None:
        """Demand changed (job submitted/retired): re-evaluate and make
        sure the governor is ticking while the card is busy."""
        self.refresh()
        if not self._armed and self._busy():
            self._arm()

    def _busy(self) -> bool:
        s = self._scheduler
        return s is not None and s.active_jobs > 0

    def _arm(self) -> None:
        self._gen += 1
        gen = self._gen
        self._armed = True
        self.sim.call_at(self.sim.now + self.config.governor_interval_s,
                         lambda: self._tick(gen))

    def _tick(self, gen: int) -> None:
        if gen != self._gen:
            return
        self.governor_ticks += 1
        self.refresh()
        if self._busy():
            self._arm()
        else:
            self._armed = False

    # -- pepc-facing setters -------------------------------------------
    def set_pstate(self, index: int, cores: Optional[list[int]] = None) -> None:
        """Request a P-state for some cores (default: all).

        Every core is checked before any request changes, so a bad core
        leaves the whole card as it was."""
        if not 0 <= index < len(self.pstates):
            raise SimError(
                f"{self.name}: P-state {index} out of range "
                f"0..{len(self.pstates) - 1}")
        cores = range(self.sku.cores) if cores is None else list(cores)
        for core in cores:
            if not 0 <= core < self.sku.cores:
                raise SimError(f"{self.name}: no core {core}")
        self.advance()
        for core in cores:
            self.requested[core] = index
        self._forget()
        self._policy()

    def set_tdp_cap(self, watts: float) -> None:
        if watts <= 0:
            raise SimError(f"{self.name}: TDP cap must be > 0, got {watts}")
        self.advance()
        self.tdp_cap = float(watts)
        self._policy()

    def set_cstates(self, enabled: bool) -> None:
        self.advance()
        self.cstates_enabled = bool(enabled)
        self._forget()
        self._policy()

    def set_uncore(self, mult: float) -> None:
        if not self.UNCORE_MIN <= mult <= self.UNCORE_MAX:
            raise SimError(
                f"{self.name}: uncore multiplier {mult} outside "
                f"[{self.UNCORE_MIN}, {self.UNCORE_MAX}]")
        self.advance()
        self.uncore_mult = float(mult)
        self._forget()
        self._policy()

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict:
        """Snapshot for ``analysis.power`` (advances to ``sim.now``)."""
        self.refresh()
        return {
            "card": self.name,
            "energy_j": self.energy_j,
            "throttled_time_s": self.throttled_time,
            "pstate_residency_s": list(self.pstate_residency),
            "cstate_core_seconds": dict(self.cstate_core_seconds),
            "temp_c": self.temp_c,
            "max_temp_c": self.max_temp_c,
            "thermal_trips": self.thermal_trips,
            "governor_ticks": self.governor_ticks,
            "tdp_cap_w": self.tdp_cap,
            "power_w": self.power_watts(),
            "clock_hz": self.pstates[max(min(self.requested),
                                         self._floor())].freq_hz,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PhiPowerModel {self.name} floor=P{self._floor()} "
                f"cap={self.tdp_cap:.0f}W temp={self.temp_c:.1f}C>")
