"""The uOS compute scheduler: thread placement + processor sharing.

§III: "Simultaneous multi-threaded execution requests from different VMs
can end up running in parallel on the Xeon Phi device spreaded across the
available cores of the card.  If there is an oversubscription considering
requested threads to physical cores ratio, then the resource multiplexing
is accomplished by the scheduler of the uOS which runs on a dedicated
Xeon Phi core."

This module models exactly that:

* **placement** — a kernel with T threads lands round-robin over the 56
  usable cores; Knights Corner cores are in-order and can only issue on a
  thread every other cycle, so per-core throughput depends on how many
  threads are resident (the occupancy curve — 1 thread/core cannot exceed
  ~55 % of peak, which is why the paper sweeps 56/112/224 threads);
* **multiplexing** — concurrent kernels (e.g. dgemms launched from
  different VMs) share the card via processor sharing: rates are
  recomputed whenever the active set changes, with a context-switch
  penalty once demand oversubscribes the hardware threads.
"""

from __future__ import annotations

from typing import Optional

from ..phi.specs import PhiSKU
from ..sim import Event, SimError, Simulator

__all__ = ["OCCUPANCY", "MICScheduler", "ComputeJob", "placement_throughput"]

#: Fraction of a core's peak issue rate achieved with k resident hardware
#: threads (k=0..4).  KNC's in-order pipeline needs >=2 threads to issue
#: every cycle; 4 threads add a little more latency hiding.
OCCUPANCY = (0.0, 0.55, 0.90, 0.97, 1.00)

#: Throughput factor applied when total demand exceeds hardware threads
#: (uOS timeslicing: context switches + cache thrash).
MULTIPLEX_PENALTY = 0.92


def placement_throughput(threads: int, sku: PhiSKU) -> float:
    """Standalone flops/s of a T-thread kernel placed on the card.

    Threads spread round-robin over usable cores; per-core occupancy
    follows :data:`OCCUPANCY`.  Beyond 4 threads/core the curve saturates
    (the multiplexing penalty is applied by the scheduler, which knows
    about *total* demand, not here).
    """
    if threads <= 0:
        return 0.0
    cores = sku.usable_cores
    per_core_peak = sku.peak_dp_flops / sku.cores
    k, r = divmod(threads, cores)
    if k >= len(OCCUPANCY) - 1:
        # every core saturated at 4 threads
        return cores * OCCUPANCY[-1] * per_core_peak
    hi = OCCUPANCY[min(k + 1, len(OCCUPANCY) - 1)]
    lo = OCCUPANCY[k]
    return (r * hi + (cores - r) * lo) * per_core_peak


class ComputeJob:
    """One parallel kernel executing on the card."""

    __slots__ = ("name", "threads", "flops_total", "flops_done", "efficiency",
                 "rate", "done", "started_at", "finished_at")

    def __init__(self, name: str, threads: int, flops: float, efficiency: float,
                 done: Event, now: float):
        self.name = name
        self.threads = threads
        self.flops_total = flops
        self.flops_done = 0.0
        self.efficiency = efficiency
        self.rate = 0.0  # current flops/s, set by the scheduler
        self.done = done
        self.started_at = now
        self.finished_at: Optional[float] = None

    @property
    def remaining(self) -> float:
        return max(self.flops_total - self.flops_done, 0.0)


class MICScheduler:
    """Processor-sharing scheduler over the card's hardware threads."""

    def __init__(self, sim: Simulator, sku: PhiSKU):
        self.sim = sim
        self.sku = sku
        #: hardware thread slots available to user kernels.
        self.slots = sku.usable_cores * sku.threads_per_core
        self._active: list[ComputeJob] = []
        self._last_update = 0.0
        self._epoch = 0  # invalidates stale completion callbacks
        self.completed: list[ComputeJob] = []
        #: peak concurrent demand observed (sharing metric).
        self.peak_demand = 0
        #: integral of delivered flops (utilization accounting).
        self.flops_delivered = 0.0
        #: simulated seconds with at least one active job.
        self.busy_time = 0.0
        #: frequency multiplier applied to the card's aggregate
        #: throughput (the power model's throttle loop drives it; 1.0
        #: means full clock and is byte-identical to the pre-power era).
        self.clock_scale = 1.0
        #: the attached :class:`~repro.phi.power.PhiPowerModel`, if the
        #: owning device opted into power modeling.
        self.power = None

    # ------------------------------------------------------------------
    def submit(self, flops: float, threads: int, efficiency: float = 1.0,
               name: str = "kernel") -> Event:
        """Start a kernel; returns an event firing at its completion with
        the :class:`ComputeJob` as value."""
        if threads <= 0:
            raise SimError("kernel needs at least one thread")
        if flops < 0:
            raise SimError("negative flops")
        if not 0.0 < efficiency <= 1.0:
            raise SimError(f"efficiency must be in (0, 1], got {efficiency}")
        done = self.sim.event(name=f"job:{name}")
        job = ComputeJob(name, threads, flops, efficiency, done, self.sim.now)
        if self.power is not None:
            self.power.advance()  # integrate the pre-change segment
        self._advance()
        self._active.append(job)
        self.peak_demand = max(self.peak_demand, self.total_demand)
        self._reschedule()
        if self.power is not None:
            self.power.on_scheduler_change()
        return done

    @property
    def total_demand(self) -> int:
        return sum(j.threads for j in self._active)

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Credit progress to every active job since the last update."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            if self._active:
                self.busy_time += dt
            for job in self._active:
                job.flops_done += job.rate * dt
                self.flops_delivered += job.rate * dt
        self._last_update = self.sim.now

    def _recompute_rates(self) -> None:
        """Processor sharing with *global* thread placement.

        All active threads spread round-robin over the cores together, so
        the card's aggregate throughput is the occupancy of the combined
        thread count — never more than the hardware can issue — and each
        job receives its thread-proportional share.  Oversubscription
        beyond the hardware threads costs the context-switch penalty.
        """
        total = self.total_demand
        if total == 0:
            return
        total_tp = placement_throughput(total, self.sku)
        if total > self.slots:
            total_tp *= MULTIPLEX_PENALTY
        if self.clock_scale != 1.0:
            total_tp *= self.clock_scale
        for job in self._active:
            job.rate = total_tp * (job.threads / total) * job.efficiency

    def _reschedule(self) -> None:
        """Recompute rates and arm a callback at the earliest completion."""
        self._recompute_rates()
        self._epoch += 1
        epoch = self._epoch
        soonest: Optional[float] = None
        for job in self._active:
            if job.rate <= 0:
                continue
            eta = self.sim.now + job.remaining / job.rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is not None:
            self.sim.call_at(soonest, lambda: self._on_completion_check(epoch))

    def set_clock_scale(self, scale: float) -> None:
        """Rescale the card's aggregate throughput (throttle feedback).

        Progress accrued so far is credited at the old rate before the
        new scale takes effect, so a mid-job frequency change is exact.
        """
        if scale == self.clock_scale:
            return
        self._advance()
        self.clock_scale = scale
        if self._active:
            self._reschedule()

    def _on_completion_check(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # superseded by a newer schedule
        if self.power is not None:
            self.power.advance()  # integrate the pre-change segment
        self._advance()
        finished = [j for j in self._active if j.remaining <= 1e-6 * max(j.flops_total, 1.0)]
        for job in finished:
            self._active.remove(job)
            job.finished_at = self.sim.now
            job.rate = 0.0
            self.completed.append(job)
            job.done.succeed(job)
        if self._active:
            self._reschedule()
        if finished and self.power is not None:
            self.power.on_scheduler_change()

    def utilization(self, elapsed: float) -> float:
        """Fraction of the card's usable peak delivered over ``elapsed``
        seconds — the datacenter-utilization quantity §I motivates."""
        if elapsed <= 0:
            return 0.0
        usable_peak = self.sku.usable_cores * (self.sku.peak_dp_flops / self.sku.cores)
        return self.flops_delivered / (usable_peak * elapsed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MICScheduler slots={self.slots} active={len(self._active)}>"
