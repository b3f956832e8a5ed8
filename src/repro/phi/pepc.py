"""pepc-style power control plane: query/set power properties by scope.

Modeled on Intel's ``pepc`` (Power, Energy, and Performance
Configuration) idiom: every operation takes a *scope* that names which
silicon it touches, and info/set are symmetric over the same property
set.  The scope ladder here is the virtualized-card analog of pepc's
global/package/core model:

* ``global``  — every card on every host,
* ``card``    — one card index (optionally on one host),
* ``core``    — specific cores of one card,
* ``vm``      — the card a VM's vPHI dispatch targets (resolved
  through the VM registry the caller supplies).

Properties: P-state (requested operating point), C-state enablement,
the RAPL-style TDP cap, and the uncore frequency multiplier.  All of it
requires the owning machines to have opted into the power model
(``power_model="knc"``) — addressing an unpowered card is a typed
error, not a silent no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import SimError

__all__ = ["PowerControl", "Scope"]


@dataclass(frozen=True)
class Scope:
    """What a pepc operation addresses.

    Build with the classmethods; ``host=None`` means "that card index
    on every host".
    """

    level: str
    host: Optional[int] = None
    card: Optional[int] = None
    cores: Optional[tuple[int, ...]] = None
    vm: Optional[str] = None

    LEVELS = ("global", "card", "core", "vm")

    @classmethod
    def everything(cls) -> "Scope":
        return cls("global")

    @classmethod
    def one_card(cls, card: int, host: Optional[int] = None) -> "Scope":
        return cls("card", host=host, card=card)

    @classmethod
    def one_core(cls, cores, card: int, host: Optional[int] = None) -> "Scope":
        return cls("core", host=host, card=card, cores=tuple(cores))

    @classmethod
    def one_vm(cls, name: str) -> "Scope":
        return cls("vm", vm=name)

    def __str__(self) -> str:
        if self.level == "global":
            return "global"
        if self.level == "vm":
            return f"vm:{self.vm}"
        where = f"c{self.card}" if self.host is None else f"h{self.host}c{self.card}"
        if self.level == "core":
            return f"{where}:cores{list(self.cores)}"
        return where


class PowerControl:
    """Property control plane over one or more machines' cards."""

    def __init__(self, machines, vms: Optional[dict] = None):
        if not machines:
            raise SimError("pepc needs at least one machine")
        self.machines = list(machines)
        #: VM name -> VirtualMachine, for resolving ``vm`` scopes.
        self.vms = dict(vms) if vms else {}

    # -- scope resolution ----------------------------------------------
    def _resolve(self, scope: Optional[Scope]) -> list[tuple]:
        """``[(host_idx, device, cores_or_None), ...]`` for a scope.

        Every named core is checked against its card before anything is
        returned, so a bad core touches no card."""
        scope = scope or Scope.everything()
        if scope.level not in Scope.LEVELS:
            raise SimError(f"unknown pepc scope level {scope.level!r}")
        if scope.level == "vm":
            return [self._resolve_vm(scope.vm)]
        targets = []
        for h, machine in enumerate(self.machines):
            if scope.host is not None and h != scope.host:
                continue
            for c, device in enumerate(machine.devices):
                if scope.card is not None and c != scope.card:
                    continue
                for core in scope.cores or ():
                    if not 0 <= core < device.sku.cores:
                        raise SimError(
                            f"pepc scope {scope}: h{h}/{device.name} has no "
                            f"core {core} (cores 0..{device.sku.cores - 1})")
                targets.append((h, device, scope.cores))
        if not targets:
            raise SimError(f"pepc scope {scope} matches no cards")
        return targets

    def _resolve_vm(self, name: str) -> tuple:
        vm = self.vms.get(name)
        if vm is None:
            raise SimError(f"pepc: unknown VM {name!r} (not in the registry)")
        inst = getattr(vm, "vphi", None)
        if inst is None:
            raise SimError(f"pepc: VM {name!r} has no vPHI instance")
        for h, machine in enumerate(self.machines):
            if machine.kernel is vm.host_kernel:
                return (h, machine.devices[inst.card], None)
        raise SimError(f"pepc: VM {name!r} runs on none of these machines")

    def _power(self, host: int, device):
        if device.power is None:
            raise SimError(
                f"h{host}/{device.name}: power_model='none' — construct the "
                "Machine/Cluster with power_model='knc' to use pepc")
        return device.power

    # -- properties ----------------------------------------------------
    def info(self, scope: Optional[Scope] = None) -> list[dict]:
        """One row per addressed card (live values; advances the model)."""
        rows = []
        for host, device, cores in self._resolve(scope):
            power = self._power(host, device)
            power.refresh()
            core_list = (range(device.sku.cores) if cores is None else cores)
            rows.append({
                "host": host,
                "card": device.name,
                "sku": device.sku.name,
                "state": device.state.value,
                "pstates": len(power.pstates),
                "requested_pstate": {
                    c: power.requested[c] for c in core_list},
                "effective_khz": {
                    c: power.pstates[power.effective_index(c)].freq_khz
                    for c in core_list},
                "cstates_enabled": power.cstates_enabled,
                "tdp_cap_w": power.tdp_cap,
                "uncore_mult": power.uncore_mult,
                "power_w": power.power_watts(),
                "temp_c": power.temp_c,
                "throttled": power.is_throttled,
                "thermal_throttled": power.thermal_throttled,
            })
        return rows

    def set_pstate(self, index: int, scope: Optional[Scope] = None) -> None:
        for host, device, cores in self._resolve(scope):
            self._power(host, device).set_pstate(
                index, cores=None if cores is None else list(cores))

    def set_cstates(self, enabled: bool, scope: Optional[Scope] = None) -> None:
        for host, device, _ in self._resolve(scope):
            self._power(host, device).set_cstates(enabled)

    def set_tdp(self, watts: float, scope: Optional[Scope] = None) -> None:
        for host, device, _ in self._resolve(scope):
            self._power(host, device).set_tdp_cap(watts)

    def set_uncore(self, mult: float, scope: Optional[Scope] = None) -> None:
        for host, device, _ in self._resolve(scope):
            self._power(host, device).set_uncore(mult)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cards = sum(len(m.devices) for m in self.machines)
        return f"<PowerControl machines={len(self.machines)} cards={cards}>"
