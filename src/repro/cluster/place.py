"""Placement: bin-packing VMs onto cards by ``qos_share``.

The unit of capacity is the *share*: a VM's ``qos_share`` (the same
number its card arbiter weighs wfq grants by) is how much of a card it
occupies, so placement and runtime QoS argue about the same currency.
Two policies:

* ``"spread"`` — least-loaded card wins (ties break toward the lowest
  ``(host, card)``), minimizing per-card contention.
* ``"pack"`` — first card with headroom under ``capacity`` wins
  (first-fit in card order), minimizing the number of cards in use —
  the consolidation policy a power- or maintenance-driven operator
  wants.  A VM that fits nowhere falls back to least-loaded (the pool
  oversubscribes rather than refuses).

Migration targets come from the same policies with the source card
excluded (:meth:`PlacementScheduler.pick_dest`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import SimError

if TYPE_CHECKING:  # pragma: no cover
    from .topology import CardRef, Cluster

__all__ = ["PlacementScheduler"]


class PlacementScheduler:
    """Assigns VMs to cards and picks migration targets."""

    POLICIES = ("spread", "pack")

    def __init__(self, cluster: "Cluster", policy: str = "spread",
                 capacity: Optional[float] = None,
                 host_power_budget: Optional[float] = None):
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r} "
                f"(choose from {self.POLICIES})"
            )
        self.cluster = cluster
        self.policy = policy
        #: pack-policy headroom per card, in shares.  Defaults to the
        #: host's core count — one share per dispatch slot is the point
        #: where the arbiter starts queueing.
        self.capacity = (capacity if capacity is not None
                         else float(cluster.machines[0].host_params.cores))
        #: per-host power envelope in watts (None = unconstrained).  A
        #: candidate card is power-feasible when the TDP caps of the
        #: host's already-populated cards plus its own fit the budget —
        #: placement and the runtime throttle loop argue about the same
        #: watts, so capping a card (pepc) frees placement headroom.
        self.host_power_budget = host_power_budget
        #: summed shares per card (every card, online or not).
        self.loads: dict["CardRef", float] = {
            ref: 0.0 for ref in cluster.cards
        }
        #: VM name -> (card, share).
        self.assignments: dict[str, tuple] = {}
        self.offline: set = set()
        #: metrics
        self.placed = 0
        self.moves = 0

    # ------------------------------------------------------------------
    def online_cards(self, exclude=()) -> list:
        return [ref for ref in self.loads
                if ref not in self.offline and ref not in exclude]

    # ------------------------------------------------------------------
    def card_watts(self, ref) -> float:
        """One card's power claim: its TDP cap (live, pepc-settable)
        with the power model on, its SKU TDP otherwise."""
        device = self.cluster.machine(ref).devices[ref.card]
        if device.power is not None:
            return float(device.power.tdp_cap)
        return float(device.sku.tdp_watts)

    def _power_feasible(self, candidates: list) -> list:
        """Filter candidates to cards whose host power budget has room.

        A host's claim is the summed watts of its cards that already
        carry VMs; a candidate is feasible when adding its own claim
        (if not already populated) stays within the budget.
        """
        budget = self.host_power_budget
        if budget is None:
            return candidates
        populated = {ref for ref, load in self.loads.items() if load > 0}
        claimed: dict[int, float] = {}
        for ref in populated:
            claimed[ref.host] = claimed.get(ref.host, 0.0) + self.card_watts(ref)
        feasible = []
        for ref in candidates:
            extra = 0.0 if ref in populated else self.card_watts(ref)
            if claimed.get(ref.host, 0.0) + extra <= budget + 1e-9:
                feasible.append(ref)
        return feasible

    def _choose(self, share: float, candidates: list) -> Optional["CardRef"]:
        if not candidates:
            return None
        powered = self._power_feasible(candidates)
        if powered:
            candidates = powered
        # (an infeasible-everywhere request oversubscribes the budget
        # rather than refusing, mirroring the pack-capacity fallback)
        if self.policy == "pack":
            for ref in sorted(candidates):
                if self.loads[ref] + share <= self.capacity:
                    return ref
            # nothing has headroom: oversubscribe the least-loaded card
        return min(candidates, key=lambda r: (self.loads[r], r))

    def place(self, name: str, share: float = 1.0) -> "CardRef":
        """Pick a card for a new VM and record the assignment."""
        if name in self.assignments:
            raise SimError(f"VM {name!r} is already placed")
        ref = self._choose(share, self.online_cards())
        if ref is None:
            raise SimError("no online cards to place on")
        self.assign(name, ref, share)
        return ref

    def pick_dest(self, name: str, exclude=(),
                  share: Optional[float] = None) -> Optional["CardRef"]:
        """A migration destination for an existing VM (None = nowhere).

        Unlike :meth:`place` this does *not* record anything — the move
        is only real once the live migration lands (``move`` then).
        """
        if share is None:
            share = self.assignments[name][1]
        return self._choose(share, self.online_cards(exclude=exclude))

    def assign(self, name: str, ref, share: float) -> None:
        """Record an assignment made for us (explicit placement)."""
        old = self.assignments.get(name)
        if old is not None:
            self.loads[old[0]] -= old[1]
        self.assignments[name] = (ref, share)
        self.loads[ref] += share
        self.placed += 1

    def move(self, name: str, dest) -> None:
        """Re-home one VM's share (called when its migration lands)."""
        ref, share = self.assignments[name]
        if ref == dest:
            return
        self.loads[ref] -= share
        self.loads[dest] += share
        self.assignments[name] = (dest, share)
        self.moves += 1

    def release(self, name: str) -> None:
        """Forget a VM (evicted or destroyed)."""
        entry = self.assignments.pop(name, None)
        if entry is not None:
            self.loads[entry[0]] -= entry[1]

    def set_offline(self, ref, offline: bool = True) -> None:
        if offline:
            self.offline.add(ref)
        else:
            self.offline.discard(ref)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PlacementScheduler {self.policy} cards={len(self.loads)} "
            f"vms={len(self.assignments)}>"
        )
