"""Worker-pool backend dispatch: servicing SCIF ops off the event loop.

§III concedes that every forwarded op except ``scif_accept`` is serviced
in QEMU's *blocking* event-loop mode — the whole VM pauses while the host
syscall runs — and flags asynchronous servicing as future work.  This
module is that future work: :class:`WorkerPool` generalizes the single
dedicated accept worker into a per-VM pool of persistent QEMU worker
threads (sim processes).  With a pool armed
(``VPhiConfig(backend_workers=N)``), the backend's drain loop hands every
pool-eligible request to a pool member instead of freezing the VM, so
the vCPU keeps running, kicks keep draining, and completions return
out of order correlated by tag.

Three properties the pool guarantees:

* **per-endpoint ordering** — requests are sharded over members by
  endpoint handle, so each member services one handle's requests FIFO.
  Two ops on the same endpoint can never be reordered by concurrency;
  ops without an endpoint (open/get_node_ids/sysfs) spread round-robin
  and carry no ordering promise.
* **a bounded in-flight window** — the backend stops popping the avail
  ring once ``max_inflight`` requests are popped-but-incomplete; excess
  chains stay on the ring until a completion retires (back-pressure all
  the way to the guest's descriptor allocator).
* **per-VM fairness** — before issuing the host syscall a member must
  hold a dispatch credit from the machine-wide :class:`CardArbiter`,
  which grants slots round-robin over the VMs sharing the card.  A VM
  with a deep queue cannot starve a VM with one outstanding request.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..analysis.calibration import VPHI_COSTS, VPhiCosts
from ..scif import ScifError
from ..scif.errors import ECONNRESET
from ..sim import Channel, ChannelClosed, Event, Interrupted, SimError, Simulator
from .ops import SPAN_CREDIT_WAIT, SPAN_RING, OpSpec

if TYPE_CHECKING:  # pragma: no cover
    from .backend import VPhiBackend

__all__ = ["CardArbiter", "WorkerPool"]


class CardArbiter:
    """Dispatch credits over the VMs sharing one card, under a pluggable
    scheduling policy.

    ``slots`` bounds concurrent host-side SCIF dispatches machine-wide
    (one per host core by default — the driver serializes per-core
    ioctls).  Waiters queue per VM; each freed slot goes to whichever
    waiting VM the active policy selects:

    * ``"rr"`` (default) — round-robin over VMs in first-acquire order.
      Every grant advances the rotor, including uncontended ones, so
      the VM that happened to be running when contention began holds no
      hidden head start and an idle VM keeps its place in the rotation
      when it resumes (VMs are never dropped from the order).
    * ``"wfq"`` — weighted fair queuing by virtual finish tags: each
      grant to ``vm`` costs ``1/weight(vm)`` of virtual time, and the
      waiter with the smallest prospective finish tag wins, so over any
      contended interval grants converge to the weight ratios.  A zero
      weight marks a best-effort tenant, served only when no weighted
      tenant is waiting.  Ties rotate round-robin.
    * ``"priority"`` — strict classes: the waiter with the numerically
      lowest priority class wins (0 = most important), round-robin
      within a class.  A lower class waiter always yields; starvation
      of the losers is the documented semantics, not a bug.

    Every grant — immediate or queued — flows through the same policy
    selector, so credit accounting cannot diverge between the contended
    and uncontended paths.
    """

    POLICIES = ("rr", "wfq", "priority")

    def __init__(
        self,
        sim: Simulator,
        slots: int,
        name: str = "vphi-arbiter",
        policy: str = "rr",
    ):
        if slots < 1:
            raise ValueError("arbiter needs at least one dispatch slot")
        self.sim = sim
        self.name = name
        self.slots = slots
        self._free = slots
        self.set_policy(policy)
        #: selection order: VMs in first-acquire order, never removed —
        #: an idle tenant keeps its slot in the rotation.
        self._order: list[str] = []
        self._queues: dict[str, deque[Event]] = {}
        #: rr/wfq rotor: the VM granted last.  Anchoring the rotor to a
        #: *name* (scan resumes after it) rather than an index keeps the
        #: rotation fair even when a tenant registers after the grant —
        #: ``(i + 1) % n`` with n == 1 pins the rotor back onto the only
        #: registered VM, handing it a head start over every later
        #: arrival.
        self._last: Optional[str] = None
        #: per-priority-class rr rotor (``priority`` policy).
        self._class_next: dict[int, int] = {}
        #: per-tenant wfq weights / priority classes (``configure``).
        self._weights: dict[str, float] = {}
        self._prios: dict[str, int] = {}
        #: wfq virtual clock, per-tenant virtual finish tags, and the
        #: virtual time each tenant last became backlogged.  The start
        #: tag is pinned when the queue goes non-empty (classic WFQ
        #: stamps on arrival): ranking a waiter against the *advancing*
        #: clock instead would float every unserved tag upward in
        #: lockstep and starve the light flows.
        self._vtime = 0.0
        self._finish: dict[str, float] = {}
        self._backlog_start: dict[str, float] = {}
        #: queued-but-ungranted acquires (O(1) contention check).
        self._waiting = 0
        #: metrics
        self.grants = 0
        self.grants_by_vm: dict[str, int] = {}
        self.waits = 0

    @property
    def free(self) -> int:
        return self._free

    @property
    def waiting(self) -> int:
        """Acquires currently queued (machine-wide contention depth)."""
        return self._waiting

    def set_policy(self, policy: str) -> None:
        """Switch scheduling policy (affects future grants only)."""
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown arbiter policy {policy!r} (choose from {self.POLICIES})"
            )
        self.policy = policy

    def configure(self, vm: str, weight: Optional[float] = None,
                  priority: Optional[int] = None) -> None:
        """Set one tenant's wfq weight and/or strict priority class.

        Safe mid-flight: weights and classes are read at selection time,
        so a change applies from the next grant onward — already-queued
        waiters are re-ranked, already-granted credits are not recalled.
        """
        self._register(vm)
        if weight is not None:
            if weight < 0:
                raise ValueError(f"qos weight must be >= 0, got {weight}")
            self._weights[vm] = weight
        if priority is not None:
            self._prios[vm] = priority

    def weight_of(self, vm: str) -> float:
        return self._weights.get(vm, 1.0)

    def priority_of(self, vm: str) -> int:
        return self._prios.get(vm, 0)

    def _register(self, vm: str) -> None:
        if vm not in self._queues:
            self._queues[vm] = deque()
            self._order.append(vm)

    def deregister(self, vm: str) -> bool:
        """Drop one tenant's scheduling state (it left this card).

        Live migration moves a VM from one card's arbiter to another; the
        *source* arbiter must forget everything about it — its place in
        the selection order, its wfq virtual finish tag and backlog
        stamp, and its weight/priority — or the rotor keeps a ghost slot
        and, worse, the VM would carry a stale wfq start tag back if it
        ever migrated home.  The destination arbiter meets the VM as a
        brand-new tenant (``configure`` registers it fresh).

        Only an *idle* tenant can be deregistered: the migration path
        quiesces in-flight work first, so pending acquires here mean the
        caller skipped the drain — a bug worth failing loudly on.
        Returns False when the VM was never registered (idempotent).
        """
        queue = self._queues.get(vm)
        if queue is None:
            return False
        if queue:
            raise SimError(
                f"{self.name}: deregister({vm!r}) with {len(queue)} "
                "pending acquires — drain the tenant before migrating it"
            )
        idx = self._order.index(vm)
        if self._last == vm:
            # re-anchor the rotor to the predecessor so the scan resumes
            # exactly where it would have (the successor is next).
            self._last = self._order[idx - 1] if len(self._order) > 1 else None
        self._order.pop(idx)
        # per-class cursors index into _order; close the gap they span.
        self._class_next = {
            p: (c - 1 if c > idx else c)
            for p, c in self._class_next.items()
        }
        del self._queues[vm]
        self._weights.pop(vm, None)
        self._prios.pop(vm, None)
        self._finish.pop(vm, None)
        self._backlog_start.pop(vm, None)
        return True

    def acquire(self, vm: str) -> Event:
        """An event firing once ``vm`` holds a dispatch credit."""
        self._register(vm)
        if not self._queues[vm]:
            # queue goes non-empty: pin the wfq start tag now.  An idle
            # tenant re-enters at the current clock — it accrues no
            # credit for the time it wasn't asking.
            self._backlog_start[vm] = max(
                self._vtime, self._finish.get(vm, 0.0)
            )
        ev = self.sim.event(name=f"{self.name}:{vm}")
        self._queues[vm].append(ev)
        self._waiting += 1
        self._pump()
        if not ev.triggered:
            self.waits += 1
        return ev

    def release(self, vm: str) -> None:
        """Return ``vm``'s credit; hand it to the policy's next pick."""
        if self._free >= self.slots:
            raise SimError(
                f"{self.name}: credit released by {vm!r} with all "
                f"{self.slots} slots already free (double release)"
            )
        self._free += 1
        self._pump()

    def cancel(self, vm: str, ev: Event) -> None:
        """Abandon one pending acquire (its waiter was interrupted).

        An ungranted request is pulled off ``vm``'s queue; a granted but
        never-consumed credit is returned — otherwise the interrupted
        waiter would strand a slot and shrink the arbiter forever.
        """
        queue = self._queues.get(vm)
        if queue is not None and ev in queue:
            queue.remove(ev)
            self._waiting -= 1
            return
        if ev.triggered:
            self.release(vm)

    # -- policy core ---------------------------------------------------
    def _pump(self) -> None:
        """Grant free slots to waiters until one side runs dry."""
        while self._free > 0 and self._waiting > 0:
            vm = self._select()
            if vm is None:  # pragma: no cover - counter drift guard
                break
            queue = self._queues[vm]
            while queue:
                ev = queue.popleft()
                self._waiting -= 1
                if ev.triggered:
                    continue
                self._free -= 1
                self._grant(vm, ev)
                break

    def _select(self) -> Optional[str]:
        """The waiting VM the active policy serves next (with its
        rotor/virtual-clock accounting applied)."""
        if self.policy == "wfq":
            return self._select_wfq()
        if self.policy == "priority":
            return self._select_priority()
        return self._select_rr()

    def _rotor_start(self) -> int:
        """Index to resume scanning from: just past the last grantee."""
        if self._last is None:
            return 0
        return self._order.index(self._last) + 1

    def _select_rr(self) -> Optional[str]:
        n = len(self._order)
        start = self._rotor_start()
        for k in range(n):
            v = self._order[(start + k) % n]
            if self._queues[v]:
                self._last = v
                return v
        return None

    def _select_wfq(self) -> Optional[str]:
        n = len(self._order)
        best = None
        best_tag = 0.0
        effort = None
        # walk from the rotor so equal tags (and best-effort tenants)
        # rotate instead of always favouring the first-registered VM
        start = self._rotor_start()
        for k in range(n):
            v = self._order[(start + k) % n]
            if not self._queues[v]:
                continue
            w = self._weights.get(v, 1.0)
            if w <= 0.0:
                if effort is None:
                    effort = v
                continue
            tag = max(
                self._backlog_start.get(v, 0.0),
                self._finish.get(v, 0.0),
            ) + 1.0 / w
            if best is None or tag < best_tag:
                best, best_tag = v, tag
        if best is not None:
            start = best_tag - 1.0 / self._weights.get(best, 1.0)
            if start > self._vtime:
                self._vtime = start
            self._finish[best] = best_tag
            self._last = best
            return best
        if effort is not None:
            self._last = effort
            return effort
        return None

    def _select_priority(self) -> Optional[str]:
        best_prio: Optional[int] = None
        members: list[tuple[int, str]] = []
        for i, v in enumerate(self._order):
            if not self._queues[v]:
                continue
            p = self._prios.get(v, 0)
            if best_prio is None or p < best_prio:
                best_prio, members = p, [(i, v)]
            elif p == best_prio:
                members.append((i, v))
        if best_prio is None:
            return None
        cursor = self._class_next.get(best_prio, 0)
        for i, v in members:
            if i >= cursor:
                self._class_next[best_prio] = i + 1
                return v
        i, v = members[0]
        self._class_next[best_prio] = i + 1
        return v

    def _grant(self, vm: str, ev: Event) -> None:
        self.grants += 1
        self.grants_by_vm[vm] = self.grants_by_vm.get(vm, 0) + 1
        ev.succeed()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CardArbiter {self.policy} slots={self.slots} "
            f"free={self._free} grants={self.grants}>"
        )


class WorkerPool:
    """One VM's pool of persistent QEMU worker threads (sim processes)."""

    def __init__(
        self,
        backend: "VPhiBackend",
        size: int,
        arbiter: CardArbiter,
        costs: VPhiCosts = VPHI_COSTS,
    ):
        if size < 1:
            raise ValueError("worker pool needs at least one member")
        self.backend = backend
        self.sim = backend.sim
        self.size = size
        self.arbiter = arbiter
        self.costs = costs
        vm = backend.vm.name
        self._chans = [
            Channel(self.sim, name=f"{vm}-pool-q{i}") for i in range(size)
        ]
        self._members = [
            self.sim.spawn(self._member(i), name=f"{vm}-pool-w{i}")
            for i in range(size)
        ]
        #: round-robin spread for ops without an endpoint (unordered).
        self._rr = itertools.count()
        #: per-pool submission sequence (the ordering audit trail).
        self._seq = itertools.count(1)
        #: metrics
        self.inflight = 0
        self.peak_inflight = 0
        self.submitted = 0
        self.completed = 0
        self.deaths = 0
        self.aborted = 0
        #: the element each member is currently servicing (None = idle);
        #: the machine-wide abort path interrupts exactly these.
        self._current: list = [None] * size
        self.busy_time = 0.0
        self.credit_wait = 0.0
        #: ``(handle, submit_seq)`` per retired endpoint op, in completion
        #: order — per-handle sequences must be strictly increasing (the
        #: property tests assert exactly that).
        self.completion_log: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    def shard_for(self, spec: OpSpec, req) -> int:
        """The member servicing this request.

        Endpoint ops pin to ``handle % size`` — one member per handle
        means per-endpoint FIFO by construction.  Endpoint-less ops have
        no ordering promise and spread round-robin.
        """
        if spec.wants_endpoint:
            return req.handle % self.size
        return next(self._rr) % self.size

    def submit_batch(self, items: list) -> None:
        """Queue a whole drained batch of ``(elem, spec)`` pairs at once.

        One bookkeeping update for the batch, then per-item sharding in
        pop order — per-endpoint FIFO is preserved because same-handle
        requests land on the same shard in the order they were popped.
        Never blocks: the backend's drain loop already bounded the batch
        by the in-flight window.
        """
        self.inflight += len(items)
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        self.submitted += len(items)
        chans = self._chans
        seq = self._seq
        for elem, spec in items:
            chans[self.shard_for(spec, elem.header)].try_put(
                (elem, spec, next(seq))
            )

    def _member(self, idx: int):
        """One persistent worker: credit -> service -> retire, forever.

        A member can be :meth:`~repro.sim.Process.interrupt`-ed while
        servicing (card reset / backend restart aborting the machine's
        in-flight work); the request it held completes with the abort
        error and the member survives to take the next chain.
        """
        vm = self.backend.vm.name
        while True:
            try:
                elem, spec, seq = yield self._chans[idx].get()
            except ChannelClosed:
                return
            # completing the request overwrites elem.header with the
            # response record; remember the handle for the audit trail.
            handle = elem.header.handle
            tag = elem.header.tag
            self._current[idx] = elem
            # shard pickup ends the chain's ring/queue residency; the
            # gap to the next mark is the machine-wide credit wait.
            tracer = self.backend.tracer
            tracer.mark_tag(tag, SPAN_RING)
            try:
                t0 = self.sim.now
                credit = self.arbiter.acquire(vm)
                try:
                    yield credit
                except Interrupted:
                    self.arbiter.cancel(vm, credit)
                    raise
                self.credit_wait += self.sim.now - t0
                tracer.mark_tag(tag, SPAN_CREDIT_WAIT)
                t1 = self.sim.now
                try:
                    yield from self.backend._service(elem, worker=idx)
                finally:
                    self.busy_time += self.sim.now - t1
                    self.arbiter.release(vm)
            except Interrupted as stop:
                err = (
                    stop.cause
                    if isinstance(stop.cause, ScifError)
                    else ECONNRESET("pool member interrupted mid-request")
                )
                self.aborted += 1
                self.backend.complete_with_error(elem, err)
            finally:
                self._current[idx] = None
                self.inflight -= 1
                self.completed += 1
                if spec.wants_endpoint:
                    self.completion_log.append((handle, seq))
                # retiring may unblock chains parked behind max_inflight
                self.backend.request_retired()

    def abort_inflight(self, err_factory, skip: Optional[int] = None) -> None:
        """Abort every popped-but-incomplete request in the pool.

        Queued chains are drained and completed with ``err_factory()``
        directly; members busy servicing a request are interrupted so
        the aborted host syscall unwinds at its next yield point.  The
        worker whose fault injection triggered the abort passes its own
        index as ``skip`` — its request errors through the normal
        dispatch-fault path instead.
        """
        for chan in self._chans:
            while True:
                ok, item = chan.try_get()
                if not ok:
                    break
                elem, spec, seq = item
                handle = elem.header.handle
                self.aborted += 1
                self.backend.complete_with_error(elem, err_factory())
                self.inflight -= 1
                self.completed += 1
                if spec.wants_endpoint:
                    self.completion_log.append((handle, seq))
                self.backend.request_retired()
        for i, proc in enumerate(self._members):
            if i != skip and self._current[i] is not None:
                proc.interrupt(err_factory())

    # ------------------------------------------------------------------
    def note_death(self, idx: int) -> None:
        """A member died mid-request; QEMU respawns it from the pool."""
        self.deaths += 1

    def shutdown(self) -> None:
        for chan in self._chans:
            chan.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WorkerPool {self.backend.vm.name} size={self.size} "
            f"inflight={self.inflight} done={self.completed}>"
        )
