"""Transparent session recovery: journal + replay across card resets.

Per-request retry (the PR 2 watchdog/backoff machinery) can re-issue an
idempotent op, but it cannot resurrect a *session* whose card-side state
is gone: after a card reset every backend endpoint, registered window
and mmap'd PFN range is stale.  This module is the session-level half of
fault tolerance — the same device-state reconstruction problem SR-IOV VF
management frameworks solve for passthrough NICs, applied to the vPHI
split driver:

* :class:`SessionJournal` — the minimal replayable state, recorded by
  the op registry's journal hooks as lifecycle ops *succeed*: opened
  endpoints, bind/listen/connect topology, registered windows
  (sg, length, offset, prot) and mmap mappings.  Data ops (send/recv,
  RMA, fences, polls) are deliberately **not** journaled: their effects
  live in card memory the reset just destroyed, and replaying them would
  be wrong, not just wasteful.
* :class:`SessionManager` — the per-VM recovery orchestrator.  On a
  ``CARD_RESET`` or ``BACKEND_RESTART`` notification from the backend it
  **fences the old epoch** (every in-flight tag is aborted with a typed
  :class:`~repro.scif.errors.EStaleEpoch`; late completions stamped with
  the old epoch are dropped at drain), applies the configured
  **degraded-mode policy** to new submits (queue / fail-fast /
  circuit-break), and **replays the journal through the normal op path**
  — rebuilding connections, re-registering windows at their journaled
  offsets (the guest's pinned pages survive; only the card-side mapping
  is rebuilt) and re-establishing mmap PFN mappings through the KVM MMU
  (new :class:`~repro.kvm.fault.PfnPhiInfo` + a VMA zap so the next
  guest access faults into the rebuilt window).

Epoch fencing is what makes the replay safe: requests carry the epoch
they were posted in, completions echo it, and the frontend's drain drops
any completion whose epoch predates the current fence — a pre-reset
``register`` completing *after* the rebuild can never smuggle a dead
window into the new session.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from ..scif.errors import EStaleEpoch, ScifError
from ..sim import WaitQueue
from .config import RECOVERY_SETTLE
from .protocol import BatchCall, VPhiOp, VPhiResponse

__all__ = [
    "ACTIVE",
    "BROKEN",
    "RECOVERING",
    "EndpointRecord",
    "MmapRecord",
    "SessionJournal",
    "SessionManager",
    "WindowRecord",
]

#: session states
ACTIVE = "active"
RECOVERING = "recovering"
BROKEN = "broken"

#: bounded per-op retries during replay (the card-side peer may still be
#: re-establishing its own listeners/windows when we re-dial).
REPLAY_ATTEMPTS = 3


@dataclass
class WindowRecord:
    """One registered window: everything needed to re-register it.

    The guest's pages stay pinned across the reset (the pin belongs to
    the guest kernel, not the card), so the SG is replayed verbatim and
    the window re-registers at its journaled offset — RAS offsets are
    stable across recovery and in-guest pointers stay valid.
    """

    sg: Any
    nbytes: int
    offset: int
    prot: int


@dataclass
class MmapRecord:
    """One scif_mmap mapping: remote window coords + the guest VMA.

    ``vma``/``space`` are attached by :meth:`SessionManager.attach_vma`
    once the guest shim has built the VMA; replay resolves a fresh
    :class:`~repro.kvm.fault.PfnPhiInfo` against the rebuilt peer window,
    swaps it into ``vma.private`` and zaps the VMA's present pages so the
    next guest access faults through the KVM MMU into the new frames.
    """

    roffset: int
    nbytes: int
    prot: int
    vma: Any = None
    space: Any = None


@dataclass
class EndpointRecord:
    """One guest-visible endpoint and its replayable topology."""

    handle: int
    #: bound port (None = never bound).  Re-bound verbatim on replay so
    #: card-side peers can re-dial the same address.
    port: Optional[int] = None
    #: listen backlog (None = never listened).
    backlog: Optional[int] = None
    #: connected peer address (None = never connected).
    addr: Optional[tuple] = None
    #: registered windows by RAS offset.
    windows: dict = field(default_factory=dict)
    #: mmap mappings, in establishment order.
    mmaps: list = field(default_factory=list)
    #: replay gave up on this endpoint; subsequent ops on its handle
    #: surface typed errors from the backend's (cleared) handle table.
    dead: bool = False
    dead_reason: Optional[ScifError] = None

    @property
    def replay_ops(self) -> int:
        """Ring round-trips a replay of this record costs."""
        if self.dead:
            return 0
        n = 1  # OPEN
        n += self.port is not None
        n += self.backlog is not None
        n += self.addr is not None
        return n + len(self.windows) + len(self.mmaps)


class SessionJournal:
    """The minimal replayable state of one VM's vPHI session.

    Mutated only by the op registry's journal hooks (on op success, with
    the original guest-visible handle) and by the VMA attach/detach
    notifications from the guest shim.  NOT journaled, deliberately:
    accepted endpoints (the card-side dialer must re-dial — the guest
    cannot re-accept on its behalf), in-flight stream data, fence marks
    and poll state (all destroyed with the card, meaningless to replay).
    """

    def __init__(self):
        self.endpoints: dict[int, EndpointRecord] = {}

    # ------------------------------------------------------------------
    # note_* hooks (duck-typed targets of OpSpec.journal)
    # ------------------------------------------------------------------
    def note_open(self, handle: int) -> None:
        self.endpoints[handle] = EndpointRecord(handle=handle)

    def note_close(self, handle: int) -> None:
        self.endpoints.pop(handle, None)

    def note_bind(self, handle: int, port: int) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.port = port

    def note_listen(self, handle: int, backlog: int) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.backlog = backlog

    def note_connect(self, handle: int, addr: tuple) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.addr = tuple(addr)

    def note_register(self, handle: int, sg, nbytes: int, offset: int,
                      prot: int) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.windows[offset] = WindowRecord(
                sg=sg, nbytes=nbytes, offset=offset, prot=prot
            )

    def note_unregister(self, handle: int, offset: int) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.windows.pop(offset, None)

    def note_mmap(self, handle: int, roffset: int, nbytes: int,
                  prot: int) -> None:
        rec = self.endpoints.get(handle)
        if rec is not None:
            rec.mmaps.append(
                MmapRecord(roffset=roffset, nbytes=nbytes, prot=prot)
            )

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Journaled facts (endpoints + topology + windows + mmaps)."""
        return sum(
            1 + (r.port is not None) + (r.backlog is not None)
            + (r.addr is not None) + len(r.windows) + len(r.mmaps)
            for r in self.endpoints.values()
        )

    @property
    def replay_ops(self) -> int:
        """Ring round-trips one full replay costs."""
        return sum(r.replay_ops for r in self.endpoints.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SessionJournal endpoints={len(self.endpoints)} size={self.size}>"


class SessionManager:
    """Per-VM epoch fencing + journal replay, owned by the frontend."""

    def __init__(self, frontend):
        self.frontend = frontend
        self.sim = frontend.sim
        self.vm = frontend.vm
        self.journal = SessionJournal()
        #: the session generation: bumped on every fence; stamped into
        #: every posted request and echoed by every completion.
        self.epoch = 0
        self.state = ACTIVE
        #: original guest handle -> current backend handle (rebuilt by
        #: replay; identity before the first reset).
        self.translation: dict[int, int] = {}
        #: submitters parked by the queue/circuit-break policies (and
        #: stale-epoch retriers) waiting for the rebuild to finish.
        self.rebuilt = WaitQueue(self.sim, name=f"{self.vm.name}-vphi-rebuilt")
        #: reset timestamps inside the circuit-breaker window.
        self._reset_times: deque[float] = deque()
        self._recover_proc = None
        #: metrics (surfaced by repro.analysis.recovery_stats)
        self.resets_seen = 0
        self.recoveries = 0
        self.replayed_ops = 0
        self.replay_failures = 0
        #: journaled endpoints whose replay kept failing (marked dead).
        self.endpoints_lost = 0
        self.stale_drops = 0
        self.aborted_inflight = 0
        self.queued_submits = 0
        self.rejected_submits = 0
        self.rebuild_times: list[float] = []
        #: completed live migrations (cluster layer bumps via resume()).
        self.migrations = 0
        #: guest pages zapped while re-establishing mmaps (EPT refault
        #: volume — the "remap" share of a rebuild or migration).
        self.zapped_pages = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.frontend.config.recovery_enabled

    @property
    def policy(self) -> str:
        return self.frontend.config.recovery_policy

    def translate(self, handle: int) -> int:
        """Map an original guest handle to its current backend handle."""
        return self.translation.get(handle, handle)

    def record(self, spec, handle: int, args: Optional[dict],
               result) -> None:
        """Run ``spec``'s journal hook after a successful submit."""
        if self.enabled and spec.journal is not None:
            spec.journal(self.journal, handle, args or {}, result)

    # ------------------------------------------------------------------
    # VMA bookkeeping (guest shim notifications)
    # ------------------------------------------------------------------
    def attach_vma(self, handle: int, roffset: int, vma, space) -> None:
        """Bind the guest VMA the shim built to its mmap record."""
        if not self.enabled:
            return
        rec = self.journal.endpoints.get(handle)
        if rec is None:
            return
        for mm in rec.mmaps:
            if mm.roffset == roffset and mm.vma is None:
                mm.vma = vma
                mm.space = space
                return

    def detach_vma(self, vma) -> None:
        """Forget a munmap'd VMA (its mapping is no longer replayable)."""
        if not self.enabled:
            return
        for rec in self.journal.endpoints.values():
            rec.mmaps = [mm for mm in rec.mmaps if mm.vma is not vma]

    # ------------------------------------------------------------------
    # submit-side gates
    # ------------------------------------------------------------------
    def gate(self):
        """Process: apply the degraded-mode policy to one submit."""
        if self.state == ACTIVE:
            return
        if self.state == RECOVERING and self.policy == "fail_fast":
            self.rejected_submits += 1
            raise EStaleEpoch(
                f"{self.vm.name}: session rebuilding after reset "
                f"(fail-fast recovery policy)"
            )
        if self.state == RECOVERING:
            self.queued_submits += 1
        yield from self.await_active()

    def await_active(self):
        """Process: park until the session is ACTIVE (raise if BROKEN)."""
        while self.state == RECOVERING:
            yield self.rebuilt.wait()
        if self.state == BROKEN:
            raise EStaleEpoch(
                f"{self.vm.name}: session circuit open after "
                f"{self.resets_seen} resets"
            )

    # ------------------------------------------------------------------
    # the fence + recovery orchestrator
    # ------------------------------------------------------------------
    def on_backend_invalidated(self, cause: str) -> None:
        """Backend notification (virtio config-change analog): the card
        reset or the backend restarted — every host-side endpoint this
        session held is gone.  Synchronous: fencing must land before the
        backend services anything else."""
        self.resets_seen += 1
        if not self.enabled:
            return
        self._fence_and_abort(cause)
        if self.state == BROKEN:
            return
        now = self.sim.now
        window = self.frontend.config.recovery_window
        self._reset_times.append(now)
        while self._reset_times and self._reset_times[0] <= now - window:
            self._reset_times.popleft()
        if (self.policy == "circuit_break"
                and len(self._reset_times) > self.frontend.config.recovery_max_resets):
            self.state = BROKEN
            self.rebuilt.wake_all()
            return
        if self.state != RECOVERING:
            self.state = RECOVERING
            self._recover_proc = self.sim.spawn(
                self._recover(), name=f"{self.vm.name}-vphi-recover"
            )

    def _fence_and_abort(self, cause: str) -> None:
        """Bump the epoch and abort every in-flight tag with EStaleEpoch.

        Every in-flight tag gets a *synthetic* stale response stamped
        with the new epoch — overwriting any pre-reset success already
        parked but unclaimed (its journal hook must never run: the state
        it describes died with the card).  The real (late) completions
        still carry the old epoch and are dropped at drain.
        """
        self.epoch += 1
        fe = self.frontend
        for tag, p in list(fe._inflight.items()):
            fe.responses[tag] = VPhiResponse(
                tag=tag,
                error=EStaleEpoch(
                    f"{self.vm.name}: {p.spec.op_name} fenced by {cause} "
                    f"(epoch {self.epoch})"
                ),
                epoch=self.epoch,
                op=p.req.op,
            )
            self.aborted_inflight += 1
        fe.waitq.wake_all(per_waiter_cost=fe.costs.wakeup_per_waiter)

    def _recover(self):
        """Process: settle, then replay the journal until the epoch holds."""
        t0 = self.sim.now
        while True:
            round_epoch = self.epoch
            yield self.sim.timeout(RECOVERY_SETTLE)
            try:
                yield from self._replay_all(round_epoch)
            except EStaleEpoch:
                # re-fenced mid-replay: the epoch moved underneath us;
                # start a fresh round against the newest backend state —
                # unless that fence also opened the circuit.
                if self.state == BROKEN:
                    return
                continue
            if self.epoch != round_epoch or self.state == BROKEN:
                if self.state == BROKEN:
                    return
                continue
            break
        self.state = ACTIVE
        self.recoveries += 1
        self.rebuild_times.append(self.sim.now - t0)
        self.rebuilt.wake_all(per_waiter_cost=self.frontend.costs.wakeup_per_waiter)

    def _replay_all(self, round_epoch: int):
        """Process: replay every live endpoint record, in journal order."""
        for rec in list(self.journal.endpoints.values()):
            if rec.dead:
                continue
            if self.epoch != round_epoch:
                raise EStaleEpoch(
                    f"{self.vm.name}: session fenced mid-replay"
                )
            yield from self._replay_endpoint(rec)

    def _replay_endpoint(self, rec: EndpointRecord):
        """Process: rebuild one endpoint through the normal op path.

        OPEN -> (BIND) -> (LISTEN) -> (CONNECT) -> REGISTER* -> MMAP*,
        exactly the order the topology was established in.  A step that
        keeps failing (the card-side peer never came back) marks the
        record dead: later guest ops on that handle surface typed errors
        from the backend's cleared handle table instead of hanging.
        """
        try:
            new_handle, _ = yield from self._replay_op(VPhiOp.OPEN)
            self.translation[rec.handle] = new_handle
            if rec.port is not None:
                yield from self._replay_op(
                    VPhiOp.BIND, rec.handle, {"port": rec.port}
                )
            if rec.backlog is not None:
                yield from self._replay_op(
                    VPhiOp.LISTEN, rec.handle, {"backlog": rec.backlog}
                )
            if rec.addr is not None:
                yield from self._replay_op(
                    VPhiOp.CONNECT, rec.handle, {"addr": rec.addr}
                )
            for win in list(rec.windows.values()):
                yield from self._replay_op(
                    VPhiOp.REGISTER, rec.handle,
                    {"sg": win.sg, "nbytes": win.nbytes,
                     "offset": win.offset, "prot": win.prot},
                )
            for mm in list(rec.mmaps):
                info, _ = yield from self._replay_op(
                    VPhiOp.MMAP, rec.handle,
                    {"roffset": mm.roffset, "nbytes": mm.nbytes,
                     "prot": mm.prot},
                )
                if mm.vma is not None:
                    # swap the rebuilt frame numbers in and zap the VMA:
                    # the next guest access faults through the KVM MMU
                    # into the re-registered window.
                    mm.vma.private = info
                    self.zapped_pages += self.vm.mmu.zap_vma(mm.space, mm.vma)
        except EStaleEpoch:
            raise
        except ScifError as err:
            rec.dead = True
            rec.dead_reason = err
            self.translation.pop(rec.handle, None)
            self.endpoints_lost += 1

    # ------------------------------------------------------------------
    # live migration (driven by repro.cluster.migrate.live_migrate)
    # ------------------------------------------------------------------
    #: polling grain while waiting for in-flight tags to drain.
    QUIESCE_POLL = 10e-6

    def begin_migration(self) -> None:
        """Stop admitting new work: the session enters RECOVERING.

        New submits park at the degraded-mode gate exactly as they do
        during a reset rebuild (queue policy) — from the guest's point
        of view a migration *is* a very polite card reset.  Requires an
        ACTIVE session; the migration driver awaits one first.
        """
        if not self.enabled:
            raise EStaleEpoch(
                f"{self.vm.name}: live migration needs session recovery "
                "(recovery_policy != 'none') — there is no journal to replay"
            )
        if self.state != ACTIVE:
            raise EStaleEpoch(
                f"{self.vm.name}: cannot migrate a {self.state} session"
            )
        self.state = RECOVERING

    def quiesce(self):
        """Process: drain every in-flight tag before the fence.

        With the gate closed no new tags appear; waiting for the last
        outstanding completion means the fence below aborts *nothing* —
        every op submitted before the migration finishes with its real
        result, whatever its idempotency class.  (A reset can't afford
        this courtesy; a planned migration can.)
        """
        fe = self.frontend
        while fe._inflight:
            yield self.sim.timeout(self.QUIESCE_POLL)

    def fence_migration(self, dest: str) -> None:
        """Bump the epoch so any straggler completes as stale."""
        self._fence_and_abort(f"migration to {dest}")

    def rewrite_peers(self, node_map: dict) -> int:
        """Point journaled connect addresses at the destination card.

        SCIF addressing is what makes migration a journal rewrite: the
        card a session talks to is named *only* by the ``(node, port)``
        tuples in its connect records.  Mapping the source card's node
        id to the destination's makes the very same replay machinery
        rebuild the session against the new card.
        """
        rewritten = 0
        for rec in self.journal.endpoints.values():
            if rec.addr is not None and rec.addr[0] in node_map:
                rec.addr = (node_map[rec.addr[0]], rec.addr[1])
                rewritten += 1
        return rewritten

    def replay_journal(self):
        """Process: replay the journal until the epoch holds steady.

        The migration-side twin of :meth:`_recover`'s loop (without the
        settle delay — the destination card is alive and waiting): a
        concurrent reset fencing the epoch mid-replay restarts the
        round; a circuit-break leaves the session BROKEN.
        """
        while True:
            round_epoch = self.epoch
            try:
                yield from self._replay_all(round_epoch)
            except EStaleEpoch:
                if self.state == BROKEN:
                    return
                yield self.sim.timeout(RECOVERY_SETTLE)
                continue
            if self.epoch != round_epoch:
                continue
            return

    def resume(self) -> None:
        """Reopen the gate: the session is live on the destination."""
        if self.state == BROKEN:
            return
        self.state = ACTIVE
        self.migrations += 1
        self.rebuilt.wake_all(
            per_waiter_cost=self.frontend.costs.wakeup_per_waiter
        )

    def force_broken(self, cause: str) -> None:
        """Evict the session (host failure): fence and open the circuit.

        Unlike a reset there is nothing to rebuild against — in-flight
        tags abort with EStaleEpoch, parked submitters wake into the
        BROKEN error, and every later submit fails typed and fast.
        """
        if not self.enabled:
            return
        self._fence_and_abort(cause)
        self.state = BROKEN
        self.rebuilt.wake_all()

    def _replay_op(self, op: VPhiOp, handle: int = 0,
                   args: Optional[dict] = None):
        """Process: one replayed op with bounded retries.

        Replay rides the normal request path (``_run`` with
        ``replay=True``: no admission, no policy gate — the recovery
        process itself is what makes the session active again — and no
        journal hook: the journal already holds this fact).  EStaleEpoch
        propagates (a new fence restarts the round); other errors retry
        a few times spaced by the settle delay, because the card-side
        peer may still be re-establishing its listeners and windows.
        """
        fe = self.frontend
        last: Optional[ScifError] = None
        for attempt in range(REPLAY_ATTEMPTS):
            try:
                out = yield from fe._run([BatchCall(op, handle, args)],
                                         replay=True)
            except EStaleEpoch:
                raise
            except ScifError as err:
                last = err
                yield self.sim.timeout(RECOVERY_SETTLE)
                continue
            self.replayed_ops += 1
            return out[0]
        self.replay_failures += 1
        assert last is not None
        raise last

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SessionManager {self.vm.name} state={self.state} "
            f"epoch={self.epoch} journal={self.journal.size}>"
        )
