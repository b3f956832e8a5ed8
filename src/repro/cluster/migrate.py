"""Journal-replay live migration: move a vPHI session between cards.

The insight carried over from PR 4: a vPHI session's card-side state is
fully described by its :class:`~repro.vphi.session.SessionJournal`, and
the card it talks to is named *only* by the ``(node, port)`` tuples in
its journaled connect records.  Migration is therefore a journal rewrite
plus the very replay machinery recovery already trusts:

1. **prepare** — guest RAM pre-copies over the inter-host fabric while
   the VM keeps running (cross-host moves only; zero downtime share).
2. **fence** — the session gate closes (new submits park exactly as
   they do during a reset rebuild), in-flight tags drain to their real
   completions, then the epoch bumps so any straggler completes stale.
   Draining first is what a *planned* move can afford that a reset
   cannot: no op submitted before the migration is ever aborted, so
   results are byte-identical to a never-migrated run for every
   idempotency class.
3. **transfer** — the journal ships to the destination host (or through
   host memory for an intra-host move), the journaled peer addresses
   are rewritten to the destination card's node id, and the backend is
   retargeted (arbiter re-registration always; a fresh backend +
   libscif context on the destination machine for cross-host moves).
4. **replay** — :meth:`SessionManager.replay_journal` rebuilds every
   endpoint/window/mmap against the destination card through the normal
   submit path (handle translation updates as it goes).
5. **remap** — the EPT work: replay swapped fresh PFN info into each
   mmap'd VMA and zapped it via :meth:`~repro.kvm.fault.KvmMmu.zap_vma`;
   this phase charges the invalidation cost per zapped page (the next
   guest touch refaults into the new frames).
6. **activate** — scheduler/placement bookkeeping flips, the session
   resumes, parked submitters wake into the new epoch.

Downtime = fence→activate (everything but the pre-copy).  Each phase is
stamped on a PR 5 span and totalled in the returned
:class:`MigrationReport`.

Modeling note: guest RAM physically stays in the source host's carve —
the simulator's memory objects are addresses, not locality — so the
pre-copy charges the fabric time a real move would but no pages change
owner.  What *does* move is everything the paper's split driver cares
about: the SCIF endpoints, windows, and mmap frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..scif import NativeScif
from ..sim import SimError
from ..vphi.backend import VPhiBackend
from .topology import CardRef

__all__ = [
    "JOURNAL_RECORD_BYTES",
    "MIGRATION_PHASES",
    "MigrationReport",
    "live_migrate",
]

#: wire size of one journaled fact (header + SG descriptor + coords).
JOURNAL_RECORD_BYTES = 64

#: EPT invalidation cost per zapped guest page (IPI + TLB shootdown).
ZAP_COST_PER_PAGE = 0.2e-6

#: the migration state machine, in order.
MIGRATION_PHASES = ("prepare", "fence", "transfer", "replay", "remap",
                    "activate")


@dataclass
class MigrationReport:
    """One live migration's per-phase accounting."""

    vm: str
    source: CardRef
    dest: CardRef
    started: float
    journal_size: int
    phases: dict = field(default_factory=dict)
    replayed_ops: int = 0
    pages_zapped: int = 0
    #: the session broke (circuit/churn) before activation completed.
    broken: bool = False

    @property
    def downtime(self) -> float:
        """Guest-visible stall: every phase except the live pre-copy."""
        return sum(t for p, t in self.phases.items() if p != "prepare")

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    @property
    def cross_host(self) -> bool:
        return self.source.host != self.dest.host

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MigrationReport {self.vm} {self.source}->{self.dest} "
            f"ops={self.replayed_ops} downtime={self.downtime:.6f}s>"
        )


def live_migrate(cluster, vm, dest: CardRef, precopy: bool = True):
    """Process: migrate ``vm``'s vPHI session to ``dest``, live.

    Returns the :class:`MigrationReport`.  Raises
    :class:`~repro.scif.errors.EStaleEpoch` if the session is BROKEN
    before the move starts, and :class:`~repro.sim.SimError` for
    topology mistakes (no such card, migrating onto the same card).
    Requires session recovery armed (``recovery_policy != "none"``) —
    without a journal there is nothing to move.
    """
    sim = cluster.sim
    name = vm.name
    src = cluster.placement_of(name)
    if dest == src:
        raise SimError(f"{name}: migration source and destination are both {dest}")
    if dest not in cluster.scheduler.loads:
        raise SimError(f"no such card {dest} in this cluster")
    if dest in cluster.scheduler.offline or dest.host in cluster.failed_hosts:
        raise SimError(f"cannot migrate {name!r} onto offline card {dest}")
    inst = vm.vphi
    ses = inst.frontend.session
    span = vm.tracer.new_span("vphi.migrate", vm=name)
    report = MigrationReport(
        vm=name, source=src, dest=dest, started=sim.now,
        journal_size=ses.journal.size,
    )

    # an in-progress reset rebuild finishes first (raises if BROKEN)
    yield from ses.await_active()

    # 1. prepare: RAM pre-copy rides the fabric while the VM runs
    t = sim.now
    if report.cross_host and precopy:
        yield from cluster.fabric.transfer(src.host, dest.host, vm.ram.size)
    report.phases["prepare"] = sim.now - t
    vm.tracer.mark(span, "prepare")

    # 2. fence: close the gate, drain in-flight work, bump the epoch
    t = sim.now
    ses.begin_migration()
    yield from ses.quiesce()
    ses.fence_migration(str(dest))
    report.phases["fence"] = sim.now - t
    vm.tracer.mark(span, "fence")

    # 3. transfer: ship the journal, rewrite peers, retarget the backend
    t = sim.now
    nbytes = ses.journal.size * JOURNAL_RECORD_BYTES
    if report.cross_host:
        yield from cluster.fabric.transfer(src.host, dest.host, nbytes)
    elif nbytes:
        host = cluster.machines[src.host]
        yield sim.timeout(nbytes / host.host_params.memcpy_bandwidth)
    ses.rewrite_peers({cluster.node_of(src): cluster.node_of(dest)})
    _retarget_backend(cluster, vm, src, dest)
    report.phases["transfer"] = sim.now - t
    vm.tracer.mark(span, "transfer")

    # 4. replay: rebuild the session against the destination card
    t = sim.now
    ops0, zap0 = ses.replayed_ops, ses.zapped_pages
    yield from ses.replay_journal()
    report.replayed_ops = ses.replayed_ops - ops0
    report.phases["replay"] = sim.now - t
    vm.tracer.mark(span, "replay")

    # 5. remap: charge the EPT invalidation for the re-established mmaps
    t = sim.now
    report.pages_zapped = ses.zapped_pages - zap0
    if report.pages_zapped:
        yield sim.timeout(report.pages_zapped * ZAP_COST_PER_PAGE)
    report.phases["remap"] = sim.now - t
    vm.tracer.mark(span, "remap")

    # 6. activate: flip the bookkeeping, reopen the gate
    t = sim.now
    inst.card = dest.card
    cluster.scheduler.move(name, dest)
    cluster.placements[name] = dest
    ses.resume()
    report.phases["activate"] = sim.now - t
    report.broken = ses.state != "active"
    vm.tracer.mark(span, "activate")
    vm.tracer.end_span(span, "error" if report.broken else "ok")

    cluster.migrations.append(report)
    return report


def _retarget_backend(cluster, vm, src: CardRef, dest: CardRef) -> None:
    """Point the VM's backend machinery at the destination card.

    Intra-host: the backend and its libscif context stay (the SCIF
    fabric reaches every card on the host) — only the dispatch credits
    move: the VM deregisters from the source card's arbiter (dropping
    its wfq virtual-clock state — a migrated VM must not carry stale
    start tags) and joins the destination card's as a fresh tenant.

    Cross-host: the old QEMU backend cannot reach the destination
    fabric, so a fresh backend + :class:`~repro.scif.NativeScif` context
    is built on the destination machine and bound to the same virtio
    device (rebinding swaps the kick handler atomically); the old
    backend's endpoints are severed, its pool drained shut, and it is
    detached from the source injector's broadcast list.
    """
    inst = vm.vphi
    cfg = inst.config
    src_m = cluster.machines[src.host]
    dest_m = cluster.machines[dest.host]

    if src.host == dest.host:
        # power-aware cost scaling must follow the VM to the new card
        dev = dest_m.devices[dest.card]
        inst.backend.device = dev
        inst.backend._power = getattr(dev, "power", None)
        if inst.backend.pool is not None:
            old_arb = src_m.arbiter_for(src.card)
            new_arb = dest_m.arbiter_for(dest.card)
            if old_arb is not new_arb:
                old_arb.deregister(vm.name)
                new_arb.configure(vm.name, weight=cfg.qos_share,
                                  priority=cfg.qos_priority)
                inst.backend.pool.arbiter = new_arb
        return

    old = inst.backend
    for ep in list(old.endpoints.values()):
        old._sever_endpoint(ep)
    old.endpoints.clear()
    if old.pool is not None:
        old.pool.shutdown()
        src_m.arbiter_for(src.card).deregister(vm.name)
    src_m.faults.detach_backend(old)
    old.session_listener = None

    lib = NativeScif(
        dest_m.fabric, dest_m.kernel.scif_node, vm.qemu_process,
        host_params=dest_m.host_params,
    )
    arbiter = dest_m.arbiter_for(dest.card) if cfg.pooled else None
    if arbiter is not None:
        arbiter.configure(vm.name, weight=cfg.qos_share,
                          priority=cfg.qos_priority)
    backend = VPhiBackend(
        vm, inst.virtio, lib, dest_m.kernel, config=cfg, tracer=vm.tracer,
        faults=dest_m.faults, arbiter=arbiter,
        device=dest_m.devices[dest.card],
    )
    # Continue the old backend's handle sequence: guest-visible handle
    # numbers from before the move must never be re-issued, or a fresh
    # open could collide with a stale session-translation entry and
    # alias a replayed endpoint.  (A card reset keeps the backend object
    # — and this counter — alive, so only the rebuild path needs it.)
    backend._handles = old._handles
    dest_m.faults.attach_backend(backend)
    backend.session_listener = inst.frontend.session.on_backend_invalidated
    inst.backend = backend
    # the guest's mic sysfs now mirrors the destination host's tree
    for path, _ in dest_m.kernel.sysfs.walk():
        vm.guest_kernel.sysfs.publish(
            path, (lambda p=path, m=dest_m: m.kernel.sysfs.read(p))
        )
