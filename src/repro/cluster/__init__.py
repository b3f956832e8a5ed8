"""Cluster scale-out: N hosts × M cards, placement, live migration.

The paper virtualizes one Phi card behind one host.  This package
generalizes the machine model to a *cluster*:

* :class:`~repro.cluster.topology.Cluster` — N :class:`~repro.system.Machine`\\ s
  sharing one deterministic simulator, stitched together by an
  :class:`~repro.cluster.topology.InterHostFabric` whose per-hop
  latency/bandwidth rides the same cost machinery as the PCIe links.
* :class:`~repro.cluster.place.PlacementScheduler` — bin-packing of VMs
  onto cards by ``qos_share`` under ``spread``/``pack`` policies, which
  also pick live-migration targets.
* :func:`~repro.cluster.migrate.live_migrate` — journal-replay live
  migration: fence the source epoch, ship the
  :class:`~repro.vphi.session.SessionJournal`, replay it against the
  destination card through the normal submit path, re-mmap via
  :meth:`~repro.kvm.fault.KvmMmu.zap_vma`, reopen the gate — downtime
  measured per phase.
* Churn — card hot-plug/hot-unplug and host failure — as first-class
  events audited through each machine's
  :class:`~repro.faults.FaultInjector`.
"""

from .migrate import (
    JOURNAL_RECORD_BYTES,
    MIGRATION_PHASES,
    MigrationReport,
    live_migrate,
)
from .place import PlacementScheduler
from .topology import CardRef, Cluster, InterHostFabric

__all__ = [
    "CardRef",
    "Cluster",
    "InterHostFabric",
    "JOURNAL_RECORD_BYTES",
    "MIGRATION_PHASES",
    "MigrationReport",
    "PlacementScheduler",
    "live_migrate",
]
