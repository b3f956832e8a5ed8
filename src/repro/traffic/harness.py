"""The open-loop load harness: drive a :class:`TrafficPlan` end-to-end.

One machine, one shared card, one tenant VM per expanded tenant spec.
Each tenant gets a card-side peer (accept + registered window, the A10
server shape) and an open-loop *pacer* process: arrivals come from the
tenant's seeded arrival process, and every arrival spawns an independent
one-request guest process immediately — never waiting for earlier
requests, which is the whole point of open-loop load.  Back-pressure
therefore shows up the only way it can: as typed EBUSY sheds from
admission control (counted), not as silently throttled offered load.

The harness's conservation invariant — pinned by a Hypothesis property
in the test suite — is that **every offered arrival gets exactly one
typed outcome**: completed, shed (EBUSY), or errored (any other
ScifError).  ``HarnessResult.check_conservation`` asserts it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..scif.errors import EBUSY, ScifError
from ..system import Machine
from ..vphi import VPhiConfig
from ..vphi.pool import CardArbiter
from .plan import TenantSpec, TrafficPlan

__all__ = ["TenantLoad", "HarnessResult", "run_plan"]

MB = 1 << 20
PORT_BASE = 27_000
#: guest RAM per tenant VM — lazy chunk-backed, so hundreds of tenants
#: fit the 64 GB host budget.
TENANT_RAM = 64 * MB


@dataclass
class TenantLoad:
    """One tenant's live counters (mutated by its request processes)."""

    spec: TenantSpec
    vm: object = None
    #: arrivals the pacer emitted (open-loop offered load).
    offered: int = 0
    #: typed outcomes — the three disjoint fates of an arrival.
    completed: int = 0
    shed: int = 0
    errors: int = 0
    bytes_done: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def settled(self) -> int:
        return self.completed + self.shed + self.errors


@dataclass
class HarnessResult:
    """Everything a plan run produced, ready for the analysis layer."""

    plan: TrafficPlan
    machine: Machine
    loads: list[TenantLoad]
    #: simulated time the measurement window opened (all tenants ready).
    t_start: float = 0.0
    #: simulated time the last completion landed.
    t_end: float = 0.0
    #: the Cluster the plan ran on (None for single-machine plans).
    cluster: object = None

    @property
    def duration(self) -> float:
        return self.plan.duration

    def arbiters(self) -> list[CardArbiter]:
        """Every card arbiter the run dispatched through."""
        machines = (self.cluster.machines if self.cluster is not None
                    else [self.machine])
        return [arb for m in machines for arb in m.card_arbiters.values()]

    def check_conservation(self) -> None:
        """Every offered arrival got exactly one typed outcome."""
        for load in self.loads:
            if load.offered != load.settled:
                raise AssertionError(
                    f"tenant {load.name!r} stranded "
                    f"{load.offered - load.settled} of {load.offered} "
                    f"arrivals (completed={load.completed} "
                    f"shed={load.shed} errors={load.errors})"
                )
        for arb in self.arbiters():
            if arb.free != arb.slots:
                raise AssertionError(
                    f"{arb.name} leaked credits: "
                    f"free={arb.free} slots={arb.slots}"
                )


def _spawn_peer(machine, port: int, window: int, card: int = 0):
    """Card-side peer: accept one tenant, register a read/write window.

    Fulfils ``ready`` with the registered offset; sends from the tenant
    land in the endpoint's rx FIFO (no drain loop needed — SCIF sends
    complete on enqueue + ack, exactly like the A10 server shape).
    """
    sproc = machine.card_process(f"qos-peer-{port}", card=card)
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(window, populate=True)
        roff = yield from slib.register(conn, vma.start, window)
        ready.succeed(roff)

    machine.sim.spawn(server())
    return ready


def _one_request(lib, ep, vma, roff, kind: str, nbytes: int, payload,
                 load: TenantLoad):
    """One open-loop request: submit, classify the typed outcome."""
    try:
        if kind == "send":
            yield from lib.send(ep, payload[:nbytes])
        elif kind == "rma_read":
            yield from lib.vreadfrom(ep, vma.start, nbytes, roff)
        else:  # rma_write
            yield from lib.vwriteto(ep, vma.start, nbytes, roff)
    except EBUSY:
        load.shed += 1
        return
    except ScifError:
        load.errors += 1
        return
    load.completed += 1
    load.bytes_done += nbytes


def _tenant(machine, vm, spec: TenantSpec, port: int, ready, gate,
            seed: int, duration: float, load: TenantLoad,
            node: Optional[int] = None):
    """Connection setup, then the open-loop pacer."""
    gproc = vm.guest_process(f"{spec.name}-load")
    lib = vm.vphi.libscif(gproc)
    sim = machine.sim
    window = max(spec.mix.max_nbytes, 4096)
    payload = np.zeros(max(n for k, n, _ in spec.mix.items if k == "send")
                       if any(k == "send" for k, _, _ in spec.mix.items)
                       else 1, dtype=np.uint8)
    peer_node = machine.card_node_id(0) if node is None else node

    def pacer():
        ep = yield from lib.open()
        yield from lib.connect(ep, (peer_node, port))
        roff = yield ready
        vma = gproc.address_space.mmap(window, populate=True)
        gate.arrive()
        yield gate.open
        t_start = sim.now
        mix_rng = random.Random(seed ^ 0x9E3779B9)
        for t in spec.arrivals.times(seed, duration):
            due = t_start + t
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            kind, nbytes = spec.mix.draw(mix_rng)
            load.offered += 1
            # open-loop: the request rides its own process; the pacer
            # never waits for it
            vm.spawn_guest(_one_request(lib, ep, vma, roff, kind, nbytes,
                                        payload, load))

    return vm.spawn_guest(pacer())


class _Gate:
    """Count-down barrier: opens once every tenant finished setup, so
    all pacers measure the same window."""

    def __init__(self, sim, n: int):
        self.sim = sim
        self.open = sim.event(name="qos-gate")
        self._left = n

    def arrive(self) -> None:
        self._left -= 1
        if self._left == 0:
            self.open.succeed(self.sim.now)


def run_plan(plan: TrafficPlan, machine: Optional[Machine] = None,
             cluster=None) -> HarnessResult:
    """Stand up the machine, drive the plan, return the result.

    Deterministic in ``plan.seed``: tenant ``i`` draws its arrival and
    mix streams from ``seed * 1_000_003 + i``, so two runs of the same
    plan produce identical traces (the chaos harness replays failures
    by seed alone).

    A plan whose :attr:`~repro.traffic.plan.TrafficPlan.is_cluster` is
    true (or an explicit ``cluster=``) runs on a
    :class:`~repro.cluster.Cluster` instead: tenants placed across
    cards by the plan's placement policy, each dispatching through its
    own card's arbiter.  The single-machine path below is untouched by
    the cluster fields, so existing plans produce identical traces.
    """
    if cluster is not None or plan.is_cluster:
        return _run_cluster_plan(plan, cluster)
    if machine is None:
        machine = Machine(cards=1).boot()
    tenants = plan.expanded()
    # pre-create the shared arbiter so the plan's slots and policy apply
    # from the first install
    machine.arbiter_for(0, slots=plan.slots, policy=plan.policy)
    gate = _Gate(machine.sim, len(tenants))
    loads: list[TenantLoad] = []
    pacers = []
    for i, spec in enumerate(tenants):
        cfg = VPhiConfig(
            backend_workers=plan.backend_workers,
            max_inflight=plan.max_inflight,
            qos_share=spec.share,
            qos_priority=spec.priority,
            admit_queue_depth=plan.admit_queue_depth,
        )
        vm = machine.create_vm(spec.name, ram_bytes=TENANT_RAM,
                               vphi_config=cfg)
        port = PORT_BASE + i
        window = max(spec.mix.max_nbytes, 4096)
        ready = _spawn_peer(machine, port, window)
        load = TenantLoad(spec=spec, vm=vm)
        loads.append(load)
        seed = plan.seed * 1_000_003 + i
        pacers.append(_tenant(machine, vm, spec, port, ready, gate, seed,
                              plan.duration, load))
    machine.run()
    for pacer, load in zip(pacers, loads):
        if not pacer.triggered:
            raise AssertionError(f"tenant {load.name!r} pacer deadlocked")
    result = HarnessResult(
        plan=plan, machine=machine, loads=loads,
        t_start=gate.open.value if gate.open.triggered else 0.0,
        t_end=machine.sim.now,
    )
    return result


def _run_cluster_plan(plan: TrafficPlan, cluster=None) -> HarnessResult:
    """The cluster flavour of :func:`run_plan`.

    Tenants are placed onto cards by the cluster's scheduler; each gets
    a peer on *its own* card (connect addresses resolve through
    :meth:`Cluster.node_of`), and dispatches through that card's
    arbiter under the plan's policy.  Conservation then quantifies over
    every card arbiter the run touched.
    """
    from ..cluster import Cluster

    if cluster is None:
        cluster = Cluster(hosts=plan.hosts,
                          cards_per_host=plan.cards_per_host,
                          placement=plan.placement)
        cluster.boot()
    # pre-create every card arbiter at the plan's slot count + policy
    for ref in cluster.cards:
        cluster.machine(ref).arbiter_for(ref.card, slots=plan.slots,
                                         policy=plan.policy)
    tenants = plan.expanded()
    gate = _Gate(cluster.sim, len(tenants))
    loads: list[TenantLoad] = []
    pacers = []
    for i, spec in enumerate(tenants):
        cfg = VPhiConfig(
            backend_workers=plan.backend_workers,
            max_inflight=plan.max_inflight,
            qos_share=spec.share,
            qos_priority=spec.priority,
            admit_queue_depth=plan.admit_queue_depth,
        )
        vm = cluster.create_vm(spec.name, ram_bytes=TENANT_RAM,
                               vphi_config=cfg)
        ref = cluster.placement_of(spec.name)
        machine = cluster.machine(ref)
        port = PORT_BASE + i
        window = max(spec.mix.max_nbytes, 4096)
        ready = _spawn_peer(machine, port, window, card=ref.card)
        load = TenantLoad(spec=spec, vm=vm)
        loads.append(load)
        seed = plan.seed * 1_000_003 + i
        pacers.append(_tenant(machine, vm, spec, port, ready, gate, seed,
                              plan.duration, load,
                              node=cluster.node_of(ref)))
    cluster.run()
    for pacer, load in zip(pacers, loads):
        if not pacer.triggered:
            raise AssertionError(f"tenant {load.name!r} pacer deadlocked")
    return HarnessResult(
        plan=plan, machine=cluster.machines[0], loads=loads,
        t_start=gate.open.value if gate.open.triggered else 0.0,
        t_end=cluster.sim.now,
        cluster=cluster,
    )
