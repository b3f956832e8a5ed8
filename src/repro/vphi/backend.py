"""The vPHI backend device: a virtual PCI device inside QEMU.

§III: "the backend is notified by the frontend when a new request has
been pushed to the virtio ring.  Then, the backend checks the shared ring
and maps the buffer to its address space avoiding again any copies ...
Afterwards, the backend performs the relevant system call to the host
SCIF driver and waits for the result.  When the system call returns, it
pushes the result in the shared ring and notifies the guest via a virtual
interrupt."

Each VM's backend is a distinct QEMU host process holding its own
``libscif`` context — "from the host driver's perspective, multiple VMs
issuing SCIF requests are essentially multiple host processes", which is
precisely what enables Xeon Phi sharing.

Per-operation semantics live in the :mod:`~repro.vphi.ops` registry; the
backend is a table-driven executor: look the spec up, charge its cost
hooks, run its handler against the host :class:`~repro.scif.NativeScif`.

Dispatch runs in one of two modes.  **Blocking** (the default, the
paper's implementation): blocking-class ops are handled inline on QEMU's
event loop with the whole VM paused; unbounded ops spawn ad-hoc worker
threads.  **Pooled** (``VPhiConfig(backend_workers=N)``): every
pool-eligible op is handed to a persistent :class:`~repro.vphi.pool.WorkerPool`
member instead, the vCPU keeps running, and at most
``VPhiConfig.max_inflight`` popped requests are in flight — excess
chains wait on the avail ring.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..analysis.calibration import VPHI_COSTS, VPhiCosts
from ..faults import ENODEV, NO_FAULTS, FaultInjector, FaultKind, FaultSite, Injection
from ..scif import Endpoint, NativeScif, Prot, RmaFlag, ScifError
from ..scif.endpoint import EpState
from ..scif.errors import EBADF, ECONNREFUSED, ENXIO, ESHUTDOWN
from ..sim import Event, Tracer
from ..virtio import VirtioDevice, VirtqueueElement
from .config import VPhiConfig
from .ops import (
    SPAN_BACKEND_POP,
    SPAN_COMPLETION_PUSH,
    SPAN_HOST_CALL,
    SPAN_RING,
    OpSpec,
    spec_for,
)
from .pool import CardArbiter, WorkerPool
from .protocol import VPhiRequest, VPhiResponse

__all__ = ["VPhiBackend"]


class VPhiBackend:
    """QEMU extension servicing one VM's vPHI traffic."""

    def __init__(
        self,
        vm,
        virtio: VirtioDevice,
        lib: NativeScif,
        host_kernel,
        config: Optional[VPhiConfig] = None,
        costs: VPhiCosts = VPHI_COSTS,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
        arbiter: Optional[CardArbiter] = None,
        device=None,
    ):
        self.vm = vm
        self.sim = vm.sim
        self.virtio = virtio
        self.lib = lib
        self.host_kernel = host_kernel
        self.config = config or VPhiConfig()
        self.costs = costs
        #: the card this backend dispatches against; its power model
        #: (when opted in) scales the fixed cost hooks with frequency.
        self.device = device
        self._power = getattr(device, "power", None)
        # default to the owning VM's tracer so frontend + backend share
        # one timeline (a fresh Tracer here would silently drop half of it)
        self.tracer = tracer or getattr(vm, "tracer", None) or Tracer()
        self.endpoints: dict[int, Endpoint] = {}
        self._handles = itertools.count(1)
        #: fault source (default: inject nothing).
        self.faults = faults or NO_FAULTS
        virtio.bind_backend(self.on_kick)
        #: requests currently being handled (drives the busy flag that
        #: notification suppression keys off).
        self.in_flight = 0
        #: metrics
        self.requests_served = 0
        self.errors_returned = 0
        self.endpoint_reopens = 0
        #: re-opens refused because the handle table did not hold them.
        self.bogus_reopens = 0
        #: dispatches whose fixed costs ran under a power-throttled clock.
        self.throttled_ops = 0
        #: per-handle re-open gates: one driver-death outage triggers one
        #: re-open even when several pooled workers hit ENODEV at once.
        self._reopening: dict[int, Event] = {}
        #: the frontend session manager's invalidation callback (the
        #: virtio config-change analog), wired by setup.  Called with a
        #: cause string whenever a card reset / backend restart destroys
        #: every host endpoint this backend held.
        self.session_listener = None
        #: metrics
        self.card_resets = 0
        self.backend_restarts = 0
        #: the worker pool (None in the paper's blocking dispatch mode).
        self.pool: Optional[WorkerPool] = None
        if self.config.pooled:
            arbiter = arbiter or CardArbiter(
                self.sim, slots=self.config.backend_workers
            )
            self.pool = WorkerPool(
                self, self.config.backend_workers, arbiter, costs=self.costs
            )
        #: declarative ``pre_cost``/``post_cost`` key tuples resolved
        #: against ``lib.costs``, per op, on first dispatch.
        self._fixed_pre: dict = {}
        self._fixed_post: dict = {}

    def _fixed_cost(self, op, keys: tuple, cache: dict) -> float:
        value = cache.get(op)
        if value is None:
            value = cache[op] = float(
                sum(getattr(self.lib.costs, k) for k in keys)
            )
        return value

    # ------------------------------------------------------------------
    # endpoint handle table (used by the registered op handlers)
    # ------------------------------------------------------------------
    def endpoint(self, handle: int) -> Endpoint:
        """Resolve a guest-visible handle to the backend's endpoint."""
        try:
            return self.endpoints[handle]
        except KeyError:
            raise EBADF(f"vphi backend: unknown endpoint handle {handle}") from None

    def new_handle(self, ep: Endpoint) -> int:
        """Intern a freshly opened/accepted endpoint, returning its handle."""
        handle = next(self._handles)
        self.endpoints[handle] = ep
        return handle

    def drop_handle(self, handle: int) -> None:
        del self.endpoints[handle]

    def on_kick(self):
        """Kick handler: drain the avail ring, post one QEMU event each."""
        self._drain()
        yield self.sim.timeout(0)

    def _drain(self) -> None:
        """Drain the avail ring in batches and dispatch; manage the busy flag.

        Two phases per pass.  **Pop**: take every eligible chain off the
        avail ring at once — bounded by the pool's in-flight window, so
        once ``max_inflight`` requests are popped-but-incomplete the rest
        stay on the ring and a retiring completion re-drains.
        **Dispatch**: classify the whole batch — with a worker pool
        armed, every pool-eligible op (per the registry's blocking class)
        goes to its pool shard in one :meth:`WorkerPool.submit_batch`
        call and the event loop never pauses the VM; the remaining
        unbounded ops keep their dedicated ad-hoc worker threads.
        Without a pool this is the paper's dispatch verbatim —
        blocking-class ops freeze the whole VM inline.

        When the last in-flight request retires and the ring is empty the
        device declares itself idle — then re-checks the ring once, in
        case a driver skipped its kick in that window (the virtio
        lost-wakeup protocol).
        """
        pool = self.pool
        ring = self.virtio.ring
        while True:
            # pop phase: everything the in-flight window allows
            batch = []
            room = (self.config.max_inflight - pool.inflight
                    if pool is not None else None)
            while room is None or len(batch) < room:
                elem = ring.pop_avail()
                if elem is None:
                    break
                batch.append(elem)
            if batch:
                self.in_flight += len(batch)
                pooled: list = []
                for elem in batch:
                    req: VPhiRequest = elem.header
                    spec = spec_for(req.op)
                    if pool is not None and spec.rides_pool:
                        pooled.append((elem, spec))
                    else:
                        blocking = (self.config.is_blocking(req.op)
                                    if pool is None else False)
                        self.vm.qemu.post_event(
                            (lambda e=elem: self.handle(e)), blocking=blocking
                        )
                if pooled:
                    pool.submit_batch(pooled)
                    self._charge_batch(pooled)
            if self.in_flight == 0:
                self.virtio.backend_idle()
                if ring.avail_pending():
                    self.virtio.backend_busy = True
                    continue
            break

    def _charge_batch(self, pooled: list) -> None:
        """Count each of a drained batch's pool submissions per op."""
        for _, spec in pooled:
            self.tracer.count(spec.pooled_key)

    def request_retired(self) -> None:
        """One request left the in-flight set; re-drain for parked work."""
        self.in_flight -= 1
        self._drain()

    # ------------------------------------------------------------------
    def handle(self, elem: VirtqueueElement):
        """Event-loop / ad-hoc-worker entry: service one request."""
        yield from self._service(elem)
        self.request_retired()

    def _service(self, elem: VirtqueueElement, worker: Optional[int] = None):
        """Process one request end-to-end and complete it on the ring.

        ``worker`` is the pool member index when a pool shard is the
        caller (``None`` on the event-loop path) — WORKER_DEATH faults
        then target that member.
        """
        req: VPhiRequest = elem.header
        spec = spec_for(req.op)
        if worker is None:
            # event-loop dispatch: the chain's ring residency ends here.
            # (Pool members close it themselves at shard pickup, before
            # the credit wait.)
            self.tracer.mark_tag(req.tag, SPAN_RING)
        # map guest buffers + dispatch overhead
        yield self.sim.timeout(self.costs.backend)
        self.tracer.mark_tag(req.tag, SPAN_BACKEND_POP)
        resp = VPhiResponse(tag=req.tag, epoch=req.epoch, op=req.op)
        try:
            # ring corruption is discovered while walking the popped
            # descriptor chain, before any host syscall is issued.
            inj = self.faults.draw(FaultSite.RING_POP,
                                   op=spec.op_name, vm=self.vm.name)
            if inj is not None:
                self.tracer.count(spec.injected_key)
                raise inj.make_error()
            inj = self.faults.draw(FaultSite.BACKEND_DISPATCH,
                                   op=spec.op_name, vm=self.vm.name)
            if inj is not None:
                yield from self._apply_dispatch_fault(spec, req, inj,
                                                      worker=worker)
            result, written = yield from self._dispatch(spec, req, elem)
            resp.result = result
            resp.written = written
        except ScifError as err:
            resp.error = err
        self.tracer.mark_tag(req.tag, SPAN_HOST_CALL)
        self._push_completion(elem, spec, resp)

    def _dispatch(self, spec: OpSpec, req: VPhiRequest, elem: VirtqueueElement):
        """Table-driven dispatch: cost hooks around the registered handler.

        Returns ``(result, written)``.
        """
        scale = 1.0
        if self._power is not None and (spec.pre_cost is not None
                                        or spec.post_cost is not None):
            scale = self._power.cost_multiplier()
            if scale != 1.0:
                # throttled dispatch: the slow op lands in the same span
                # phases, so the p99 spike is attributable in the breakdown
                self.throttled_ops += 1
        if spec.pre_cost is not None:
            yield self.sim.timeout(scale * self._fixed_cost(
                spec.op, spec.pre_cost, self._fixed_pre))
        result, written = yield from spec.handler(self, req, elem, req.args)
        if spec.post_cost is not None:
            yield self.sim.timeout(scale * self._fixed_cost(
                spec.op, spec.post_cost, self._fixed_post))
        return result, written

    # ------------------------------------------------------------------
    # fault injection & recovery (backend side)
    # ------------------------------------------------------------------
    def _apply_dispatch_fault(self, spec: OpSpec, req: VPhiRequest,
                              inj: Injection, worker: Optional[int] = None):
        """Process: play out one injected dispatch-site fault.

        Always ends by raising the injection's typed :class:`ScifError`
        (the request is completed on the ring with that error, so its
        descriptors are freed and the frontend's recovery logic decides
        between retry and fail-fast).
        """
        self.tracer.count(spec.injected_key)
        if inj.kind == FaultKind.WORKER_DEATH:
            if worker is not None and self.pool is not None:
                # a pool member died mid-request; QEMU respawns it in
                # place (same shard, same queue) and completes the orphan
                # with ECONNRESET so the ring descriptors aren't leaked.
                self.pool.note_death(worker)
                yield self.sim.timeout(inj.spec.outage)
                yield self.sim.timeout(self.costs.worker_spawn)
            else:
                # the ad-hoc worker servicing this request dies; QEMU
                # notices after the respawn delay and completes the
                # orphan with ECONNRESET so the ring descriptors are
                # never leaked.
                yield self.sim.timeout(inj.spec.outage)
        elif inj.kind == FaultKind.CARD_RESET:
            # a card reset is machine-wide: every VM sharing the card
            # loses its host-side endpoints, and every in-flight pooled
            # request anywhere is aborted with ENXIO (descriptors freed).
            # The broadcast runs *before* the outage so each session is
            # fenced the instant the card goes away, not after it is
            # already back.
            for be in (self.faults.backends or [self]):
                be.on_card_reset(
                    inj, origin_worker=worker if be is self else None
                )
            yield self.sim.timeout(inj.spec.outage)
        elif inj.kind == FaultKind.BACKEND_RESTART:
            # only *this* VM's QEMU process restarts: its host endpoints
            # die with ESHUTDOWN, its pool aborts, its session rebuilds —
            # other VMs sharing the card are untouched.
            self.on_backend_restart(inj, origin_worker=worker)
            yield self.sim.timeout(inj.spec.outage)
        err = inj.make_error()
        if isinstance(err, ENODEV) and spec.wants_endpoint:
            # the host driver dropped our descriptor: re-open it so the
            # guest-visible handle works again when the frontend retries.
            # Endpoint-less ops (open/get_node_ids/sysfs) have no
            # descriptor to restore — handle 0 is not a real handle.
            yield from self.reopen_endpoint(req.handle)
        raise err

    def reopen_endpoint(self, handle: int):
        """Process: restore the backend's descriptor after driver death.

        An injected ENODEV means the host SCIF driver revoked the
        backend's open descriptor; QEMU re-opens the device node as a
        *fresh* :class:`Endpoint` carrying over the surviving kernel
        state, so the guest-visible handle stays valid and the
        frontend's retry of an idempotent op can succeed.

        Concurrent callers (several pooled workers hitting ENODEV from
        the same driver-death outage) are collapsed through a per-handle
        gate: the first caller performs the re-open, the rest wait for
        it — one outage, one re-open, one fresh descriptor.
        """
        if handle not in self.endpoints:
            # a re-open for a handle the table does not hold is a bogus
            # recovery (stale handle, double-reopen after a reset
            # cleared the table): surface it instead of swallowing it —
            # a silently "recovered" dead handle would fail much later,
            # far from the cause.
            self.bogus_reopens += 1
            raise EBADF(
                f"vphi backend: re-open of unknown endpoint handle {handle}"
            )
        pending = self._reopening.get(handle)
        if pending is not None:
            # another worker is already re-opening this handle; wait for
            # its fresh descriptor rather than racing a second re-open.
            if not pending.triggered:
                yield pending
            return
        gate = self.sim.event(name=f"{self.vm.name}-reopen-{handle}")
        self._reopening[handle] = gate
        try:
            yield self.sim.timeout(self.lib.costs.syscall)
            self._swap_endpoint(handle)
            self.endpoint_reopens += 1
        finally:
            del self._reopening[handle]
            gate.succeed()

    def _swap_endpoint(self, handle: int) -> None:
        """Replace a revoked descriptor with a fresh :class:`Endpoint`.

        The re-opened descriptor must be a *new* object: reusing the old
        one would let a handle that was concurrently connected elsewhere
        alias a live peer (the dead descriptor's ``peer`` pointer still
        reaches the peer's receive queue).  The fresh endpoint adopts
        the surviving kernel state — connection, receive queue, windows,
        RMA fences — and the wait queues move wholesale so parked
        recv/poll/fence waiters wake on the survivor instead of
        stranding on the dead object.
        """
        old = self.endpoints[handle]
        new = Endpoint(old.sim, old.node, owner=old.owner)
        new.state = old.state
        new.port = old.port
        new.peer_addr = old.peer_addr
        new.peer_closed = old.peer_closed
        new._rx = old._rx
        new.rx_bytes = old.rx_bytes
        new.backlog = old.backlog
        new.windows = old.windows
        new.rma_last_issued = old.rma_last_issued
        new.rma_outstanding = old.rma_outstanding
        new.bytes_sent = old.bytes_sent
        new.bytes_received = old.bytes_received
        new.recv_wait = old.recv_wait
        new.poll_wait = old.poll_wait
        new.fence_wait = old.fence_wait
        peer = old.peer
        new.peer = peer
        if peer is not None and peer.peer is old:
            peer.peer = new
        # detach the dead descriptor so nothing can reach it again
        old.peer = None
        old.peer_closed = True
        old.state = EpState.CLOSED
        self.endpoints[handle] = new

    # ------------------------------------------------------------------
    # machine-wide card reset / per-VM backend restart
    # ------------------------------------------------------------------
    def on_card_reset(self, inj: Injection,
                      origin_worker: Optional[int] = None) -> None:
        """The card reset underneath this backend: all host state is gone.

        Synchronous (no sim time passes): the endpoint table is severed
        and cleared, every in-flight pooled request is aborted with
        ENXIO — each completed on the ring so its descriptors are freed
        — and the frontend's session manager is notified so it can fence
        the epoch before anything else is serviced.  ``origin_worker``
        is the pool member already raising the injected error for the
        triggering request (interrupting it too would double-complete).
        """
        self.card_resets += 1
        self._invalidate(inj, "card_reset",
                         lambda: ENXIO(
                             f"card reset aborted in-flight request "
                             f"(injected at {inj.time:g}s)"),
                         origin_worker)

    def on_backend_restart(self, inj: Injection,
                           origin_worker: Optional[int] = None) -> None:
        """This VM's QEMU process restarted: its host endpoints are gone."""
        self.backend_restarts += 1
        self._invalidate(inj, "backend_restart",
                         lambda: ESHUTDOWN(
                             f"backend restart aborted in-flight request "
                             f"(injected at {inj.time:g}s)"),
                         origin_worker)

    def _invalidate(self, inj: Injection, cause: str, err_factory,
                    origin_worker: Optional[int]) -> None:
        for ep in list(self.endpoints.values()):
            self._sever_endpoint(ep)
        self.endpoints.clear()
        self._reopening.clear()
        if self.pool is not None:
            self.pool.abort_inflight(err_factory, skip=origin_worker)
        if self.session_listener is not None:
            self.session_listener(cause)

    def _sever_endpoint(self, ep: Endpoint) -> None:
        """Kill one host endpoint in place (the card-side state is gone).

        Synchronous analog of :meth:`NativeScif.close` without syscall
        cost — the reset, not a guest call, is destroying the state:
        parked dialers are refused, the peer sees the connection die
        immediately, the port and windows are released, and every parked
        recv/poll/fence waiter wakes to find a dead socket.
        """
        if ep.state is EpState.CLOSED:
            return
        if ep.state is EpState.LISTENING and ep.backlog is not None:
            while True:
                ok, creq = ep.backlog.try_get()
                if not ok:
                    break
                if not creq.reply.triggered:
                    creq.reply.fail(
                        ECONNREFUSED("listener lost to card reset")
                    )
            ep.backlog.close()
        peer = ep.peer
        if ep.state is EpState.CONNECTED and peer is not None:
            peer.mark_peer_closed()
        if ep.port is not None and ep.node.ports.get(ep.port) is ep:
            ep.node.release_port(ep.port)
        ep.windows.clear()
        ep.peer_closed = True
        ep.state = EpState.CLOSED
        ep.recv_wait.wake_all()
        ep.poll_wait.wake_all()
        ep.fence_wait.wake_all()

    def complete_with_error(self, elem: VirtqueueElement, err: ScifError) -> None:
        """Complete one aborted request on the ring with ``err``.

        Used by the pool's abort path for requests whose member was
        interrupted (or whose chain was still queued) when the card
        reset: the response echoes the request's tag/epoch/op so the
        frontend can correlate — and, post-fence, drop — it, and pushing
        it frees the chain's descriptors.
        """
        req: VPhiRequest = elem.header
        self._push_completion(elem, spec_for(req.op), VPhiResponse(
            tag=req.tag, error=err, epoch=req.epoch, op=req.op))

    def _push_completion(self, elem: VirtqueueElement, spec: OpSpec,
                         resp: VPhiResponse) -> None:
        """Count one served request, write its response record into the
        shared chain header, and raise the completion interrupt."""
        if resp.error is not None:
            self.errors_returned += 1
            self.tracer.count(spec.error_key)
        self.requests_served += 1
        self.tracer.count(spec.served_key)
        self.virtio.ring.push_used(elem, written=resp.written, header=resp)
        self.tracer.mark_tag(resp.tag, SPAN_COMPLETION_PUSH)
        self.virtio.inject_irq()

    # ------------------------------------------------------------------
    # guest buffer access (zero copy: descriptors are guest-physical)
    # ------------------------------------------------------------------
    def out_payload(self, elem: VirtqueueElement) -> list[np.ndarray]:
        """The guest->host bulk payload riding the chain, as views of the
        guest's bounce chunks, in order.

        The views alias guest RAM, so they must be consumed before any
        simulated time passes: ``NativeScif.send`` snapshots them before
        its first yield, after which the guest may free and reuse the
        frames.
        """
        # elem.out[0] is the serialized request header; data follows.
        return [view
                for desc in elem.out[1:]
                for e in self.vm.gpa_sg(desc.addr, desc.len)
                for _, view in e.mem.iter_views(e.paddr, e.nbytes)]

    def scatter_in(self, elem: VirtqueueElement, data: np.ndarray) -> int:
        """Scatter a host->guest payload into the chain's in descriptors."""
        off = 0
        for desc in elem.inb:
            if off >= len(data):
                break
            take = min(desc.len, len(data) - off)
            for e in self.vm.gpa_sg(desc.addr, take):
                e.mem.write(e.paddr, data[off : off + e.nbytes])
                off += e.nbytes
        return off

    # ------------------------------------------------------------------
    # RMA helpers shared by the registered readfrom/writeto handlers
    # (fixed syscall/completion costs are the ops' pre/post cost hooks)
    # ------------------------------------------------------------------
    def window_rma(self, req: VPhiRequest, direction: str):
        """Window-to-window RMA: both sides pinned, DMA direct (no bounce)."""
        a = req.args
        ep = self.endpoint(req.handle)
        want = Prot.SCIF_PROT_WRITE if direction == "read" else Prot.SCIF_PROT_READ
        local_sg = ep.windows.resolve(a["loffset"], a["nbytes"], want)
        n = yield from self.lib.rma_sg(
            ep, local_sg, a["nbytes"], a["roffset"], direction,
            RmaFlag(a.get("flags", 0)),
        )
        return n

    def chunked_rma(self, req: VPhiRequest, elem: VirtqueueElement, direction: str):
        """Per-chunk RMA between the remote window and the bounce chunks.

        One backend submission cost per KMALLOC element; the DMA engine
        charges its own setup + link occupancy per chunk.
        """
        ep = self.endpoint(req.handle)
        descs = elem.inb if direction == "read" else elem.out[1:]
        roffset = req.args["roffset"]
        flags = RmaFlag(req.args.get("flags", 0))
        moved = 0
        for desc in descs:
            yield self.sim.timeout(self.costs.per_chunk)
            local_sg = self.vm.gpa_sg(desc.addr, desc.len)
            yield from self.lib.rma_sg(ep, local_sg, desc.len, roffset + moved,
                                       direction, flags)
            moved += desc.len
        return moved

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VPhiBackend {self.vm.name} served={self.requests_served}>"
