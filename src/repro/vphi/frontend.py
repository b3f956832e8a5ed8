"""The vPHI frontend driver: the guest kernel module.

§III: "the driver acts as a 'glue' between virtualization-unaware libscif
and the rest of the stack by forwarding the operations requested to [the]
vPHI backend device through virtio communication channels.  Among its
duties, the frontend driver multiplexes requests and orchestrates the
user space threads or processes that are waiting for a response from the
coprocessor."

Per request it: copies user data into kmalloc'd bounce chunks, posts the
chunk references on the virtio ring, kicks the backend, and parks the
caller on the configured wait scheme until the completion interrupt.

Two kinds of copy are kept apart.  *Modelled* copies are the paper's:
the user<->kernel copies into and out of the bounce chunks (§III/Fig 3
steps 3i/3ii), the only copies on the whole path, each charged
simulated time at host memcpy bandwidth.  *Host* copies are the
simulator's own bookkeeping and are charged nothing: the backend reads
the chunks through views of guest RAM, and ``NativeScif.send`` takes one
snapshot of the message before any simulated time passes, so a guest
``scif_send`` costs the host two copies per byte (the modelled copy-in
and that snapshot), and the card receives the snapshot itself.

Requests are described by the :mod:`~repro.vphi.ops` registry (marshal
rules, trace keys).  Single, batched, segmented and replayed submits all
run through one loop, :meth:`VPhiFrontend._run`, which posts several
requests back-to-back with a single kick (ablation A8 quantifies the
saving of batching; A3 that of segmenting an oversized transfer).

Fault recovery: every completion goes through :meth:`_complete`, which
arms a per-op watchdog (from the op's blocking class — blocking ops have
bounded completion time, so a stall means the backend worker died) and,
on a transient fault (injected link flap, host ECONNRESET/ENODEV, ring
corruption, card reset, or the watchdog itself), retries *idempotent*
ops with bounded exponential backoff while non-idempotent ops fail fast
with the typed :class:`~repro.scif.ScifError`.  Retries re-post the same
bounce chunks under a fresh tag; abandoned (timed-out) tags are dropped
when their late response eventually drains.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from ..analysis.calibration import HOST, VPHI_COSTS, HostParams, VPhiCosts
from ..faults import NO_FAULTS, FaultInjector, FaultSite, is_transient
from ..scif.errors import ETIMEDOUT, EStaleEpoch, ScifError
from ..sim import SimError, Simulator, Tracer, WaitQueue
from ..virtio import VirtioDevice
from .chunking import BounceBuffers
from .config import VPhiConfig
from .ops import (
    SPAN_COPY_IN,
    SPAN_COPY_OUT,
    SPAN_GUEST_RETURN,
    SPAN_GUEST_WAKE,
    SPAN_IRQ_DELIVER,
    SPAN_KICK,
    SPAN_MARSHAL,
    SPAN_POST,
    SPAN_RETRY_BACKOFF,
    SPAN_SESSION_WAIT,
    spec_for,
)
from .protocol import BatchCall, VPhiOp, VPhiRequest, VPhiResponse
from .qos import AdmissionController
from .session import ACTIVE, SessionManager
from .wait import make_wait_scheme

__all__ = ["VPhiFrontend"]


class _Prepared:
    """A marshalled request whose bounce chunks are live in guest memory."""

    __slots__ = ("spec", "req", "hdr_ext", "out_bb", "in_bb", "out_descs",
                 "in_descs", "orig_handle", "span", "in_sink", "t0")

    def __init__(self, spec, req, hdr_ext, out_bb, in_bb, out_descs, in_descs,
                 orig_handle, span, in_sink, t0):
        self.spec = spec
        self.req = req
        self.hdr_ext = hdr_ext
        self.out_bb = out_bb
        self.in_bb = in_bb
        self.out_descs = out_descs
        self.in_descs = in_descs
        #: the guest-visible handle as submitted — the session manager
        #: re-translates it to the current backend handle at every post,
        #: so a retry spanning a recovery lands on the rebuilt endpoint.
        self.orig_handle = orig_handle
        #: the request's lifecycle span (None with tracing disabled).
        #: One span covers the whole request across retries — every tag
        #: it was posted under maps back to it in the tracer.
        self.span = span
        #: optional streaming consumer for the in-payload (see BatchCall).
        self.in_sink = in_sink
        #: simulated time marshalling began: the request's latency sample
        #: runs from here to the syscall return.
        self.t0 = t0

    @property
    def needed_descriptors(self) -> int:
        return len(self.out_descs) + len(self.in_descs)

    def renew_tag(self, tag: int) -> None:
        """Give the request a fresh correlation id for a retry posting
        (the old tag may still complete late and must not alias)."""
        self.req.tag = tag

    def release(self, kmalloc) -> None:
        if self.hdr_ext is not None and not self.hdr_ext.freed:
            kmalloc.kfree(self.hdr_ext)
        if self.out_bb is not None:
            self.out_bb.free()
        if self.in_bb is not None:
            self.in_bb.free()


class VPhiFrontend:
    """The guest kernel module (insmod'ed into the guest's Linux)."""

    def __init__(
        self,
        vm,
        virtio: VirtioDevice,
        config: Optional[VPhiConfig] = None,
        costs: VPhiCosts = VPHI_COSTS,
        host_params: HostParams = HOST,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.vm = vm
        self.sim: Simulator = vm.sim
        self.virtio = virtio
        self.config = config or VPhiConfig()
        self.costs = costs
        self.host_params = host_params
        # default to the owning VM's tracer so the frontend and backend
        # share one timeline (two fresh Tracers would each hold half)
        self.tracer = tracer or getattr(vm, "tracer", None) or Tracer()
        self.kmalloc = vm.guest_kernel.kmalloc
        self.waitq = WaitQueue(self.sim, name=f"{vm.name}-vphi-wait")
        #: submitters blocked on descriptor exhaustion (woken on reaping)
        self.ring_space = WaitQueue(self.sim, name=f"{vm.name}-vphi-ringspace")
        self.wait_scheme = make_wait_scheme(self.config.wait_mode, costs)
        #: request tags are per-VM (deterministic per run; independent
        #: Simulator instances never share a counter).
        self._tags = itertools.count(1)
        #: completed responses awaiting their caller, by tag.
        self.responses: dict[int, VPhiResponse] = {}
        #: fault source (default: inject nothing).
        self.faults = faults or NO_FAULTS
        #: tags whose caller gave up (watchdog expiry): their late
        #: responses are dropped at drain time instead of parking forever.
        self._abandoned: set[int] = set()
        #: high-water mark of reaped tags — detects (and counts) pooled
        #: out-of-order completion without constraining it.
        self._max_completed_tag = 0
        #: posted-but-unreaped requests by tag — the set a session fence
        #: aborts with synthetic EStaleEpoch responses.
        self._inflight: dict[int, _Prepared] = {}
        #: session journal + recovery orchestrator (inert under the
        #: default ``recovery_policy="none"``).
        self.session = SessionManager(self)
        #: QoS admission gate (inert unless a watermark is configured).
        self.admission = AdmissionController(self)
        virtio.bind_guest_isr(self.irq_handler)
        vm.guest_kernel.vphi_frontend = self
        #: metrics
        self.requests = 0
        self.irqs = 0
        self.retries = 0
        self.timeouts = 0
        #: completions reaped behind a higher tag (pooled dispatch).
        self.out_of_order = 0

    # ------------------------------------------------------------------
    # interrupt path
    # ------------------------------------------------------------------
    def irq_handler(self) -> None:
        """The virtual-interrupt ISR: drain the used ring, wake sleepers.

        "the interrupt handler in the guest wakes up all sleeping
        processes, which check the shared ring to determine if the reply
        is for them" (§IV-B).
        """
        self.irqs += 1
        self.drain_used()
        self.waitq.wake_all(per_waiter_cost=self.costs.wakeup_per_waiter)

    def drain_used(self) -> None:
        """Reap completions off the shared ring into the response table."""
        reaped = False
        while True:
            got = self.virtio.ring.get_used()
            if got is None:
                break
            reaped = True
            _head, written, header = got
            resp: VPhiResponse = header
            if resp.epoch < self.session.epoch:
                # pre-fence completion straggling in after a card reset /
                # backend restart: reaping already released its ring
                # descriptors; the record itself must never reach a
                # waiter (the fence handed them synthetic EStaleEpoch
                # responses) or mutate rebuilt session state.
                self._abandoned.discard(resp.tag)
                self.session.stale_drops += 1
                if resp.op is not None:
                    self.tracer.count(spec_for(resp.op).stale_key)
                continue
            if resp.tag in self._abandoned:
                # late completion of a timed-out request: reaping it has
                # already released its ring descriptors; drop the record.
                self._abandoned.discard(resp.tag)
                continue
            if resp.tag in self.responses:
                raise SimError(
                    f"{self.vm.name}: duplicate completion for tag {resp.tag}"
                )
            if resp.tag < self._max_completed_tag:
                # pooled dispatch retires requests out of submission
                # order; count it (the correlation stays exact by tag).
                self.out_of_order += 1
            else:
                self._max_completed_tag = resp.tag
            self.tracer.mark_tag(resp.tag, SPAN_IRQ_DELIVER)
            self.responses[resp.tag] = resp
        if reaped:
            # reaping released descriptors: unblock parked submitters
            self.ring_space.wake_all()

    def claim_response(self, tag: int) -> VPhiResponse:
        """Hand a parked completion to its waiter, exactly once.

        Completion matching is strictly by tag: each wait scheme parks
        until *its* tag lands and claims only that record, so pooled
        out-of-order completions can never reach the wrong caller.
        Claiming a tag with no parked response is a driver bug, not a
        recoverable condition.
        """
        try:
            return self.responses.pop(tag)
        except KeyError:
            raise SimError(
                f"{self.vm.name}: claimed tag {tag} has no parked response"
            ) from None

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(
        self,
        op: VPhiOp,
        handle: int = 0,
        args: Optional[dict] = None,
        out_data: Optional[np.ndarray] = None,
        in_nbytes: int = 0,
        segment_args=None,
        in_sink=None,
    ):
        """Process: forward one SCIF operation to the backend.

        Returns ``(result, in_data)`` where ``in_data`` is the gathered
        device->guest payload (or None).  Raises the host-side ScifError
        if the operation failed.

        Transfers whose bounce chunks would not fit the descriptor ring
        are split into sequential ring submissions (the real driver does
        the same when a request exceeds the ring), posted back-to-back
        so the whole sequence shares kicks instead of paying one vmexit
        per segment.  ``segment_args(args, byte_offset)`` rewrites the
        op-specific arguments for each segment (RMA offsets advance);
        numeric results are summed and gathered payloads concatenated.
        However many segments it takes, the submit is one guest-visible
        request to admission control.
        """
        max_segment = self.virtio.ring.size // 2 * self.config.chunk_size
        total = len(out_data) if out_data is not None else in_nbytes
        if total <= max_segment:
            out = yield from self._run(
                [BatchCall(op, handle, args, out_data, in_nbytes, in_sink)],
                admit=1,
            )
            return out[0]
        calls = []
        for off in range(0, total, max_segment):
            take = min(max_segment, total - off)
            calls.append(BatchCall(
                op, handle,
                segment_args(args, off) if segment_args else args,
                out_data[off : off + take] if out_data is not None else None,
                take if in_nbytes else 0,
                # each segment streams into the guest buffer at its
                # nominal byte offset
                None if in_sink is None
                else lambda o, view, base=off: in_sink(base + o, view),
            ))
        out = yield from self._run(calls, admit=1)
        gathered = [d for _, d in out if d is not None]
        return (sum(r for r, _ in out if isinstance(r, (int, float))),
                np.concatenate(gathered) if gathered else None)

    def submit_batch(self, calls: Sequence[BatchCall]):
        """Process: forward several requests with coalesced kicks.

        Admission control counts the batch as ``len(calls)`` guest-visible
        requests, atomically: either the whole batch is admitted or the
        whole batch sheds with one typed
        :class:`~repro.scif.errors.EBUSY` (per-op shed counters charge
        the first call's op).

        Returns ``[(result, in_data), ...]`` aligned with ``calls``.  If
        any request failed, the first host-side error is raised — but
        only after every response has been reaped, so no bounce chunk is
        freed while the backend may still write it.
        """
        calls = list(calls)
        if not calls:
            return []
        out = yield from self._run(calls, admit=len(calls))
        return out

    def _run(self, calls: list, admit: int = 0, replay: bool = False):
        """The one request path: admit, marshal, post, kick, reap, return.

        Every call's chain is marshalled and posted back-to-back; the
        backend is kicked early only when the next chain does not fit
        the ring (a submitter parked for space needs the backend running
        to make progress), and once at the end for the rest — exactly
        once when the batch fits.  Responses are reaped in submission
        order, out-of-order completions parking in the response table
        until their turn, and the whole batch pays one syscall return.

        ``admit`` is the number of guest-visible requests the gate
        charges (0 skips admission).  ``replay`` marks a session-recovery
        replay: it bypasses the degraded-mode submit gate (the recovery
        process is itself what makes the session active again) and skips
        the journal hook (the journal already holds the fact replayed).

        Each call that completed records one latency sample, from the
        start of its marshalling to the syscall return, and closes its
        span ``"ok"``; a failed call's span closes with its real status.
        """
        adm = self.admission
        if admit and adm.enabled:
            adm.admit(spec_for(calls[0].op), n=admit)
        else:
            admit = 0
        prepared: list[_Prepared] = []
        try:
            kicked = 0  # prepared[:kicked] are already covered by a kick
            for call in calls:
                p = yield from self._prepare(call)
                prepared.append(p)
                if (kicked < len(prepared) - 1
                        and self.virtio.ring.num_free < p.needed_descriptors):
                    yield from self._kick(prepared[kicked:-1])
                    kicked = len(prepared) - 1
                yield from self._post_chain(p, replay=replay)
            yield from self._kick(prepared[kicked:])
            # a failed call's slot stays None: the batch raises anyway
            out: list = []
            first_error: Optional[Exception] = None
            for p in prepared:
                try:
                    resp = yield from self._complete(p, replay=replay)
                except ScifError as err:
                    if first_error is None:
                        first_error = err
                    out.append(None)
                    continue
                result, in_data = yield from self._finish(p, resp)
                if not replay:
                    self.session.record(p.spec, p.orig_handle, p.req.args,
                                        result)
                out.append((result, in_data))
            if first_error is None:
                # response demux + syscall return to user space
                yield self.sim.timeout(self.costs.guest_return)
            now = self.sim.now
            for p, res in zip(prepared, out):
                if res is not None:
                    self.tracer.observe(p.spec.latency_key, now - p.t0)
                    self.tracer.mark(p.span, SPAN_GUEST_RETURN)
                    self.tracer.end_span(p.span, "ok")
            if first_error is not None:
                raise first_error
            return out
        finally:
            if admit:
                adm.finish(admit)
            for p in prepared:
                p.release(self.kmalloc)
                # idempotent close: a no-op on the normal path, the span's
                # last line of defence on any exception path _complete did
                # not already classify (prepare faults, duplicate-tag
                # SimErrors, ...), so no span leaks in the active table.
                self.tracer.end_span(p.span, "error")

    # ------------------------------------------------------------------
    # the four stages every submission goes through
    # ------------------------------------------------------------------
    def _prepare(self, call: BatchCall):
        """Marshal one request: header + bounce chunks + user->kernel copy."""
        t0 = self.sim.now
        spec = spec_for(call.op)
        out_data, in_nbytes = call.out_data, call.in_nbytes
        self.requests += 1
        # the request's lifecycle span opens here, before any simulated
        # work, so the marshal phase covers the whole guest-kernel entry.
        # It is bound to a tag only at _post_chain (tags are allocated
        # last, and retries re-bind fresh ones).
        span = (spec.begin_span(self.tracer, vm=self.vm.name)
                if self.config.trace_spans else None)
        # frontend-side fault draw: link flaps trigger by op index / name /
        # VM / time window and stall the shared PCIe medium while it
        # retrains (the request itself proceeds and rides out the stall).
        inj = self.faults.draw(FaultSite.FRONTEND_SUBMIT,
                               op=spec.op_name, vm=self.vm.name)
        if inj is not None:
            self.tracer.count(spec.injected_key)
        # 3b/3c: request marshalling in the guest kernel
        yield self.sim.timeout(self.costs.frontend)
        self.tracer.mark(span, SPAN_MARSHAL)
        out_bb: Optional[BounceBuffers] = None
        in_bb: Optional[BounceBuffers] = None
        # the serialized request header always rides as the first out
        # descriptor (even control-only requests put one buffer on the ring)
        hdr_ext = self.kmalloc.kmalloc(256, label="vphi-hdr")
        try:
            out_descs: list[tuple[int, int]] = [(hdr_ext.addr, 256)]
            in_descs: list[tuple[int, int]] = []
            if out_data is not None and len(out_data):
                out_bb = BounceBuffers(
                    self.kmalloc, len(out_data), self.config.chunk_size
                )
                # 3i: the user->kernel copy
                copy_t = len(out_data) / self.host_params.memcpy_bandwidth
                yield self.sim.timeout(copy_t)
                self.tracer.mark(span, SPAN_COPY_IN)
                out_bb.scatter(out_data)
                out_descs.extend(out_bb.descriptors())
            if in_nbytes:
                in_bb = BounceBuffers(self.kmalloc, in_nbytes, self.config.chunk_size)
                in_descs = in_bb.descriptors()
        except Exception:
            self.kmalloc.kfree(hdr_ext)
            if out_bb is not None:
                out_bb.free()
            raise
        req = VPhiRequest(
            op=call.op,
            handle=call.handle,
            args=dict(call.args or {}),
            out_nbytes=0 if out_data is None else len(out_data),
            in_nbytes=in_nbytes,
            tag=next(self._tags),
        )
        return _Prepared(spec, req, hdr_ext, out_bb, in_bb, out_descs, in_descs,
                         call.handle, span, call.in_sink, t0)

    def _post_chain(self, p: _Prepared, replay: bool = False):
        """Put one prepared chain on the ring, parking on exhaustion.

        Back-pressure: park until the ring has room for the chain (the
        real driver sleeps on virtqueue_add failure too).  With session
        recovery armed, every post (first or retry) is stamped with the
        *current* epoch and handle translation at the instant it lands
        on the ring — a retry spanning a recovery must not post the dead
        epoch or a pre-reset backend handle — and posts arriving while
        the session rebuilds go through the degraded-mode gate (replay
        posts are exempt: recovery is what unblocks the gate).
        """
        if p.needed_descriptors > self.virtio.ring.size:
            raise SimError(
                f"{self.vm.name}: chain of {p.needed_descriptors} descriptors "
                f"can never fit a ring of {self.virtio.ring.size}"
            )
        ses = self.session
        while True:
            if ses.enabled and not replay and ses.state != ACTIVE:
                yield from ses.gate()
                # a gated submit attributes the rebuild wait to its own
                # phase instead of folding it into the post.
                self.tracer.mark(p.span, SPAN_SESSION_WAIT)
            if self.virtio.ring.num_free >= p.needed_descriptors:
                break
            yield self.ring_space.wait()
        if ses.enabled:
            p.req.epoch = ses.epoch
            if p.spec.wants_endpoint:
                p.req.handle = ses.translate(p.orig_handle)
        self._inflight[p.req.tag] = p
        self.virtio.ring.add_chain(out=p.out_descs, inb=p.in_descs, header=p.req)
        self.tracer.count(p.spec.counter_key)
        self.tracer.bind_span(p.req.tag, p.span)
        self.tracer.mark(p.span, SPAN_POST)

    def _kick(self, group: list[_Prepared]):
        """Notify the backend once for every chain posted since the last
        kick (3c: one vmexit, however many requests it covers)."""
        yield from self.virtio.kick()
        for p in group:
            self.tracer.mark(p.span, SPAN_KICK)

    def _reap(self, p: _Prepared, deadline: Optional[float] = None):
        """Park on the configured wait scheme until p's response lands.

        Returns ``None`` if ``deadline`` (absolute simulated time) passes
        first — the caller's recovery watchdog.
        """
        data_bytes = max(p.req.out_nbytes, p.req.in_nbytes)
        resp: Optional[VPhiResponse] = yield from self.wait_scheme.wait_for(
            self, p.req.tag, data_bytes, deadline
        )
        if resp is not None:
            self.tracer.mark(p.span, SPAN_GUEST_WAKE)
        return resp

    def _complete(self, p: _Prepared, replay: bool = False):
        """Reap ``p``'s response, recovering from transient faults.

        The watchdog deadline comes from the op's blocking class via
        :meth:`VPhiConfig.timeout_for` (blocking ops have bounded
        completion time; a stall means the backend worker died).  On a
        transient fault — injected ECONNRESET/ENODEV, ring corruption,
        card reset, or watchdog expiry — *idempotent* ops re-post the
        same bounce chunks under a fresh tag after bounded exponential
        backoff; non-idempotent ops fail fast with the typed error.

        An :class:`EStaleEpoch` abort (the session fenced this tag) is
        session-level, not request-level: under the queue/circuit-break
        policies an idempotent op parks until the journal replay
        finishes, then re-posts at the new epoch without consuming its
        transient-retry budget.  During replay (``replay=True``) the
        stale error propagates instead — a fresh fence must restart the
        replay round, not deadlock it against the recovery process.
        """
        spec, cfg = p.spec, self.config
        attempt = 0
        while True:
            timeout = cfg.timeout_for(spec)
            deadline = None if timeout is None else self.sim.now + timeout
            resp = yield from self._reap(p, deadline)
            self._inflight.pop(p.req.tag, None)
            if resp is None:
                # watchdog expiry: abandon the tag so the late response
                # (if the backend ever completes it) is dropped on drain.
                # The tag leaves the active-span table with it — a late
                # completion must never stamp this span again.
                self.timeouts += 1
                self._abandoned.add(p.req.tag)
                self.tracer.unbind_span(p.req.tag)
                err: Exception = ETIMEDOUT(
                    f"{self.vm.name}: {spec.op_name} gave no completion "
                    f"within {timeout:g}s (tag {p.req.tag})"
                )
            elif resp.error is not None:
                err = resp.error
            else:
                if attempt:
                    self.tracer.count(spec.recovered_key)
                return resp
            if isinstance(err, EStaleEpoch):
                ses = self.session
                if (not replay and ses.enabled and spec.idempotent
                        and cfg.recovery_policy in ("queue", "circuit_break")):
                    attempt += 1
                    self.retries += 1
                    self.tracer.count(spec.retried_key)
                    try:
                        yield from ses.await_active()
                    except EStaleEpoch:
                        # the circuit opened while this request waited
                        self.tracer.end_span(p.span, "stale")
                        raise
                    self.tracer.mark(p.span, SPAN_SESSION_WAIT)
                    p.renew_tag(next(self._tags))
                    yield from self._post_chain(p, replay=replay)
                    yield from self._kick([p])
                    continue
                if not replay:
                    self.tracer.count(spec.failed_key)
                self.tracer.end_span(p.span, "stale")
                raise err
            if not (spec.idempotent and is_transient(err)
                    and attempt < cfg.max_retries):
                if is_transient(err):
                    self.tracer.count(spec.failed_key)
                self.tracer.end_span(p.span,
                                     "timeout" if resp is None else "error")
                raise err
            # bounded exponential backoff, then re-post under a fresh tag
            attempt += 1
            self.retries += 1
            self.tracer.count(spec.retried_key)
            yield self.sim.timeout(cfg.backoff_for(attempt))
            self.tracer.mark(p.span, SPAN_RETRY_BACKOFF)
            p.renew_tag(next(self._tags))
            yield from self._post_chain(p, replay=replay)
            yield from self._kick([p])

    def _finish(self, p: _Prepared, resp: VPhiResponse):
        """Gather the device->guest payload (3ii: the kernel->user copy)."""
        in_data = None
        if p.in_bb is not None and resp.written:
            copy_t = resp.written / self.host_params.memcpy_bandwidth
            yield self.sim.timeout(copy_t)
            self.tracer.mark(p.span, SPAN_COPY_OUT)
            if p.in_sink is not None:
                # stream bounce-chunk views straight to the consumer —
                # the bulk-RMA copy-out never materializes a flat array
                p.in_bb.scatter_to(p.in_sink, resp.written)
            else:
                in_data = p.in_bb.gather(resp.written)
        return resp.result, in_data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VPhiFrontend {self.vm.name} scheme={self.wait_scheme.name} "
            f"reqs={self.requests}>"
        )
