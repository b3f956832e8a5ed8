"""The SCIF operation registry: one declaration per forwarded operation.

The vPHI datapath (§III, Fig 3) forwards ~20 SCIF operations guest ->
frontend -> virtio ring -> backend -> host driver.  Everything the stack
needs to know about one operation is declared *here*, exactly once, as an
:class:`OpSpec`:

* **marshal rules** — which scalar arguments ride the request header
  (:class:`ArgSpec`: name, default, wire conversion) and whether the op
  carries an out (guest->host) or in (host->guest) bulk payload;
* the **backend handler** — a small generator closing over the backend's
  :class:`~repro.scif.NativeScif` that replays the call against the host
  driver and returns ``(result, bytes_written)``;
* the **blocking class** — whether QEMU services the request inline
  (freezing the VM) or on a worker thread (ops with unbounded completion
  time: accept/poll/fences);
* the **pool eligibility** — whether the backend's persistent worker
  pool (``VPhiConfig.backend_workers``) may service the op.  Defaults
  derive from the blocking class: bounded (blocking-class) ops ride the
  pool, unbounded ones keep a dedicated worker thread so a parked
  accept/poll can never starve the pool's shards;
* the **idempotency class** — whether replaying the op after a transient
  fault is observably identical to running it once.  The frontend's
  recovery machinery retries idempotent ops (bounded exponential
  backoff) and fails non-idempotent ones fast with the typed ScifError;
* the derived per-op counter/latency keys the frontend, backend and
  :mod:`repro.analysis.breakdown` share;
* optional **cost hooks** — fixed simulated time charged host-side before
  and after the handler (syscall entry, completion message).

Every consumer derives its behaviour from the registry: the guest shim
marshals generically, the backend dispatches by table lookup, the config
computes its default non-blocking set, and the analysis layer enumerates
per-op metrics without string literals.  Adding an operation (e.g. a COI
extension) is one :func:`register` call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ..scif import ScifError
from .protocol import VPhiOp

__all__ = [
    "REQUIRED",
    "ArgSpec",
    "BLOCKING",
    "NONBLOCKING",
    "OpSpec",
    "SPAN_BACKEND_POP",
    "SPAN_COMPLETION_PUSH",
    "SPAN_COPY_IN",
    "SPAN_COPY_OUT",
    "SPAN_CREDIT_WAIT",
    "SPAN_GUEST_RETURN",
    "SPAN_GUEST_WAKE",
    "SPAN_HOST_CALL",
    "SPAN_IRQ_DELIVER",
    "SPAN_KICK",
    "SPAN_MARSHAL",
    "SPAN_PHASE_ORDER",
    "SPAN_POST",
    "SPAN_RETRY_BACKOFF",
    "SPAN_RING",
    "SPAN_SESSION_WAIT",
    "default_nonblocking_ops",
    "register",
    "registered_ops",
    "spec_for",
    "temporary_op",
]

# ----------------------------------------------------------------------
# request-lifecycle span phases (Fig 3 steps, as stamped on each
# request's Span).  Declared here — next to the op declarations — so the
# frontend, blocking backend, pool members and session replay all stamp
# the *same* vocabulary; every phase label in the stack resolves to one
# of these constants.
# ----------------------------------------------------------------------
#: guest kernel marshalled the request header (3b).
SPAN_MARSHAL = "marshal"
#: user->kernel copy into the kmalloc bounce chunks (3i).
SPAN_COPY_IN = "copy_in"
#: descriptor chain landed on the avail ring (includes any time parked
#: on ring-space exhaustion or the degraded-session gate).
SPAN_POST = "post"
#: backend notified — the vmexit (3c; shared by a whole batch).
SPAN_KICK = "kick"
#: ring residency: posted chain waited for the backend to take it up
#: (event-loop dispatch latency, or pool shard queueing when pooled).
SPAN_RING = "ring"
#: pooled only: member waited for a machine-wide dispatch credit.
SPAN_CREDIT_WAIT = "credit_wait"
#: backend mapped the guest buffers and dispatched (pop + setup).
SPAN_BACKEND_POP = "backend_pop"
#: the host SCIF syscall itself (handler + its pre/post cost hooks).
SPAN_HOST_CALL = "host_call"
#: completion record pushed onto the used ring.
SPAN_COMPLETION_PUSH = "completion_push"
#: virtual interrupt delivered and the guest ISR drained the completion.
SPAN_IRQ_DELIVER = "irq_deliver"
#: the parked caller woke and claimed its response (wait-scheme exit).
SPAN_GUEST_WAKE = "guest_wake"
#: kernel->user copy out of the bounce chunks (3ii).
SPAN_COPY_OUT = "copy_out"
#: response demux + syscall return to user space.
SPAN_GUEST_RETURN = "guest_return"
#: recovery only: exponential backoff before a transient-fault retry.
SPAN_RETRY_BACKOFF = "retry_backoff"
#: recovery only: parked on the session rebuild after an epoch fence.
SPAN_SESSION_WAIT = "session_wait"

#: canonical rendering/sort order for all phases (recovery phases sort
#: where they occur: between a completion and the re-post).
SPAN_PHASE_ORDER = (
    SPAN_MARSHAL, SPAN_COPY_IN, SPAN_POST, SPAN_KICK, SPAN_RING,
    SPAN_CREDIT_WAIT, SPAN_BACKEND_POP, SPAN_HOST_CALL,
    SPAN_COMPLETION_PUSH, SPAN_IRQ_DELIVER, SPAN_GUEST_WAKE,
    SPAN_RETRY_BACKOFF, SPAN_SESSION_WAIT, SPAN_COPY_OUT,
    SPAN_GUEST_RETURN,
)


class _Required:
    """Sentinel: the argument has no default and must be supplied."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<REQUIRED>"


REQUIRED = _Required()

#: blocking classes (§III, *Blocking vs non-blocking mode*)
BLOCKING = "blocking"
NONBLOCKING = "nonblocking"


@dataclass(frozen=True)
class ArgSpec:
    """One scalar argument riding the request header."""

    name: str
    default: Any = REQUIRED
    #: wire conversion applied while marshalling (e.g. ``int`` flattens
    #: IntFlag values, ``tuple`` freezes address pairs).  ``None`` values
    #: pass through unconverted (optional arguments).
    convert: Optional[Callable[[Any], Any]] = None


@dataclass(frozen=True)
class OpSpec:
    """Everything the stack knows about one forwarded SCIF operation."""

    op: Any  # VPhiOp member (or any op-like object with a .value name)
    handler: Callable  # generator: (backend, req, elem, args) -> (result, written)
    args: tuple[ArgSpec, ...] = ()
    blocking_class: str = BLOCKING
    #: replaying the op after a transient fault is indistinguishable from
    #: running it once (reads, window RMA to explicit offsets, pure
    #: queries).  Drives the frontend's retry-vs-fail-fast decision.
    idempotent: bool = False
    #: the op references an existing backend endpoint via ``req.handle``.
    wants_endpoint: bool = True
    #: op may carry a guest->host bulk payload (out descriptors).
    carries_out: bool = False
    #: op may carry a host->guest bulk payload (in descriptors).
    carries_in: bool = False
    #: fixed host-side simulated seconds charged before/after the handler
    #: (syscall entry + driver dispatch, completion message, ...): a
    #: tuple of cost-table attribute names (e.g. ``("syscall",
    #: "driver")``) resolved once per backend against its ``lib.costs``
    #: into a plain float and cached.
    pre_cost: Optional[tuple[str, ...]] = None
    post_cost: Optional[tuple[str, ...]] = None
    #: whether the backend's worker pool may service this op.  ``None``
    #: (the default) derives from the blocking class — see :attr:`rides_pool`.
    pool_eligible: Optional[bool] = None
    #: the op mutates session topology the recovery orchestrator must
    #: rebuild after a card reset (endpoint lifecycle, window
    #: registration, mmap).  Purely informational for data ops.
    replayable: bool = False
    #: journal hook ``(journal, handle, args, result)`` invoked by the
    #: frontend after the op *succeeds*; ``handle`` is the original
    #: guest-visible handle (pre-translation), ``args`` the marshalled
    #: wire arguments and ``result`` the op result.  The hook records
    #: the minimal replayable state on the session journal (duck-typed
    #: ``note_*`` methods — no import cycle with the session module).
    journal: Optional[Callable] = None

    # ------------------------------------------------------------------
    # derived trace keys: the single source the frontend, backend and
    # analysis layers share (no string literals anywhere else).  All are
    # interned once at registration time (``__post_init__``) — the hot
    # path charges per-op counters on every request, so key derivation
    # must be an attribute load, not an f-string per call.
    # ------------------------------------------------------------------
    #: wire name (``op.value``).
    op_name: str = ""
    #: frontend: requests submitted.
    counter_key: str = ""
    #: backend: requests completed (including errors).
    served_key: str = ""
    #: backend: requests that returned a ScifError.
    error_key: str = ""
    #: frontend: per-request ring round-trip latency stat.
    latency_key: str = ""
    #: faults injected while this op was in flight.
    injected_key: str = ""
    #: frontend: retry attempts after a transient fault.
    retried_key: str = ""
    #: frontend: requests that ultimately succeeded after >=1 retry.
    recovered_key: str = ""
    #: frontend: transient faults surfaced to the caller (fail-fast
    #: non-idempotent ops, or retries exhausted).
    failed_key: str = ""
    #: backend: requests serviced by the worker pool.
    pooled_key: str = ""
    #: frontend: completions dropped because their epoch predated a
    #: session fence (card reset / backend restart).
    stale_key: str = ""
    #: frontend: submits refused by QoS admission control (typed EBUSY
    #: before any descriptor was allocated).
    shed_key: str = ""
    #: backend handling completes in bounded time (``blocking_class``).
    blocking: bool = True
    #: effective pool eligibility: the explicit flag, else derived from
    #: the blocking class.  Bounded-completion (blocking-class) ops ride
    #: the pool; unbounded ones (accept/poll/fences) keep their dedicated
    #: worker thread — a parked accept occupying a pool shard would
    #: starve every op hashed to the same shard.
    rides_pool: bool = True
    #: the fault-free phase sequence this op's spans stamp, derived from
    #: the declaration: payload directions add the copy phases, pool
    #: eligibility adds the credit wait (skipped on blocking dispatch — a
    #: run stamps a *subsequence* of this, in this order; only the
    #: recovery phases may repeat out of it).
    span_phases: tuple[str, ...] = ()

    def __post_init__(self):
        # frozen dataclass: derived state goes in through the back door,
        # exactly once, at registration time.
        _set = object.__setattr__
        name = self.op.value
        base = f"vphi.op.{name}"
        _set(self, "op_name", name)
        _set(self, "counter_key", base)
        _set(self, "served_key", base + ".served")
        _set(self, "error_key", base + ".errors")
        _set(self, "latency_key", base + ".latency")
        _set(self, "injected_key", base + ".injected")
        _set(self, "retried_key", base + ".retried")
        _set(self, "recovered_key", base + ".recovered")
        _set(self, "failed_key", base + ".failed")
        _set(self, "pooled_key", base + ".pooled")
        _set(self, "stale_key", base + ".stale_dropped")
        _set(self, "shed_key", base + ".shed")
        blocking = self.blocking_class == BLOCKING
        _set(self, "blocking", blocking)
        _set(self, "rides_pool",
             blocking if self.pool_eligible is None else self.pool_eligible)
        phases = [SPAN_MARSHAL]
        if self.carries_out:
            phases.append(SPAN_COPY_IN)
        phases += [SPAN_POST, SPAN_KICK, SPAN_RING]
        if self.rides_pool:
            phases.append(SPAN_CREDIT_WAIT)
        phases += [SPAN_BACKEND_POP, SPAN_HOST_CALL, SPAN_COMPLETION_PUSH,
                   SPAN_IRQ_DELIVER, SPAN_GUEST_WAKE]
        if self.carries_in:
            phases.append(SPAN_COPY_OUT)
        phases.append(SPAN_GUEST_RETURN)
        _set(self, "span_phases", tuple(phases))
        _set(self, "marshal", _compile_marshal(name, self.args))

    # ------------------------------------------------------------------
    # span hooks: every layer opens/stamps request-lifecycle spans
    # through the spec, so the phase vocabulary and the per-op phase
    # sequence are declared exactly once (here).
    # ------------------------------------------------------------------
    def begin_span(self, tracer, vm: str = ""):
        """Open this op's request-lifecycle span."""
        return tracer.new_span(self.op_name, vm=vm)

    # ------------------------------------------------------------------
    #: compiled marshal plan — ``marshal(call_args) -> dict`` builds the
    #: request's scalar-argument dict from a guest call, applying
    #: defaults and wire conversions (unknown or missing arguments are
    #: programming errors and raise ScifError).  Compiled once per spec
    #: by :func:`_compile_marshal` at registration time; the per-call
    #: cost is one closure invocation, not a walk of the ArgSpecs.
    marshal: Callable[[dict], dict] = None  # type: ignore[assignment]


def _compile_marshal(op_name: str, args: tuple[ArgSpec, ...]) -> Callable:
    """Build the per-op marshal closure.

    The plan is resolved at registry-build time: the known-name set, the
    (name, default, convert) triples and the no-argument fast path are
    all baked into the closure, so a hot-path ``marshal()`` does no spec
    introspection at all.
    """
    if not args:
        def marshal_empty(call_args: dict, _name=op_name) -> dict:
            if call_args:
                raise ScifError(
                    f"vphi op {_name!r}: unexpected argument(s) "
                    f"{sorted(call_args)}"
                )
            return {}

        return marshal_empty

    plan = tuple((a.name, a.default, a.convert) for a in args)
    known = frozenset(a.name for a in args)

    def marshal(call_args: dict, _name=op_name, _plan=plan,
                _known=known, _missing=REQUIRED) -> dict:
        if not _known.issuperset(call_args):
            raise ScifError(
                f"vphi op {_name!r}: unexpected argument(s) "
                f"{sorted(set(call_args) - _known)}"
            )
        wire = {}
        for name, default, convert in _plan:
            value = call_args.get(name, default)
            if value is _missing:
                raise ScifError(
                    f"vphi op {_name!r}: missing argument {name!r}"
                )
            if convert is not None and value is not None:
                value = convert(value)
            wire[name] = value
        return wire

    return marshal


#: the registry: op -> spec.  Keyed by the op object itself so test-only
#: operations (any hashable with a ``.value`` wire name) register the
#: same way the built-in :class:`VPhiOp` members do.
_REGISTRY: dict[Any, OpSpec] = {}


def register(
    op: Any,
    *,
    args: tuple[ArgSpec, ...] = (),
    blocking_class: str = BLOCKING,
    idempotent: bool = False,
    wants_endpoint: bool = True,
    carries_out: bool = False,
    carries_in: bool = False,
    pre_cost: Optional[tuple[str, ...]] = None,
    post_cost: Optional[tuple[str, ...]] = None,
    pool_eligible: Optional[bool] = None,
    replayable: bool = False,
    journal: Optional[Callable] = None,
) -> Callable:
    """Decorator: register ``op``'s backend handler plus its declaration.

    The decorated function is a generator ``(backend, req, elem, args)``
    returning ``(result, written)``; it runs inside the QEMU backend, so
    ``backend.lib`` is the host-side :class:`~repro.scif.NativeScif`.
    """
    if blocking_class not in (BLOCKING, NONBLOCKING):
        raise ValueError(f"unknown blocking class {blocking_class!r}")

    def wrap(handler: Callable) -> Callable:
        if op in _REGISTRY:
            raise ValueError(f"vphi op {op!r} registered twice")
        _REGISTRY[op] = OpSpec(
            op=op,
            handler=handler,
            args=tuple(args),
            blocking_class=blocking_class,
            idempotent=idempotent,
            wants_endpoint=wants_endpoint,
            carries_out=carries_out,
            carries_in=carries_in,
            pre_cost=pre_cost,
            post_cost=post_cost,
            pool_eligible=pool_eligible,
            replayable=replayable,
            journal=journal,
        )
        return handler

    return wrap


def spec_for(op: Any) -> OpSpec:
    """The registered spec for ``op`` (ScifError on unknown ops)."""
    try:
        return _REGISTRY[op]
    except KeyError:
        raise ScifError(f"vphi: unknown op {op!r}") from None


def registered_ops() -> tuple[OpSpec, ...]:
    """All registered specs, in registration order."""
    return tuple(_REGISTRY.values())


def default_nonblocking_ops() -> frozenset:
    """Ops whose backend handling must not freeze the VM indefinitely —
    derived from the registry's blocking classes (consumed by
    :class:`~repro.vphi.config.VPhiConfig`)."""
    return frozenset(s.op for s in _REGISTRY.values() if not s.blocking)


@contextlib.contextmanager
def temporary_op(op: Any, handler: Callable, **kwargs) -> Iterator[OpSpec]:
    """Register ``op`` with ``handler`` for the ``with`` body, then remove
    it — the one-registration-site seam the unit tests exercise."""
    register(op, **kwargs)(handler)
    try:
        yield _REGISTRY[op]
    finally:
        _REGISTRY.pop(op, None)


# ======================================================================
# cost keys shared by the RMA family: one host ioctl pays syscall entry
# + driver dispatch up front and one completion message at the end,
# resolved against the backend's ``lib.costs`` once and cached.
# ======================================================================
RMA_PRE_COST = ("syscall", "driver")
RMA_POST_COST = ("completion",)


# ======================================================================
# session-journal hooks: called by the frontend after the op succeeds,
# with the *original* guest-visible handle (never a translated one) —
# the journal is the minimal replayable state the recovery orchestrator
# re-drives through the normal op path after a card reset.  Duck-typed
# against SessionJournal's note_* methods so ops.py never imports the
# session module (no cycle).
# ======================================================================
def _journal_open(journal, handle, args, result):
    journal.note_open(result)


def _journal_close(journal, handle, args, result):
    journal.note_close(handle)


def _journal_bind(journal, handle, args, result):
    journal.note_bind(handle, result)  # result = the actual bound port


def _journal_listen(journal, handle, args, result):
    journal.note_listen(handle, args["backlog"])


def _journal_connect(journal, handle, args, result):
    journal.note_connect(handle, tuple(args["addr"]))


def _journal_register(journal, handle, args, result):
    journal.note_register(
        handle, args["sg"], args["nbytes"], result, args["prot"]
    )  # result = the actual registered offset


def _journal_unregister(journal, handle, args, result):
    journal.note_unregister(handle, args["offset"])


def _journal_mmap(journal, handle, args, result):
    journal.note_mmap(handle, args["roffset"], args["nbytes"], args["prot"])


# ======================================================================
# the built-in SCIF operation set (§III, Fig 3): every op exactly once.
# ======================================================================
@register(VPhiOp.OPEN, wants_endpoint=False, idempotent=True,
          replayable=True, journal=_journal_open)
def _open(backend, req, elem, a):
    ep = yield from backend.lib.open()
    return backend.new_handle(ep), 0


@register(VPhiOp.CLOSE, replayable=True, journal=_journal_close)
def _close(backend, req, elem, a):
    ep = backend.endpoint(req.handle)
    yield from backend.lib.close(ep)
    backend.drop_handle(req.handle)
    return 0, 0


@register(VPhiOp.BIND, args=(ArgSpec("port", default=0, convert=int),),
          replayable=True, journal=_journal_bind)
def _bind(backend, req, elem, a):
    port = yield from backend.lib.bind(backend.endpoint(req.handle), a["port"])
    return port, 0


@register(VPhiOp.LISTEN, args=(ArgSpec("backlog", default=16, convert=int),),
          idempotent=True, replayable=True, journal=_journal_listen)
def _listen(backend, req, elem, a):
    yield from backend.lib.listen(backend.endpoint(req.handle), a["backlog"])
    return 0, 0


@register(VPhiOp.CONNECT, args=(ArgSpec("addr", convert=tuple),),
          replayable=True, journal=_journal_connect)
def _connect(backend, req, elem, a):
    port = yield from backend.lib.connect(
        backend.endpoint(req.handle), tuple(a["addr"])
    )
    return port, 0


@register(
    VPhiOp.ACCEPT,
    args=(ArgSpec("block", default=True, convert=bool),),
    blocking_class=NONBLOCKING,  # completion time unbounded (§III)
)
def _accept(backend, req, elem, a):
    conn, peer = yield from backend.lib.accept(
        backend.endpoint(req.handle), block=a["block"]
    )
    return (backend.new_handle(conn), peer), 0


@register(
    VPhiOp.SEND,
    args=(ArgSpec("flags", default=1, convert=int),),
    carries_out=True,
)
def _send(backend, req, elem, a):
    from ..scif import SendFlag

    payload = backend.out_payload(elem)
    n = yield from backend.lib.send(
        backend.endpoint(req.handle), payload, SendFlag(a["flags"])
    )
    return n, 0


@register(
    VPhiOp.RECV,
    args=(
        ArgSpec("nbytes", convert=int),
        ArgSpec("flags", default=1, convert=int),
    ),
    carries_in=True,
)
def _recv(backend, req, elem, a):
    from ..scif import RecvFlag

    data = yield from backend.lib.recv(
        backend.endpoint(req.handle), a["nbytes"], RecvFlag(a["flags"])
    )
    written = backend.scatter_in(elem, data)
    return len(data), written


@register(
    VPhiOp.REGISTER,
    args=(
        ArgSpec("sg"),
        ArgSpec("nbytes", convert=int),
        ArgSpec("offset", default=None),
        ArgSpec("prot", default=3, convert=int),
    ),
    replayable=True,
    journal=_journal_register,
)
def _register_window(backend, req, elem, a):
    from ..scif import Prot

    # the guest pinned its pages; their SG rides the request
    offset = yield from backend.lib.register_sg(
        backend.endpoint(req.handle),
        a["sg"],
        a["nbytes"],
        offset=a["offset"],
        prot=Prot(a["prot"]),
        label=f"{backend.vm.name}-guest-window",
    )
    return offset, 0


@register(VPhiOp.UNREGISTER, args=(ArgSpec("offset", convert=int),),
          replayable=True, journal=_journal_unregister)
def _unregister_window(backend, req, elem, a):
    yield from backend.lib.unregister(backend.endpoint(req.handle), a["offset"])
    return 0, 0


_RMA_ARGS = (
    ArgSpec("loffset", convert=int),
    ArgSpec("nbytes", convert=int),
    ArgSpec("roffset", convert=int),
    ArgSpec("flags", default=0, convert=int),
)


@register(VPhiOp.READFROM, args=_RMA_ARGS, idempotent=True,
          pre_cost=RMA_PRE_COST, post_cost=RMA_POST_COST)
def _readfrom(backend, req, elem, a):
    # window-to-window: both sides pinned, DMA direct (no bounce)
    n = yield from backend.window_rma(req, "read")
    return n, 0


@register(VPhiOp.WRITETO, args=_RMA_ARGS, idempotent=True,
          pre_cost=RMA_PRE_COST, post_cost=RMA_POST_COST)
def _writeto(backend, req, elem, a):
    n = yield from backend.window_rma(req, "write")
    return n, 0


_VRMA_ARGS = (
    ArgSpec("roffset", convert=int),
    ArgSpec("flags", default=0, convert=int),
)


@register(VPhiOp.VREADFROM, args=_VRMA_ARGS, carries_in=True, idempotent=True,
          pre_cost=RMA_PRE_COST, post_cost=RMA_POST_COST)
def _vreadfrom(backend, req, elem, a):
    n = yield from backend.chunked_rma(req, elem, "read")
    return n, n


@register(VPhiOp.VWRITETO, args=_VRMA_ARGS, carries_out=True, idempotent=True,
          pre_cost=RMA_PRE_COST, post_cost=RMA_POST_COST)
def _vwriteto(backend, req, elem, a):
    n = yield from backend.chunked_rma(req, elem, "write")
    return n, 0


@register(
    VPhiOp.MMAP,
    args=(
        ArgSpec("roffset", convert=int),
        ArgSpec("nbytes", convert=int),
        ArgSpec("prot", default=3, convert=int),
    ),
    idempotent=True,
    replayable=True,
    journal=_journal_mmap,
)
def _mmap(backend, req, elem, a):
    from ..kvm.fault import PfnPhiInfo
    from ..scif import Prot

    ep = backend.endpoint(req.handle)
    if ep.peer is None:
        raise ScifError("mmap on unconnected endpoint")
    sg = ep.peer.windows.resolve(a["roffset"], a["nbytes"], Prot(a["prot"]))
    yield backend.sim.timeout(backend.costs.backend)
    # the "<15 LOC host SCIF driver" half: hand the frame numbers back so
    # the guest VMA can be tagged VM_PFNPHI.
    return PfnPhiInfo(sg), 0


@register(VPhiOp.FENCE_MARK)
def _fence_mark(backend, req, elem, a):
    mark = yield from backend.lib.fence_mark(backend.endpoint(req.handle))
    return mark, 0


@register(
    VPhiOp.FENCE_WAIT,
    args=(ArgSpec("mark", convert=int),),
    blocking_class=NONBLOCKING,  # waits for DMA completion: unbounded
    idempotent=True,
)
def _fence_wait(backend, req, elem, a):
    yield from backend.lib.fence_wait(backend.endpoint(req.handle), a["mark"])
    return 0, 0


@register(
    VPhiOp.FENCE_SIGNAL,
    args=(
        ArgSpec("loffset"),
        ArgSpec("lval", convert=int),
        ArgSpec("roffset"),
        ArgSpec("rval", convert=int),
    ),
    blocking_class=NONBLOCKING,
)
def _fence_signal(backend, req, elem, a):
    yield from backend.lib.fence_signal(
        backend.endpoint(req.handle), a["loffset"], a["lval"],
        a["roffset"], a["rval"],
    )
    return 0, 0


@register(VPhiOp.GET_NODE_IDS, wants_endpoint=False, idempotent=True)
def _get_node_ids(backend, req, elem, a):
    ids = yield from backend.lib.get_node_ids()
    return ids, 0


@register(
    VPhiOp.POLL,
    args=(
        ArgSpec("mask", convert=int),
        ArgSpec("timeout", default=None),
    ),
    blocking_class=NONBLOCKING,  # completion time unbounded (§III)
    idempotent=True,
)
def _poll(backend, req, elem, a):
    from ..scif import PollEvent

    revents = yield from backend.lib.poll(
        [(backend.endpoint(req.handle), PollEvent(a["mask"]))],
        timeout=a["timeout"],
    )
    return int(revents[0]), 0


@register(VPhiOp.SYSFS_READ, args=(ArgSpec("path", convert=str),),
          wants_endpoint=False, idempotent=True)
def _sysfs_read(backend, req, elem, a):
    yield backend.sim.timeout(0)
    return backend.host_kernel.sysfs.read(a["path"]), 0
