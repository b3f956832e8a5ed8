"""Request-lifecycle span invariants through the full vPHI datapath.

Every forwarded request carries one :class:`~repro.sim.Span` from guest
marshal to guest return.  Whatever the path did — blocking or pooled
dispatch, transient-fault retries, ESTALE session fencing, machine-wide
aborts — when the machine quiesces:

* every span is closed with a terminal status (no leaks);
* its phase marks are monotone and gap-free;
* its phase durations sum to the measured end-to-end latency within
  1e-9 simulated seconds (the acceptance bound);
* fault-free spans stamp exactly the phase subsequence their
  :class:`~repro.vphi.ops.OpSpec` declares.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.analysis import (
    check_span_invariants,
    render_span_breakdown,
    span_breakdown,
    validate_chrome_trace,
)
from repro.scif import MapFlag, ScifError
from repro.scif.errors import ECONNRESET, EStaleEpoch
from repro.sim import us
from repro.vphi import BatchCall, VPhiConfig, VPhiOp, registered_ops, spec_for
from repro.vphi.ops import SPAN_RETRY_BACKOFF, SPAN_SESSION_WAIT

N_EXAMPLES = int(os.environ.get("VPHI_CHAOS_EXAMPLES", "10"))

PORT = 8800
KB = 1 << 10
MB = 1 << 20
TOL = 1e-9  # acceptance: phases sum to e2e latency within 1e-9 sim-seconds

SPEC_BY_NAME = {spec.op_name: spec for spec in registered_ops()}


def assert_span_contract(tracer):
    """The full invariant battery for one VM's tracer after quiesce."""
    problems = check_span_invariants(tracer, tol=TOL)
    assert problems == [], "\n".join(problems)
    assert not tracer.active_spans, "open spans leaked past quiesce"
    for span in tracer.spans:
        assert span.status is not None
        assert abs(sum(span.phase_durations().values()) - span.elapsed) <= TOL


def assert_declared_subsequence(span):
    """A fault-free span stamps a subsequence of its op's declared order."""
    declared = SPEC_BY_NAME[span.op].span_phases
    stamped = [phase for phase, _ in span.marks]
    it = iter(declared)
    for phase in stamped:
        for cand in it:
            if cand == phase:
                break
        else:
            pytest.fail(
                f"{span.op}: stamped {stamped} is not a subsequence "
                f"of declared {declared}"
            )


def echo_server(machine, port, nbytes):
    slib = machine.scif(machine.card_process(f"srv{port}"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        data = yield from slib.recv(conn, nbytes)
        yield from slib.send(conn, data.tobytes()[::-1])

    machine.sim.spawn(server())


def window_server(machine, port, size, fill=0x5A):
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        roff = yield from slib.register(conn, vma.start, size)
        ready.succeed(roff)
        yield from slib.recv(conn, 1)

    machine.sim.spawn(server())
    return ready


def resilient_window_server(machine, port, size, fill=0x5A, roff=0x10000):
    """Card-side peer surviving connection loss: accept in a loop and
    re-register the same backing memory at a fixed offset, so a replayed
    connect after a card reset finds the same remote window."""
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        while True:
            conn, _ = yield from slib.accept(ep)
            offset = yield from slib.register(
                conn, vma.start, size,
                offset=roff, flags=MapFlag.SCIF_MAP_FIXED,
            )
            if not ready.triggered:
                ready.succeed(offset)

    machine.sim.spawn(server())
    return ready


# ----------------------------------------------------------------------
# fault-free: both dispatch modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 4], ids=["blocking", "pooled"])
def test_fault_free_spans_close_and_telescope(workers):
    m = Machine(cards=1).boot()
    cfg = VPhiConfig(backend_workers=workers) if workers else VPhiConfig()
    vm = m.create_vm("vm0", vphi_config=cfg)
    echo_server(m, PORT, 8)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        yield from glib.send(ep, b"abcdefgh")
        data = yield from glib.recv(ep, 8)
        yield from glib.close(ep)
        return data.tobytes()

    c = vm.spawn_guest(client())
    m.run()
    assert c.value == b"hgfedcba"

    assert_span_contract(vm.tracer)
    spans = list(vm.tracer.spans)
    assert [s.op for s in spans] == ["open", "connect", "send", "recv", "close"]
    for span in spans:
        assert span.status == "ok"
        assert span.tags, "span was never bound to a wire tag"
        assert_declared_subsequence(span)
    # the payload phases only appear on the ops that carry payload
    send = next(s for s in spans if s.op == "send")
    recv = next(s for s in spans if s.op == "recv")
    assert "copy_in" in dict(send.marks)
    assert "copy_out" in dict(recv.marks)
    assert "copy_in" not in dict(recv.marks)
    # pooled dispatch stamps the credit wait; blocking never does
    pooled_phases = dict(send.marks)
    assert ("credit_wait" in pooled_phases) == bool(workers)


def test_send_span_stamps_the_fig3_path():
    """Fig 3's I/O path, read off one blocking-mode 1-byte send's span:
    every hop stamps its phase in datapath order, and the span's elapsed
    time is the Fig 4 anchor."""
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0")
    slib = m.scif(m.card_process("srv"))

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, PORT)
        yield from slib.listen(ep)
        conn, _ = yield from slib.accept(ep)
        yield from slib.recv(conn, 1)

    glib = vm.vphi.libscif(vm.guest_process("app"))

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        yield from glib.send(ep, b"\x01")

    m.sim.spawn(server())
    vm.spawn_guest(client())
    m.run()

    assert [s.op for s in vm.tracer.spans] == ["open", "connect", "send"]
    send = vm.tracer.spans[-1]
    assert [phase for phase, _ in send.marks] == [
        "marshal", "copy_in", "post", "kick", "ring", "backend_pop",
        "host_call", "completion_push", "irq_deliver", "guest_wake",
        "guest_return",
    ]
    assert send.elapsed == pytest.approx(us(382), rel=0.01)


def test_span_breakdown_and_export_agree_with_spans():
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0")
    echo_server(m, PORT, 8)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        yield from glib.send(ep, b"abcdefgh")
        yield from glib.recv(ep, 8)

    vm.spawn_guest(client())
    m.run()

    bd = span_breakdown(vm.tracer)
    for op, agg in bd.items():
        assert abs(sum(agg.phases.values()) - agg.total) <= TOL * agg.count
        assert agg.statuses == {"ok": agg.count}
    text = render_span_breakdown(bd)
    assert "send" in text and "guest_wake" in text

    doc = vm.tracer.export_chrome_trace()
    assert validate_chrome_trace(doc) == []
    # one enclosing X event per span plus one per phase segment
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    expected = sum(1 + len(s.marks) for s in vm.tracer.spans)
    assert len(xs) == expected


def test_spans_disabled_adds_no_simulated_time():
    """trace_spans=False must not change the simulation by a tick."""

    def run(trace_spans):
        m = Machine(cards=1).boot()
        vm = m.create_vm("vm0", vphi_config=VPhiConfig(trace_spans=trace_spans))
        echo_server(m, PORT, 8)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (m.card_node_id(0), PORT))
            yield from glib.send(ep, b"abcdefgh")
            yield from glib.recv(ep, 8)

        vm.spawn_guest(client())
        m.run()
        return m.sim.now, len(vm.tracer.spans)

    t_on, spans_on = run(True)
    t_off, spans_off = run(False)
    assert t_on == t_off  # byte-identical clock, not approximately
    assert spans_on > 0 and spans_off == 0


# ----------------------------------------------------------------------
# fault paths: retries, fail-fast errors, session fencing
# ----------------------------------------------------------------------
def test_retried_op_keeps_one_span_with_backoff_phase():
    """A transient ECONNRESET on an idempotent op retries invisibly; the
    request keeps ONE span spanning both attempts, with the backoff
    stamped and the renewed wire tag appended."""
    plan = FaultPlan.of(FaultSpec(
        kind=FaultKind.SCIF_ERROR, errno=ECONNRESET, op="vreadfrom", at=(0,),
    ))
    m = Machine(cards=1, fault_plan=plan).boot()
    vm = m.create_vm("vm0")
    ready = window_server(m, PORT, 4 * KB)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(4 * KB, populate=True)
        yield from glib.vreadfrom(ep, vma.start, 4 * KB, roff)
        yield from glib.send(ep, b"x")
        return int(gproc.address_space.read(vma.start, 4 * KB).sum())

    c = vm.spawn_guest(client())
    m.run()
    assert c.value == 0x5A * 4 * KB

    assert_span_contract(vm.tracer)
    rma = [s for s in vm.tracer.spans if s.op == "vreadfrom"]
    assert len(rma) == 1, "the retry must extend the span, not open another"
    span = rma[0]
    assert span.status == "ok"
    assert len(span.tags) == 2, "the retry renews the tag on the same span"
    assert SPAN_RETRY_BACKOFF in dict(span.marks)


def test_failfast_op_span_ends_with_error_status():
    plan = FaultPlan.of(FaultSpec(
        kind=FaultKind.SCIF_ERROR, errno=ECONNRESET, op="send", at=(0,),
    ))
    m = Machine(cards=1, fault_plan=plan).boot()
    vm = m.create_vm("vm0")
    ready = window_server(m, PORT, 4 * KB)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        yield ready
        try:
            yield from glib.send(ep, b"boom")
        except ScifError as err:
            return type(err).__name__

    c = vm.spawn_guest(client())
    m.run()
    assert c.value == "ECONNRESET"

    assert_span_contract(vm.tracer)
    send = next(s for s in vm.tracer.spans if s.op == "send")
    assert send.status == "error"


@pytest.mark.parametrize("workers", [0, 4], ids=["blocking", "pooled"])
def test_card_reset_fences_without_leaking_spans(workers):
    """A mid-op CARD_RESET aborts in-flight requests and fences stale
    epochs; every span still closes (ok after replay, or stale/error)."""
    plan = FaultPlan.of(FaultSpec(
        kind=FaultKind.CARD_RESET, op="vreadfrom", vm="vm0", at=(0,),
    ))
    m = Machine(cards=1, fault_plan=plan).boot()
    vm = m.create_vm(
        "vm0",
        vphi_config=VPhiConfig(recovery_policy="queue", backend_workers=workers),
    )
    ready = resilient_window_server(m, PORT, 4 * KB)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        roff = yield ready
        vma = gproc.address_space.mmap(4 * KB, populate=True)
        outcomes = []
        for _ in range(2):
            try:
                yield from glib.vreadfrom(ep, vma.start, 4 * KB, roff)
                outcomes.append("ok")
            except ScifError as err:
                outcomes.append(type(err).__name__)
        return outcomes

    c = vm.spawn_guest(client())
    m.run()
    assert c.triggered

    assert_span_contract(vm.tracer)
    statuses = {s.status for s in vm.tracer.spans}
    assert statuses <= {"ok", "error", "timeout", "stale"}
    # the fenced request either replayed (session_wait/backoff stamped on
    # its span) or surfaced a typed error — never a leak either way
    fenced = [
        s for s in vm.tracer.spans
        if SPAN_SESSION_WAIT in dict(s.marks) or SPAN_RETRY_BACKOFF in dict(s.marks)
        or s.status != "ok"
    ]
    assert fenced, "the reset left no trace on any span"


@pytest.mark.parametrize("n", [1, 3], ids=["single", "batched"])
def test_broken_session_closes_cut_requests_stale(n):
    """A session broken while requests are in flight (host failure under
    the queue policy) fails every one of them with EStaleEpoch; each
    span closes "stale" — never "ok" or "error" — and none stays in the
    active table."""
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0", vphi_config=VPhiConfig(recovery_policy="queue"))
    fe = vm.vphi.frontend

    def client():
        try:
            if n == 1:
                yield from fe.submit(VPhiOp.GET_NODE_IDS)
            else:
                yield from fe.submit_batch(
                    [BatchCall(VPhiOp.GET_NODE_IDS) for _ in range(n)])
        except EStaleEpoch:
            return "stale"

    def cutter():
        while len(fe._inflight) < n:
            yield m.sim.timeout(us(0.1))
        fe.session.force_broken("host failure")

    c = vm.spawn_guest(client())
    m.sim.spawn(cutter())
    m.run()
    assert c.value == "stale"

    spans = [s for s in vm.tracer.spans if s.op == "get_node_ids"]
    assert [s.status for s in spans] == ["stale"] * n
    assert not vm.tracer.active_spans
    assert_span_contract(vm.tracer)


def test_latency_sample_per_ring_submission_equals_its_span():
    """Single, batched and segmented submits share one latency
    definition: each ring submission records one sample, from the start
    of its marshalling to the syscall return — its span's elapsed time."""
    size = 40 * MB  # 3 segments on an 8-entry ring: 16 + 16 + 8 MB
    m = Machine(cards=1).boot()
    vm = m.create_vm("vm0")
    vm.vphi.virtio.ring.__init__(8)
    ready = window_server(m, PORT, size)
    gproc = vm.guest_process("app")
    glib = vm.vphi.libscif(gproc)
    fe = vm.vphi.frontend

    def client():
        ep = yield from glib.open()
        yield from glib.connect(ep, (m.card_node_id(0), PORT))
        roff = yield ready
        yield from glib.send(ep, b"x")
        yield from fe.submit_batch([
            BatchCall(VPhiOp.SEND, ep.handle, {"flags": 1},
                      out_data=np.ones(4, dtype=np.uint8))
            for _ in range(3)
        ])
        vma = gproc.address_space.mmap(size, populate=True)
        yield from glib.vreadfrom(ep, vma.start, size, roff)

    vm.spawn_guest(client())
    m.run()

    assert_span_contract(vm.tracer)
    by_op: dict = {}
    for span in vm.tracer.spans:
        assert span.status == "ok"
        by_op.setdefault(span.op, []).append(span.elapsed)
    assert len(by_op["send"]) == 4 and len(by_op["vreadfrom"]) == 3
    for op, elapsed in by_op.items():
        stat = vm.tracer.stats[spec_for(VPhiOp(op)).latency_key]
        assert stat.count == len(elapsed), op
        assert stat.total == pytest.approx(sum(elapsed), rel=1e-12), op
        assert stat.min == pytest.approx(min(elapsed), rel=1e-12), op
        assert stat.max == pytest.approx(max(elapsed), rel=1e-12), op


# ----------------------------------------------------------------------
# property: random op mixes under random fault plans never leak spans
# ----------------------------------------------------------------------
CHAOS_VM = "vm-chaos"

PER_VM_KINDS = tuple(
    k for k in FaultKind.ALL
    if k not in (FaultKind.CARD_RESET, FaultKind.BACKEND_RESTART)
)

fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(PER_VM_KINDS),
    op=st.sampled_from([None, "vreadfrom", "vwriteto", "fence_mark"]),
    vm=st.just(CHAOS_VM),
    every=st.integers(1, 4),
    max_fires=st.one_of(st.none(), st.integers(1, 3)),
    duration=st.floats(50e-6, 500e-6),
)

chaos_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(1, 64 * KB)),
        st.tuples(st.just("write"), st.integers(1, 64 * KB)),
        st.tuples(st.just("fence"), st.just(0)),
        st.tuples(st.just("nodes"), st.just(0)),
    ),
    min_size=2, max_size=6,
)


@settings(max_examples=N_EXAMPLES, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(fault_specs, min_size=1, max_size=3),
       ops=chaos_ops,
       workers=st.sampled_from([0, 4]))
def test_property_spans_survive_chaos(specs, ops, workers):
    m = Machine(cards=1, fault_plan=FaultPlan.of(*specs)).boot()
    cfg = VPhiConfig(op_timeout=2e-3, max_retries=2, backend_workers=workers)
    vm = m.create_vm(CHAOS_VM, vphi_config=cfg)
    card = m.card_node_id(0)
    ready = window_server(m, PORT, 256 * KB)
    gproc = vm.guest_process("chaos-app")
    glib = vm.vphi.libscif(gproc)

    def client():
        try:
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
        except ScifError:
            return
        roff = yield ready
        vma = gproc.address_space.mmap(64 * KB, populate=True)
        for verb, nbytes in ops:
            try:
                if verb == "read":
                    yield from glib.vreadfrom(ep, vma.start, nbytes, roff)
                elif verb == "write":
                    yield from glib.vwriteto(ep, vma.start, nbytes, roff)
                elif verb == "fence":
                    yield from glib.fence_mark(ep)
                else:
                    yield from glib.get_node_ids()
            except ScifError:
                pass

    c = vm.spawn_guest(client())
    m.run()
    assert c.triggered, "chaos client deadlocked"

    # whatever mix of retries, timeouts and aborts just happened: every
    # span closed, telescoped exactly, and the export stayed valid
    assert_span_contract(vm.tracer)
    assert validate_chrome_trace(vm.tracer.export_chrome_trace()) == []
    for span in vm.tracer.spans:
        assert span.status in ("ok", "error", "timeout", "stale")
