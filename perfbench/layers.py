"""Outside-in host-time attribution for the traced run.

Before any machine is built, :meth:`LayerTrace.install` replaces the
entry points of every ``repro`` layer with timing wrappers: each public
function, method and property getter of the layer's modules, plus the
private ones that other layers or the kernel call into
(:data:`PRIVATE_ENTRY_POINTS`).
Nothing under ``src/`` changes; :meth:`LayerTrace.uninstall` puts the
originals back.

Every call into a wrapper is a span: entry, start, duration and depth,
its parent being the enclosing span.  A generator entry point -- most
SCIF and vPHI calls are ``yield from`` generators -- is a span per
resume, so its work is billed to its own layer and not to the kernel
that resumed it.  A layer's self time is the time of its spans minus the
time of the spans nested in them, less the tracer's own cost, which is
measured in-process before the wrappers go in
(:func:`measure_tracer_cost`); the benchmark's own client processes are
the ``bench`` layer.  Probes on a few entry points turn arguments and
results into work counts (bytes copied, events popped, grants, ...).
"""

from __future__ import annotations

import enum
import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

#: module prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS = {
    "repro": "system",  # Machine glue, oscore, faults, cluster, cli
    "repro.sim": "sim",
    "repro.sim.trace": "trace",
    "repro.mem": "mem",
    "repro.pcie": "pcie",
    "repro.virtio": "virtio",
    "repro.kvm": "kvm",
    "repro.vphi": "vphi.frontend",  # + session, protocol, config
    "repro.vphi.backend": "vphi.backend",
    "repro.vphi.ops": "vphi.backend",
    "repro.vphi.pool": "vphi.pool",
    "repro.vphi.qos": "vphi.qos",
    "repro.vphi.setup": "system",
    "repro.scif": "scif",
    "repro.host": "scif",
    "repro.traffic": "traffic",
    "repro.mpss": "launch",
    "repro.coi": "launch",
    "repro.workloads": "launch",
    "repro.micnet": "launch",
    "repro.mpi": "launch",
    "repro.phi": "phi",
    "repro.uos": "uos",
    "repro.analysis": "analysis",
    "workloads": "bench",  # perfbench/workloads.py: the clients it runs
}

LAYERS = tuple(sorted(set(MODULE_LAYERS.values())))

#: private functions that another layer, or the kernel, calls into:
#: process bodies, ``call_at`` callbacks and cross-layer helpers.
#: Unlisted private code is billed to whichever layer called it.
PRIVATE_ENTRY_POINTS = frozenset({
    "repro.vphi.backend.VPhiBackend._drain",
    "repro.vphi.backend.VPhiBackend._charge_batch",
    "repro.vphi.backend.VPhiBackend._service",
    "repro.vphi.pool.WorkerPool._member",
    "repro.vphi.pool.CardArbiter._grant",
    "repro.kvm.qemu.QemuProcess._event_loop",
    "repro.kvm.qemu.QemuProcess._worker",
    "repro.traffic.harness._one_request",
    "repro.phi.power.PhiPowerModel._tick",
    "repro.uos.scheduler.MICScheduler._on_completion_check",
    "repro.coi.daemon.CoiDaemon._serve",
    "repro.coi.pipeline.PipelineManager._pipeline_loop",
    # VM construction: run_plan creates its tenants inside the measured phase
    "repro.mem.address_space.AddressSpace.__init__",
    "repro.vphi.frontend.VPhiFrontend.__init__",
    "repro.vphi.backend.VPhiBackend.__init__",
    "repro.vphi.pool.WorkerPool.__init__",
    "workloads._rma_server",
    "workloads._rma_client",
})

#: modules left unwrapped: page arithmetic (``page_offset`` and the
#: like) is called ~1M times per ``rma_read`` regeneration, almost all
#: from ``mem`` itself, and a wrapper costs more than the helper.
UNWRAPPED_MODULES = frozenset({"repro.mem.pages"})

#: spans kept for the trace file; later spans are counted, not kept.
SPAN_CAP = 20_000


def layer_of(module: str):
    """The layer a module belongs to, or None outside ``repro``."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


# ----------------------------------------------------------------------
# probes: entry point -> [(raw counter, f(args, kwargs, result, exc))];
# a probe also runs when the call raised (result None, exc set)
# ----------------------------------------------------------------------
def _one(args, kwargs, res, exc):
    return 1


def _nonnull(args, kwargs, res, exc):
    return res is not None


def _arg(i, name):
    def get(args, kwargs, res, exc):
        return kwargs[name] if name in kwargs else args[i]
    return get


def _len(args, kwargs, res, exc):
    return 0 if res is None else len(res)


def _ok(args, kwargs, res, exc):
    return exc is None


def _refused(args, kwargs, res, exc):
    return exc is not None


PROBES = {
    "repro.sim.calendar.CalendarQueue.push": [("queue.pushes", _one)],
    "repro.sim.calendar.CalendarQueue.pop": [("queue.popped", _nonnull)],
    "repro.sim.calendar.CalendarQueue.cancel": [("queue.cancels", _one)],
    "repro.sim.trace.Tracer.count": [("tracer.updates", _one)],
    "repro.sim.trace.Tracer.accumulate": [("tracer.updates", _one)],
    "repro.sim.trace.Tracer.observe": [("tracer.updates", _one)],
    "repro.sim.trace.Tracer.new_span": [("tracer.spans", _nonnull)],
    "repro.mem.address_space.AddressSpace.translate": [("mem.translates", _one)],
    "repro.mem.address_space.AddressSpace.pin": [("mem.pins", _one)],
    "repro.mem.address_space.AddressSpace.sg_list": [("mem.sg_entries", _len)],
    "repro.mem.physical.PhysicalMemory.copy": [
        ("mem.bytes_copied", _arg(4, "nbytes"))],
    "repro.pcie.dma.sg_copy": [("pcie.dma_bytes", lambda a, k, r, e: r or 0)],
    "repro.virtio.ring.Vring.add_chain": [("virtio.chains", _one)],
    "repro.virtio.ring.Vring.pop_avail": [("virtio.popped", _nonnull)],
    "repro.kvm.fault.KvmMmu.handle_fault": [("kvm.ept_faults", _one)],
    "repro.vphi.frontend.VPhiFrontend.submit": [("frontend.submits", _one)],
    "repro.vphi.frontend.VPhiFrontend.submit_batch": [("frontend.submits", _one)],
    "repro.vphi.backend.VPhiBackend._drain": [("backend.drains", _one)],
    "repro.vphi.pool.CardArbiter._grant": [("pool.grants", _one)],
    "repro.vphi.qos.AdmissionController.admit": [
        ("qos.admitted", _ok), ("qos.refused", _refused)],
    "repro.scif.endpoint.Endpoint.enqueue_rx": [
        ("scif.bytes", lambda a, k, r, e: len(k["data"] if "data" in k else a[1]))],
    "repro.scif.endpoint.Endpoint.dequeue_rx": [("scif.bytes", _len)],
    "repro.phi.power.PhiPowerModel.advance": [("phi.advances", _one)],
}

RAW_COUNTS = tuple(sorted({key for probes in PROBES.values() for key, _ in probes}))

#: inclusive-time groups: outermost call into any member counts.
TIMED_GROUPS = {
    "queue": ("repro.sim.calendar.CalendarQueue.push",
              "repro.sim.calendar.CalendarQueue.pop",
              "repro.sim.calendar.CalendarQueue.cancel",
              "repro.sim.calendar.CalendarQueue.peek"),
    "arbiter": ("repro.vphi.pool.CardArbiter.",),  # every wrapped method
    "batch": ("repro.vphi.backend.VPhiBackend._charge_batch",),
    "advance": ("repro.phi.power.PhiPowerModel.advance",),
}


def _group_of(qual: str):
    for group, members in TIMED_GROUPS.items():
        for m in members:
            if qual == m or (m.endswith(".") and qual.startswith(m)):
                return group
    return None


#: wrapper kinds whose cost :func:`measure_tracer_cost` measures
COST_KINDS = ("call", "probe", "resume", "complete", "create")


def _wrapper_factories(trace: "LayerTrace", cost: dict):
    """Wrapper makers closed over ``trace``'s accumulators (closure cells
    are the cheapest state a wrapper can reach on every call).

    A wrapper's bookkeeping around its timed interval runs inside the
    span it was called from, and a little of it inside the interval
    itself.  ``cost[kind]`` is that per-call cost as (seconds outside,
    seconds inside): each wrapper adds the outside part to its caller's
    ``tax`` and takes the inside part off its own self time.
    """
    entry_self, entry_calls, tax = trace.entry_self, trace.entry_calls, trace.tax
    stack, owners = trace._stack, trace._owners
    spans, cap = trace.spans, trace.span_cap
    counts, group_s, gdepth = trace.counts, trace.group_s, trace._group_depth
    clock = time.perf_counter
    gen_type = types.GeneratorType
    call_out, call_in = cost["call"]
    probe_out, probe_in = cost["probe"]
    resume_out, resume_in = cost["resume"]
    _, complete_in = cost["complete"]
    create_out, _ = cost["create"]

    def drive(gen, idx):
        """Resume ``gen`` for its caller, one span per resume."""
        send, throw = gen.send, gen.throw
        value = pending = None
        while True:
            if owners:
                tax[owners[-1]] += resume_out
            stack.append(0.0)
            owners.append(idx)
            t0 = clock()
            try:
                if pending is None:
                    target = send(value)
                else:
                    err, pending = pending, None
                    target = throw(err)
            except StopIteration as stop:
                entry_self[idx] -= complete_in
                return stop.value
            finally:
                dt = clock() - t0
                entry_self[idx] += dt - resume_in - stack.pop()
                owners.pop()
                if stack:
                    stack[-1] += dt
                if len(spans) < cap:
                    spans.append((idx, t0, dt, len(stack)))
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # delivered into gen, raised there
                pending, value = err, None

    def resumed(gen, idx):
        timed = drive(gen, idx)
        timed.__name__ = gen.__name__  # the kernel names processes by it
        return timed

    def generator(fn, idx):
        def wrapper(*args, **kwargs):
            entry_calls[idx] += 1
            if owners:
                tax[owners[-1]] += create_out
            return resumed(fn(*args, **kwargs), idx)
        return wrapper

    def plain(fn, idx):
        def wrapper(*args, **kwargs):
            entry_calls[idx] += 1
            if owners:
                tax[owners[-1]] += call_out
            stack.append(0.0)
            owners.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                entry_self[idx] += dt - call_in - stack.pop()
                owners.pop()
                if stack:
                    stack[-1] += dt
                if len(spans) < cap:
                    spans.append((idx, t0, dt, len(stack)))
            if res.__class__ is gen_type:
                return resumed(res, idx)
            return res
        return wrapper

    def probed(fn, idx, probes, group):
        def wrapper(*args, **kwargs):
            entry_calls[idx] += 1
            if owners:
                tax[owners[-1]] += probe_out
            if group is not None:
                outer = gdepth[group] == 0
                gdepth[group] += 1
            stack.append(0.0)
            owners.append(idx)
            exc = res = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                entry_self[idx] += dt - probe_in - stack.pop()
                owners.pop()
                if stack:
                    stack[-1] += dt
                if len(spans) < cap:
                    spans.append((idx, t0, dt, len(stack)))
                if group is not None:
                    gdepth[group] -= 1
                    if outer:
                        group_s[group] += dt
                for key, probe in probes:
                    counts[key] += probe(args, kwargs, res, exc)
                exc = None
            if res.__class__ is gen_type:
                return resumed(res, idx)
            return res
        return wrapper

    return generator, plain, probed


def measure_tracer_cost(n: int = 20_000, reps: int = 7) -> dict:
    """The tracer's cost per wrapped call, by wrapper kind, as
    ``{kind: (seconds outside the callee's span, seconds inside it)}``.

    Each kind wraps a no-op and runs ``n`` calls inside an open span, as
    the traced run does; the bare no-op runs the same loop.  The wrapped
    loop's extra time is the cost, and the part of it inside the
    callee's recorded interval is the inside cost.  The kinds:

    * ``call`` and ``probe``: a function, plain or probed in a timed group;
    * ``resume``: one resume of a generator that keeps running;
    * ``complete``: the generator's return, caught inside the interval;
    * ``create``: the rest of a generator call made with ``yield from``
      (creating the generator and its driver, the driver's first resume
      and its return to the caller), billed to the caller once per call.

    Each figure is the fastest of ``reps``.
    """
    trace = LayerTrace(span_cap=0, cost=dict.fromkeys(COST_KINDS, (0.0, 0.0)))
    generator, plain, probed = trace._wrappers
    clock = time.perf_counter

    def noop():
        return None

    def gen(k):
        for _ in range(k):
            yield None
        return k

    def calls(fn):
        t0 = clock()
        for _ in range(n):
            fn()
        return clock() - t0

    def resumes(fn):
        send = fn(n).send
        t0 = clock()
        for _ in range(n):
            send(None)
        return clock() - t0

    def returns(fn):
        """A generator call with one yield, made with ``yield from``."""
        def caller():
            for _ in range(n):
                yield from fn(1)
        send = caller().send
        t0 = clock()
        try:
            while True:
                send(None)
        except StopIteration:
            pass
        return clock() - t0

    def first_sends(k):
        kept = []  # a suspended generator dropped in the loop would be closed there
        t0 = clock()
        for _ in range(n):
            g = gen(k)
            kept.append(g)
            try:
                g.send(None)
            except StopIteration as stop:  # as the driver catches it
                stop.value
        return clock() - t0

    parent = trace._slot("calibration.parent", "bench", False)

    def extra(loop, bare, wrapped, idx):
        """(wrapped - bare, inside the callee's interval) per call."""
        timed, t_bare = [], []
        for _ in range(reps):
            trace._owners.append(parent)
            trace._stack.append(0.0)
            inside_0 = trace.entry_self[idx]
            t = loop(wrapped)
            timed.append((t, trace.entry_self[idx] - inside_0))
            trace._owners.pop()
            trace._stack.pop()
            t_bare.append(loop(bare))
        t_wrapped, inside = min(timed)
        t_bare = min(t_bare)
        return max(t_wrapped - t_bare, 0.0) / n, max(inside - t_bare, 0.0) / n

    cost = {}
    for kind, loop, bare, wrap in (
            ("call", calls, noop, lambda i: plain(noop, i)),
            ("probe", calls, noop,
             lambda i: probed(noop, i, (("calibration", _one),), "calibration")),
            ("resume", resumes, gen, lambda i: generator(gen, i))):
        idx = trace._slot(f"calibration.{kind}", "bench", False)
        total, within = extra(loop, bare, wrap(idx), idx)
        within = min(within, total)
        cost[kind] = (total - within, within)
    complete_in = max((min(first_sends(0) for _ in range(reps))
                       - min(first_sends(1) for _ in range(reps))) / n, 0.0)
    cost["complete"] = (0.0, complete_in)
    idx = trace._slot("calibration.create", "bench", False)
    total, _ = extra(returns, gen, generator(gen, idx), idx)
    resume_out, resume_in = cost["resume"]
    cost["create"] = (max(total - 2 * (resume_out + resume_in) - complete_in, 0.0),
                      0.0)
    return cost


class LayerTrace:
    """Wrappers, span log and per-entry accumulators for one process."""

    def __init__(self, span_cap: int = SPAN_CAP, cost: dict | None = None):
        self.span_cap = span_cap
        self.entries: list[tuple[str, str, bool]] = []  # (qual, layer, public)
        self.entry_self: list[float] = []
        self.entry_calls: list[int] = []
        self.tax: list[float] = []     # tracer cost paid inside each entry
        self.counts: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self._group_depth: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # per open span: time of its children
        self._owners: list[int] = []   # per open span: its entry
        self.spans: list[tuple] = []   # (entry, start, seconds, depth)
        self._patches: list[tuple] = []
        self._window = None
        #: measured phases seen, and what the layers did inside them.
        #: Plain dicts: reading a key nothing declared raises.
        self.windows = 0
        self.measured: dict = {
            "self": dict.fromkeys(LAYERS, 0.0),
            "calls": dict.fromkeys(LAYERS, 0),
            "tax": dict.fromkeys(LAYERS, 0.0),
            "counts": dict.fromkeys(RAW_COUNTS, 0.0),
            "groups": dict.fromkeys(TIMED_GROUPS, 0.0),
        }
        #: (outside, inside) seconds per wrapped call, by wrapper kind
        self.cost = measure_tracer_cost() if cost is None else cost
        self._wrappers = _wrapper_factories(self, self.cost)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _slot(self, qual: str, layer: str, public: bool) -> int:
        """A new entry point's index into the accumulators."""
        self.entries.append((qual, layer, public))
        self.entry_self.append(0.0)
        self.entry_calls.append(0)
        self.tax.append(0.0)
        return len(self.entries) - 1

    def _wrap(self, fn, qual: str, layer: str, public: bool):
        idx = self._slot(qual, layer, public)
        generator, plain, probed = self._wrappers
        probes = PROBES.get(qual, ())
        group = _group_of(qual)
        if probes or group:
            wrapper = probed(fn, idx, probes, group)
        elif inspect.isgeneratorfunction(fn):
            wrapper = generator(fn, idx)
        else:
            wrapper = plain(fn, idx)
        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _wanted(self, qual: str, name: str, layer: str) -> bool:
        if layer == "bench" or name.startswith("_"):
            return qual in PRIVATE_ENTRY_POINTS
        return True

    def install(self) -> None:
        """Wrap the entry points of every loaded ``repro`` module and of
        the benchmark's workload clients."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and layer_of(name)
                   and name not in UNWRAPPED_MODULES]
        functions = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{mod.__name__}.{name}"
                if isinstance(obj, types.FunctionType):
                    if self._wanted(qual, name, layer):
                        functions[obj] = self._wrap(obj, qual, layer,
                                                    not name.startswith("_"))
                elif (isinstance(obj, type)
                      and not issubclass(obj, (BaseException, enum.Enum))):
                    self._wrap_class(obj, qual, layer)
        # module-level functions: rebind every name, in any module, that
        # refers to one (``from x import f`` copies the reference)
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in functions:
                    self._patch(mod, name, functions[obj])
        missing = (set(PROBES) | PRIVATE_ENTRY_POINTS) - {q for q, _, _ in self.entries}
        if missing:
            self.uninstall()
            raise RuntimeError(f"layer map names entry points that no longer "
                               f"exist: {sorted(missing)}")

    def _wrap_class(self, cls, qual: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            q = f"{qual}.{attr}"
            if not self._wanted(q, attr, layer):
                continue
            public = not attr.startswith("_")
            if isinstance(raw, types.FunctionType):
                new = self._wrap(raw, q, layer, public)
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(raw.fget, q, layer, public),
                               raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, q, layer, public))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, q, layer, public))
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # measurement windows (the measured phase of each point)
    # ------------------------------------------------------------------
    def begin(self) -> None:
        if self._stack:
            raise RuntimeError("measured phase opened inside a span")
        self._window = (list(self.entry_self), list(self.entry_calls),
                        list(self.tax), dict(self.counts), dict(self.group_s))

    def end(self) -> None:
        if self._stack or self._window is None:
            raise RuntimeError("measured phase closed inside a span")
        self_0, calls_0, tax_0, counts_0, groups_0 = self._window
        self._window = None
        self.windows += 1
        m = self.measured
        for i, (_, layer, public) in enumerate(self.entries):
            m["self"][layer] += self.entry_self[i] - self_0[i]
            m["tax"][layer] += self.tax[i] - tax_0[i]
            if public:
                m["calls"][layer] += self.entry_calls[i] - calls_0[i]
        for key, v in self.counts.items():
            m["counts"][key] += v - counts_0.get(key, 0.0)
        for key, v in self.group_s.items():
            m["groups"][key] += v - groups_0.get(key, 0.0)

    def self_seconds(self) -> dict:
        """Each layer's self time over the measured phases, less the
        tracer's cost it paid (:func:`measure_tracer_cost`)."""
        m = self.measured
        return {layer: max(m["self"][layer] - m["tax"][layer], 0.0)
                for layer in LAYERS}

    # ------------------------------------------------------------------
    def top_entries(self, n: int = 25) -> list[tuple[str, float, int]]:
        """The entry points with the most self time (whole process)."""
        rows = sorted(zip(self.entries, self.entry_self, self.entry_calls),
                      key=lambda r: -r[1])
        return [(e[0], s, c) for e, s, c in rows[:n]]

    def write_spans(self, path: Path) -> None:
        """The kept spans as Chrome trace-event JSON (Perfetto opens it);
        each span's parent is the enclosing span one level up."""
        events, open_ids = [], []  # open_ids[d]: latest span at depth d
        order = sorted(range(len(self.spans)),
                       key=lambda i: (self.spans[i][1], self.spans[i][3]))
        for sid in order:
            e, t0, dt, depth = self.spans[sid]
            del open_ids[depth:]
            parent = open_ids[depth - 1] if 0 < depth <= len(open_ids) else -1
            open_ids.append(sid)
            events.append({"name": self.entries[e][0], "cat": self.entries[e][1],
                           "ph": "X", "pid": 1, "tid": 1, "ts": t0 * 1e6,
                           "dur": dt * 1e6, "args": {"id": sid, "parent": parent}})
        doc = {"traceEvents": events,
               "otherData": {"spans_kept": len(self.spans),
                             "calls_total": sum(self.entry_calls)}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
