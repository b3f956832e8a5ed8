"""Every metric the benchmark emits, declared once.

A declaration carries the name, unit, better direction, kind (end-to-end
or layer) and owning module.  An end-to-end metric carries the bound by
which it may worsen; a layer metric carries the end-to-end metric and
workload it should move, and the workloads where it should stay flat.
``BENCHMARK.json`` is a view of this table (:func:`manifest`), and every
run checks that the file still matches it.  :func:`emit` refuses a name
that is not declared, so a misspelt metric fails instead of reading 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import layers

RUN_SECONDS = 30
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

WORKLOADS = {
    "rma_read": "Fig 5 vreadfrom sweep, 64 KB-256 MB, one closed-loop client; "
                "bound by the memory model (mem, pcie), the kernel barely shows",
    "qos_oversub": "A12: 200 tenant VMs, Poisson arrivals at ~10x a 4-slot card, "
                   "wfq; bound by the DES kernel and the per-op vPHI path",
    "dgemm_launch": "Fig 7 micnativeloadex dgemm, 112 threads, N 500-12000, native "
                    "and from a VM; bulk SCIF send/recv copies of binary and inputs",
    "dgemm_tdp": "A14 fixed dgemm job under 0/260/230/200 W caps; the only workload "
                 "that runs phi and uos, kernel load is call_at governor chains",
}

END_TO_END = "end_to_end"
LAYER = "layer"


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str
    owner: str
    doc: str
    bound: float | None = None
    #: layer metrics: (end-to-end metric, workload) pairs it should move.
    moves: tuple = ()
    #: layer metrics: workloads where it should not move.
    flat: tuple = ()
    #: listed in BENCHMARK.json (an end-to-end metric that reads 0 at
    #: the seed cannot be bounded as a share of its median, so it is not).
    manifest: bool = True


def _e2e(name, unit, better, bound, doc, manifest=True):
    return Metric(name, unit, better, END_TO_END, "perfbench.run", doc,
                  bound=bound, manifest=manifest)


_E2E = [
    _e2e("wall_s", "s", "lower", 0.25,
         "host seconds from the first simulated op to the outputs, median "
         "over the run's regenerations, at the reference runner's speed "
         "(run.Reference)"),
    _e2e("setup_s", "s", "lower", 0.25,
         "host seconds before that, at the reference runner's speed: CPU "
         "seconds of a fresh interpreter that starts and imports (median of "
         "five) plus machine boot, create_vm and plan creation (median over "
         "regenerations)"),
    _e2e("peak_rss_mb", "MB", "lower", 0.05,
         "peak resident memory of the process through its first "
         "regeneration: imports plus one regeneration, nothing inherited"),
    _e2e("sim_s_per_wall_s", "s/s", "higher", 0.25,
         "simulated seconds covered per second of wall_s; median over "
         "regenerations"),
    _e2e("failed_frac", "ratio", "lower", None,
         "operations failed / attempted: untyped errors, payload or golden "
         "mismatches, conservation violations, unfinished ops; sheds are "
         "not failures.  Carried by the result's attempted/failed fields",
         manifest=False),
]

#: layer -> ([(metric suffix, unit, better, doc)], moves, flat); a
#: layer's owning modules are the ones ``layers.MODULE_LAYERS`` maps to it
_ALL = ("rma_read", "qos_oversub", "dgemm_launch", "dgemm_tdp")
_LAYERS = {
    "sim": ([
        ("events", "count", "lower", "calendar-queue entries popped"),
        ("queue_s", "s", "lower",
         "inclusive time in CalendarQueue push/pop/cancel/peek"),
        ("ns_per_event", "ns", "lower", "sim self time per event popped"),
        ("cancel_ratio", "ratio", "lower",
         "cancels / pushes: queue work tombstoned"),
        ("events_per_heapq_op", "ratio", "higher",
         "kernel timeout-loop events/s over raw heapq push+pop/s, both "
         "measured in this process (the throughput gate's ratio)"),
    ], [("wall_s", "qos_oversub"), ("wall_s", "dgemm_tdp")], ("rma_read",)),
    "trace": ([
        ("updates", "count", "lower", "Tracer count/accumulate/observe calls"),
        ("spans", "count", "lower", "request spans opened"),
    ], [("wall_s", "qos_oversub")], ("rma_read", "dgemm_tdp")),
    "mem": ([
        ("translates", "count", "lower", "AddressSpace.translate calls"),
        ("pins", "count", "lower", "AddressSpace.pin calls"),
        ("sg_entries", "count", "lower", "entries in SG lists built"),
        ("bytes_copied", "B", "lower", "bytes through PhysicalMemory.copy"),
    ], [("wall_s", "rma_read"), ("peak_rss_mb", "rma_read"),
        ("wall_s", "dgemm_launch"), ("peak_rss_mb", "dgemm_launch")],
        ("dgemm_tdp",)),
    "pcie": ([
        ("dma_bytes", "B", "lower", "bytes moved by DMA SG copies"),
    ], [("wall_s", "rma_read")], ("qos_oversub", "dgemm_tdp")),
    "virtio": ([
        ("chains", "count", "lower", "descriptor chains added to the ring"),
    ], [("wall_s", "qos_oversub")], ("rma_read",)),
    "kvm": ([
        ("ept_faults", "count", "lower", "KvmMmu.handle_fault calls"),
    ], [("wall_s", "qos_oversub")], ("dgemm_tdp",)),
    "vphi.frontend": ([
        ("submits", "count", "lower",
         "VPhiFrontend submit and submit_batch calls"),
    ], [("wall_s", "qos_oversub")], ("rma_read",)),
    "vphi.backend": ([
        ("ops_per_drain", "ratio", "higher",
         "chains popped from the avail ring per backend drain"),
    ], [("wall_s", "qos_oversub"), ("wall_s", "dgemm_launch")],
        ("dgemm_tdp",)),
    "vphi.pool": ([
        ("grants", "count", "lower", "CardArbiter dispatch credits granted"),
        ("arbiter_s", "s", "lower", "inclusive time in CardArbiter methods"),
        ("batch_s", "s", "lower",
         "inclusive time in VPhiBackend._charge_batch (pooled drain "
         "accounting)"),
    ], [("wall_s", "qos_oversub")], ("rma_read", "dgemm_launch", "dgemm_tdp")),
    "vphi.qos": ([
        ("admit_ratio", "ratio", "higher",
         "admitted / offered at AdmissionController.admit"),
    ], [("wall_s", "qos_oversub")], ("rma_read", "dgemm_launch", "dgemm_tdp")),
    "scif": ([
        ("bytes_moved", "B", "lower",
         "bytes through Endpoint enqueue_rx and dequeue_rx"),
    ], [("wall_s", "dgemm_launch")], ("dgemm_tdp",)),
    "traffic": ([], [("wall_s", "qos_oversub")],
                ("rma_read", "dgemm_launch", "dgemm_tdp")),
    "launch": ([], [("wall_s", "dgemm_launch")],
               ("rma_read", "qos_oversub", "dgemm_tdp")),
    "phi": ([
        ("advances", "count", "lower", "PhiPowerModel.advance calls"),
        ("ns_per_advance", "ns", "lower",
         "inclusive time per PhiPowerModel.advance call"),
    ], [("wall_s", "dgemm_tdp")], ("rma_read", "qos_oversub", "dgemm_launch")),
    "uos": ([], [("wall_s", "dgemm_tdp")], ("rma_read", "qos_oversub")),
    "system": ([], [("setup_s", w) for w in _ALL], ()),
    "analysis": ([], [("wall_s", "qos_oversub")], ("rma_read",)),
    "bench": ([
        ("trace_overhead_frac", "ratio", "lower",
         "traced regeneration time / untraced - 1"),
        ("ref_heapq_ops_per_s", "1/s", "higher",
         "raw heapq push+pop per second on this runner"),
        ("ref_memcpy_gb_per_s", "GB/s", "higher",
         "np.copyto bandwidth over 64 MB on this runner"),
    ], [], ()),
}


def _declare() -> dict[str, Metric]:
    table: dict[str, Metric] = {}

    def add(metric: Metric) -> None:
        if not NAME.fullmatch(metric.name) or metric.name in table:
            raise ValueError(f"bad or duplicate metric name {metric.name!r}")
        table[metric.name] = metric

    for m in _E2E:
        add(m)
    owners = {}
    for prefix, layer in layers.MODULE_LAYERS.items():
        owners[layer] = f"{owners[layer]} {prefix}" if layer in owners else prefix
    if set(owners) != set(_LAYERS):
        raise ValueError(f"layers without metrics or modules: "
                         f"{sorted(set(owners) ^ set(_LAYERS))}")
    for layer, (extra, moves, flat) in _LAYERS.items():
        owner = owners[layer]
        if layer == "bench":
            common = [("calls", "count", "lower",
                       "measured phases (sweep points) per regeneration"),
                      ("self_s", "s", "lower",
                       "host self time of the benchmark's own client processes")]
        else:
            common = [("calls", "count", "lower",
                       "calls into the layer's public functions, methods "
                       "and property getters"),
                      ("self_s", "s", "lower",
                       "host self time: span time minus nested spans, less "
                       "the tracer's cost measured per wrapper kind")]
        for suffix, unit, better, doc in common + extra:
            add(Metric(f"{layer}.{suffix}", unit, better, LAYER, owner, doc,
                       moves=tuple(moves), flat=tuple(flat)))
    return table


METRICS = _declare()
LAYER_NAMES = tuple(_LAYERS)


def declared(name: str) -> Metric:
    """The declaration of ``name``; an undeclared name raises."""
    try:
        return METRICS[name]
    except KeyError:
        raise KeyError(f"undeclared metric {name!r}") from None


def emit(values: dict, kind: str) -> dict:
    """Values of one kind as ``{name: {"value", "unit"}}`` for the result
    line.  Every manifest metric of the kind must be present, every name
    declared, every value finite."""
    out = {}
    for name, value in values.items():
        m = declared(name)
        if m.kind != kind or not m.manifest:
            raise KeyError(f"metric {name!r} is not a {kind} manifest metric")
        if not math.isfinite(value):
            raise ValueError(f"metric {name!r} is not finite: {value!r}")
        out[name] = {"value": value, "unit": m.unit}
    want = [m.name for m in METRICS.values() if m.kind == kind and m.manifest]
    missing = [n for n in want if n not in out]
    if missing:
        raise KeyError(f"declared {kind} metrics not emitted: {missing}")
    return {n: out[n] for n in want}


def manifest() -> dict:
    """BENCHMARK.json as this table declares it."""
    e2e = [m for m in METRICS.values() if m.kind == END_TO_END and m.manifest]
    layer = [m for m in METRICS.values() if m.kind == LAYER]
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in e2e],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in layer],
    }


def check_manifest(path: Path) -> None:
    """Refuse to run when BENCHMARK.json and this table disagree."""
    written = json.loads(path.read_text())
    if written != manifest():
        raise SystemExit(f"{path} does not match perfbench/catalog.py; "
                         f"regenerate it with: python3 perfbench/run.py --manifest")
