#!/usr/bin/env python3
"""Host-time benchmark of the vPHI simulator on four paper workloads.

    python3 perfbench/run.py --workload rma_read --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --all                 # every workload, one process each
    python3 perfbench/run.py --manifest            # BENCHMARK.json as declared
    python3 perfbench/run.py --update-golden       # re-bless the dgemm_launch digest

One run regenerates one workload again and again for ``--seconds`` host
seconds, each regeneration in full, one at a time, in this one process.
With ``--trace 0`` it reports the end-to-end metrics: medians over the
regenerations of ``wall_s`` and ``sim_s_per_wall_s``, the peak RSS of the
first regeneration, and ``setup_s`` from fresh interpreters that import
the program plus the in-process machine builds, the times put at the
reference runner's speed (:class:`Reference`).  With ``--trace 1`` it
runs two untraced regenerations, installs the layer wrappers
(``layers.py``), runs traced ones, and reports the per-layer metrics.
Either way it checks
every regeneration's simulated outputs -- against the goldens, against
the run's first regeneration, and traced against untraced -- and prints
one JSON result as its last line.  It exits 1 when any check failed.
"""

from __future__ import annotations

import os

# one host thread, as the workloads assume: BLAS pools started at import
# would otherwise add their CPU time to the import probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import catalog  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: fresh interpreters timed per run for the import part of setup_s.
IMPORT_PROBES = 5
#: regenerations a timed run makes even when --seconds is short.
MIN_REGENS = 3


def _load_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as err:
        raise SystemExit(f"cannot import the program from {src}: {err}")
    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    import layers
    import workloads
    return layers, workloads


# ----------------------------------------------------------------------
# host measurements
# ----------------------------------------------------------------------
def import_seconds() -> float:
    """Interpreter start plus every import a workload needs: the CPU
    seconds of a fresh interpreter that does only that.  CPU time leaves
    out the fork, the exec and the wait to be scheduled, which belong to
    the runner, not to the program."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import workloads")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit("import probe failed")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def peak_rss_mb() -> float:
    """This process's peak resident memory so far (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


#: about the runner reference's median pass on a quiet stretch of the
#: runner the bounds were set on (2 vCPUs of a shared Xeon VM, see
#: README.md).  Host times are reported at that speed: measured seconds
#: x REFERENCE_S / this run's median pass.
REFERENCE_S = 0.016
REFERENCE_EVENTS = 20_000
#: reference passes timed before each import probe and regeneration
REFERENCE_PASSES = 5
#: above glibc's largest mmap threshold, so every pass maps fresh pages
REFERENCE_BYTES = 32 << 20


def reference_seconds() -> float:
    """One pass of the runner reference, in host seconds.

    The workloads spend their host time in two ways: the interpreter
    running event-loop code (heap pushes and pops, generator resumes),
    and numpy filling freshly mapped buffers.  The reference does a fixed
    amount of each, with no code from the program, so the program's
    changes never move it and the runner's speed does.
    """
    def proc(period):
        now = 0.0
        while True:
            now = yield now + period

    push, pop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter()
    heap = []
    for i in range(32):
        gen = proc(1e-6 * (i + 1))
        push(heap, (gen.send(None), i, gen))
    for _ in range(REFERENCE_EVENTS):
        now, i, gen = pop(heap)
        push(heap, (gen.send(now), i, gen))
    buf = np.empty(REFERENCE_BYTES, dtype=np.uint8)
    buf.fill(0x5A)
    del buf
    return time.perf_counter() - t0


class Reference:
    """Samples of the runner reference, taken between the timed parts of
    a run, and the factor that puts the run's host times at
    :data:`REFERENCE_S` speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples += [reference_seconds() for _ in range(REFERENCE_PASSES)]

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)


def heapq_ops_per_s(n: int = 100_000) -> float:
    """Raw heapq push+pop per second: the throughput gate's reference."""
    best = 0.0
    push, pop = heapq.heappush, heapq.heappop
    for _ in range(2):
        h: list = []
        t0 = time.perf_counter()
        for i in range(n):
            push(h, (i * 1e-6, i, None))
        for _ in range(n):
            pop(h)
        best = max(best, n / (time.perf_counter() - t0))
    return best


def memcpy_gb_per_s(nbytes: int = 64 << 20, reps: int = 8) -> float:
    """Flat np.copyto bandwidth: the throughput gate's memory reference."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = 0.0
    for _ in range(2):
        t0 = time.perf_counter()
        for _ in range(reps):
            np.copyto(dst, src)
        best = max(best, nbytes * reps / (time.perf_counter() - t0))
    return best / 1e9


def kernel_events_per_s(n: int = 100_000) -> float:
    """The gate's scheduler loop: one process sleeping n times."""
    from repro.sim import Simulator

    best = 0.0
    for _ in range(2):
        sim = Simulator()

        def proc():
            for _ in range(n):
                yield sim.timeout(1e-6)

        sim.spawn(proc())
        t0 = time.perf_counter()
        sim.run()
        best = max(best, n / (time.perf_counter() - t0))
    return best


def calibrate() -> dict:
    heap = heapq_ops_per_s()
    return {"ref_heapq_ops_per_s": heap,
            "ref_memcpy_gb_per_s": memcpy_gb_per_s(),
            "events_per_heapq_op": kernel_events_per_s() / heap}


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
class Outcome:
    """Op accounting and output checks across a run's regenerations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None

    def add(self, regen, label: str) -> None:
        self.attempted += regen.attempted
        self.failed += regen.failed
        self.problems += regen.problems
        if self.reference is None:
            self.reference = regen.outputs
        elif regen.outputs != self.reference and not regen.failed:
            self.failed += regen.attempted
            self.problems.append(f"{label} outputs differ from the run's "
                                 "first regeneration")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def regenerate(workloads, name, seed, reduced, observer=None):
    gc.collect()
    return workloads.regenerate(name, seed, reduced, observer=observer)


def timed_run(workloads, name: str, seed: int, seconds: float,
              reduced: bool = False) -> dict:
    t_start = time.perf_counter()
    outcome = Outcome()
    walls, builds, rates, points, spans = [], [], [], [], []

    def regen_once():
        t0 = time.perf_counter()
        regen = regenerate(workloads, name, seed, reduced)
        spans.append(time.perf_counter() - t0)
        outcome.add(regen, f"regeneration {len(walls) + 1}")
        clock = regen.clock
        walls.append(clock.wall_s)
        points.append(clock.points)
        builds.append(clock.setup_s)
        rates.append(clock.sim_s / clock.wall_s if clock.wall_s else 0.0)

    # the first regeneration runs before anything else in this fresh
    # process allocates, so the peak is the program's alone
    regen_once()
    peak = peak_rss_mb()
    ref = Reference()
    imports = []
    for _ in range(1 if reduced else IMPORT_PROBES):
        ref.sample()
        imports.append(import_seconds())
    # stop before a regeneration that would end past --seconds
    while (len(walls) < MIN_REGENS or time.perf_counter() - t_start
           + statistics.median(spans) < seconds):
        ref.sample()
        regen_once()
    scale = ref.scale
    metrics = {
        "wall_s": statistics.median(walls) * scale,
        "setup_s": (statistics.median(imports) + statistics.median(builds)) * scale,
        "peak_rss_mb": peak,
        "sim_s_per_wall_s": statistics.median(rates) / scale,
    }
    # host seconds as measured, before the runner scale
    detail = {"wall_s": walls, "import_s": imports, "build_s": builds,
              "sim_s_per_wall_s": rates, "point_wall_s": points,
              "reference_s": ref.samples, "scale": scale}
    return {"outcome": outcome, "metrics": metrics, "detail": detail,
            "calibration": calibrate()}


def traced_run(layers, workloads, name: str, seed: int, seconds: float,
               reduced: bool = False) -> dict:
    outcome = Outcome()
    t_start = time.perf_counter()
    untraced = []
    for i in range(2):  # the first also warms caches and lazy imports
        regen = regenerate(workloads, name, seed, reduced)
        outcome.add(regen, f"untraced regeneration {i + 1}")
        untraced.append(regen.clock.wall_s)
    trace = layers.LayerTrace()
    trace.install()
    traced, spans = [], []
    try:
        while not traced or (time.perf_counter() - t_start
                             + statistics.median(spans) < seconds):
            t0 = time.perf_counter()
            regen = regenerate(workloads, name, seed, reduced, observer=trace)
            spans.append(time.perf_counter() - t0)
            outcome.add(regen, f"traced regeneration {len(traced) + 1}")
            traced.append(regen.clock.wall_s)
    finally:
        trace.uninstall()
    calib = calibrate()
    metrics = layer_metrics(trace, len(traced), sum(traced), untraced[-1], calib)
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "tracer_cost_s": trace.cost, "top_entries": trace.top_entries()}
    OUT_DIR.mkdir(exist_ok=True)
    trace.write_spans(OUT_DIR / f"spans-{name}.json")
    return {"outcome": outcome, "metrics": metrics, "detail": detail,
            "calibration": calib}


def layer_metrics(trace, regens: int, traced_s: float, untraced_s: float,
                  calib: dict) -> dict:
    """Per-regeneration layer metrics from ``regens`` traced regenerations
    (``traced_s`` in all) against one untraced one (``untraced_s``)."""
    m = trace.measured
    counts = m["counts"]
    self_s = trace.self_seconds()

    def per(value):
        return value / regens

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in catalog.LAYER_NAMES:
        out[f"{layer}.self_s"] = per(self_s[layer])
        if layer != "bench":
            out[f"{layer}.calls"] = per(m["calls"][layer])
    out["bench.calls"] = per(trace.windows)
    events = counts["queue.popped"]
    out.update({
        "sim.events": per(events),
        "sim.queue_s": per(m["groups"]["queue"]),
        "sim.ns_per_event": ratio(self_s["sim"], events) * 1e9,
        "sim.cancel_ratio": ratio(counts["queue.cancels"], counts["queue.pushes"]),
        "sim.events_per_heapq_op": calib["events_per_heapq_op"],
        "trace.updates": per(counts["tracer.updates"]),
        "trace.spans": per(counts["tracer.spans"]),
        "mem.translates": per(counts["mem.translates"]),
        "mem.pins": per(counts["mem.pins"]),
        "mem.sg_entries": per(counts["mem.sg_entries"]),
        "mem.bytes_copied": per(counts["mem.bytes_copied"]),
        "pcie.dma_bytes": per(counts["pcie.dma_bytes"]),
        "virtio.chains": per(counts["virtio.chains"]),
        "kvm.ept_faults": per(counts["kvm.ept_faults"]),
        "vphi.frontend.submits": per(counts["frontend.submits"]),
        "vphi.backend.ops_per_drain": ratio(counts["virtio.popped"],
                                            counts["backend.drains"]),
        "vphi.pool.grants": per(counts["pool.grants"]),
        "vphi.pool.arbiter_s": per(m["groups"]["arbiter"]),
        "vphi.pool.batch_s": per(m["groups"]["batch"]),
        "vphi.qos.admit_ratio": ratio(
            counts["qos.admitted"], counts["qos.admitted"] + counts["qos.refused"]),
        "scif.bytes_moved": per(counts["scif.bytes"]),
        "phi.advances": per(counts["phi.advances"]),
        "phi.ns_per_advance": ratio(m["groups"]["advance"],
                                    counts["phi.advances"]) * 1e9,
        "bench.trace_overhead_frac": traced_s / (untraced_s * regens) - 1.0,
        "bench.ref_heapq_ops_per_s": calib["ref_heapq_ops_per_s"],
        "bench.ref_memcpy_gb_per_s": calib["ref_memcpy_gb_per_s"],
    })
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, seed: int, trace: bool, run: dict) -> int:
    """Human lines, the run record file, then the JSON result line."""
    outcome: Outcome = run["outcome"]
    kind = catalog.LAYER if trace else catalog.END_TO_END
    metrics = catalog.emit(run["metrics"], kind)
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"{name} seed={seed} trace={int(trace)}: {outcome.failed} of "
          f"{outcome.attempted} ops failed")
    for problem in outcome.problems[:20]:
        print(f"  FAIL {problem}")
    rows = dict(metrics)
    if not trace:
        rows["failed_frac"] = {"value": failed_frac,
                               "unit": catalog.declared("failed_frac").unit}
    samples = {k: len(v) for k, v in run["detail"].items() if isinstance(v, list)}
    for key, rec in rows.items():
        n = samples.get(key)
        note = f"  (median of {n})" if n else ""
        print(f"  {key:<28} {_fmt(rec['value']):>14} {rec['unit']}{note}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "problems": outcome.problems,
              "failed_frac": failed_frac, "metrics": metrics,
              "detail": run["detail"], "calibration": run.get("calibration")}
    (OUT_DIR / f"run-{name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, so no peak is inherited."""
    status = 0
    summary = []
    for name in catalog.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status |= proc.returncode != 0
        if lines:
            summary.append((name, json.loads(lines[-1])))
    print()
    for name, res in summary:
        cells = "  ".join(f"{k}={_fmt(v['value'])} {v['unit']}"
                          for k, v in res["metrics"].items())
        frac = res["failed"] / res["attempted"]
        print(f"{name:<13} {cells}  failed_frac={_fmt(frac)} ratio")
    return 1 if status or len(summary) != len(catalog.WORKLOADS) else 0


def update_golden(workloads) -> int:
    """Re-bless the benchmark's own dgemm_launch digest at the default seed."""
    regen = workloads.WORKLOADS["dgemm_launch"](
        workloads.DEFAULT_SEED, workloads.Stopwatch(), False)
    if regen.failed:
        print("\n".join(regen.problems))
        return 1
    path = workloads.OWN_GOLDEN / "dgemm_launch.json"
    path.parent.mkdir(exist_ok=True)
    body = dict(regen.outputs, sha256=workloads.digest(regen.outputs))
    path.write_text(workloads.canonical(body))
    print(f"blessed {path} ({body['sha256'][:12]})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, one process each")
    ap.add_argument("--manifest", action="store_true",
                    help="print BENCHMARK.json as perfbench/catalog.py declares it")
    ap.add_argument("--update-golden", action="store_true",
                    help="re-bless perfbench/golden/dgemm_launch.json")
    args = ap.parse_args(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    catalog.check_manifest(ROOT / "BENCHMARK.json")
    if args.all:
        return run_all(args.seed, int(args.seconds))
    layers, workloads = _load_program()
    if args.update_golden:
        return update_golden(workloads)
    if args.workload is None:
        ap.error("--workload is required")
    if args.trace:
        run = traced_run(layers, workloads, args.workload, args.seed, args.seconds)
    else:
        run = timed_run(workloads, args.workload, args.seed, args.seconds)
    return report(args.workload, args.seed, bool(args.trace), run)


if __name__ == "__main__":
    sys.exit(main())
