"""The benchmark's four workloads, each a regeneration of one paper result.

A workload is a list of independent *points* (one sweep entry each).
Every point builds its machines first -- boot, ``create_vm``, plan or
daemon creation, the work public calls can do before the first simulated
operation -- and then runs the simulation to its outputs.  The two phases
are timed apart: build time is part of ``setup_s``, run time is
``wall_s``.  Checks a single operation can fail (a payload page, an exit
status) count against that operation; a golden mismatch fails every
operation of the regeneration.

The scenario constants mirror the ablation and figure modules under
``benchmarks/`` (``bench_smoke.py``, ``test_ablation_qos.py``,
``test_ablation_power.py``, ``dgemm_common.py``); the golden comparison
in :func:`check_golden` is what proves they still match.

``rma_read`` runs its own copy of the Fig 5 driver rather than
``repro.workloads.rma_read_throughput``.  The program's driver fills the
window with one constant byte and checks the last page read, which
cannot see a page landing at the wrong offset; the copy fills it with a
seeded payload of prime period and checks the first and last page of
every read at their offsets, and the seed then has an input to drive.
Its host work outside the layers (one 256 MB fill, two page compares
per read, where the program's driver makes one) is about the program
driver's, but a change to ``rma_read_throughput`` itself does not show
here; the golden check still ties the copy's simulated outputs to
``fig5.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path

import numpy as np

from repro import Machine
from repro.analysis import power_stats, qos_stats
from repro.coi import start_coi_daemon
from repro.mpss import micnativeloadex
from repro.phi import Scope
from repro.traffic import Poisson, TenantSpec, TrafficPlan, WorkloadMix, run_plan
from repro.workloads import DGEMM_BINARY, ClientContext

ROOT = Path(__file__).resolve().parent.parent
REPO_GOLDEN = ROOT / "benchmarks" / "golden"
OWN_GOLDEN = Path(__file__).resolve().parent / "golden"

#: the seed every golden was recorded at (the A12 plan seed).
DEFAULT_SEED = 7

KB = 1 << 10
MB = 1 << 20


class Stopwatch:
    """Host seconds of one regeneration, split at the first simulated op,
    plus the simulated seconds the measured phase covered.  An observer
    (the layer trace) is told when each measured phase opens and closes."""

    def __init__(self, observer=None):
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.sim_s = 0.0
        self.observer = observer
        #: host seconds of each measured phase, in run order
        self.points: list[float] = []

    def build(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.setup_s += time.perf_counter() - t0
        return out

    def run(self, sim, fn):
        start = sim.now
        if self.observer is not None:
            self.observer.begin()
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        self.wall_s += dt
        self.points.append(dt)
        if self.observer is not None:
            self.observer.end()
        self.sim_s += sim.now - start
        return out


@dataclasses.dataclass
class Regeneration:
    """One regeneration of a workload: outputs, timings, op accounting."""

    outputs: dict
    clock: Stopwatch
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)


# ----------------------------------------------------------------------
# rma_read: the Fig 5 sweep (native, then vPHI scif_vreadfrom)
# ----------------------------------------------------------------------
FIG5_SIZES = (64 * KB, 256 * KB, MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB)
#: the seeded payload repeats with a prime period, so a page landing at
#: the wrong offset reads back different bytes.
PAYLOAD_PERIOD = 65_521
RMA_PORT = 20_000


def _payload_block(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 256, size=PAYLOAD_PERIOD, dtype=np.uint8)


def _expected(block: np.ndarray, off: int, n: int) -> np.ndarray:
    return block[np.arange(off, off + n) % PAYLOAD_PERIOD]


def _rma_server(machine, window: int, block: np.ndarray, ready):
    """Fig 5's card side: register a window holding the seeded payload,
    hold it until the client says it is done."""
    sproc = machine.card_process(f"rma-server-{RMA_PORT}")
    slib = machine.scif(sproc)
    ep = yield from slib.open()
    yield from slib.bind(ep, RMA_PORT)
    yield from slib.listen(ep)
    conn, _ = yield from slib.accept(ep)
    vma = sproc.address_space.mmap(window, populate=True, name="rma-window")
    sproc.address_space.write(vma.start, np.resize(block, window))
    roff = yield from slib.register(conn, vma.start, window)
    ready.succeed(roff)
    yield from slib.recv(conn, 1)


def _rma_client(machine, ctx, sizes, window: int, block: np.ndarray, ready,
                regen: Regeneration):
    """Fig 5's §IV-B client: one timed vreadfrom per size, then a check
    of the first and last page it read."""
    space = ctx.process.address_space
    ep = yield from ctx.lib.open()
    yield from ctx.lib.connect(ep, (machine.card_node_id(0), RMA_PORT))
    roff = yield ready
    vma = space.mmap(window, populate=True, name="rma-dst")
    series = []
    for size in sizes:
        t0 = machine.sim.now
        yield from ctx.lib.vreadfrom(ep, vma.start, size, roff)
        dt = machine.sim.now - t0
        page = min(size, 4096)
        for off in (0, size - page):
            if not np.array_equal(space.read(vma.start + off, page),
                                  _expected(block, off, page)):
                regen.fail(1, f"{ctx.label} vreadfrom {size}: payload "
                              f"mismatch at offset {off}")
                break
        series.append([size, size / dt])
    yield from ctx.lib.send(ep, b"x")
    yield from ctx.lib.close(ep)
    return series


def _rma_sweep(machine, ctx, sizes, block, regen: Regeneration):
    window = max(sizes)
    ready = machine.sim.event()
    machine.sim.spawn(_rma_server(machine, window, block, ready))
    proc = ctx.spawn(_rma_client(machine, ctx, sizes, window, block, ready, regen))
    machine.run()
    return proc.value


def rma_read(seed: int, clock: Stopwatch, reduced: bool) -> Regeneration:
    sizes = FIG5_SIZES[:3] if reduced else FIG5_SIZES
    block = _payload_block(seed)
    regen = Regeneration({"figure": "fig5", "unit": "bytes_per_second"}, clock)

    def native():
        m = Machine(cards=1).boot()
        return m, ClientContext.native(m)

    def guest():
        m = Machine(cards=1).boot()
        return m, ClientContext.guest(m.create_vm("vm0"))

    for side, build in (("native", native), ("vphi", guest)):
        machine, ctx = clock.build(build)
        regen.attempted += len(sizes)
        regen.outputs[side] = clock.run(
            machine.sim, lambda: _rma_sweep(machine, ctx, sizes, block, regen))
    return regen


# ----------------------------------------------------------------------
# qos_oversub: A12's 200-tenant plan under wfq
# ----------------------------------------------------------------------
def qos_plan(seed: int, reduced: bool = False) -> TrafficPlan:
    """A12's plan (``benchmarks/test_ablation_qos.py``) under wfq."""
    gold, bronze, bulk = (16, 2, 2) if reduced else (160, 20, 20)
    return TrafficPlan(
        tenants=[
            TenantSpec(name="gold", arrivals=Poisson(20_000.0),
                       mix=WorkloadMix.interactive(), share=4.0, priority=0,
                       count=gold),
            TenantSpec(name="bronze", arrivals=Poisson(10_000.0),
                       mix=WorkloadMix.interactive(), share=1.0, priority=1,
                       count=bronze),
            TenantSpec(name="bulk", arrivals=Poisson(2_000.0),
                       mix=WorkloadMix.bulk(), share=0.0, priority=2,
                       count=bulk),
        ],
        policy="wfq", duration=0.002 if reduced else 0.008, seed=seed,
        slots=4, backend_workers=2, max_inflight=4, admit_queue_depth=8,
    )


def qos_oversub(seed: int, clock: Stopwatch, reduced: bool) -> Regeneration:
    plan, machine = clock.build(
        lambda: (qos_plan(seed, reduced), Machine(cards=1).boot()))

    def drive():
        result = run_plan(plan, machine=machine)
        return result, qos_stats(result)

    result, report = clock.run(machine.sim, drive)
    gold_p99 = max((t.p99 for t in report.tenants
                    if t.name.startswith("gold") and t.completed), default=0.0)
    regen = Regeneration({
        "offered": report.total_offered,
        "completed": report.total_completed,
        "shed": report.total_shed,
        "errors": report.total_errors,
        "weighted_jain": report.weighted_jain,
        "gold_p99": gold_p99,
    }, clock, attempted=report.total_offered)
    # sheds are modelled admission outcomes; untyped errors and arrivals
    # left without an outcome (or leaked arbiter credits) are failures
    if report.total_errors:
        regen.fail(report.total_errors,
                   f"{report.total_errors} requests ended in untyped errors")
    try:
        result.check_conservation()
    except AssertionError as err:
        stranded = sum(load.offered - load.settled for load in result.loads)
        regen.fail(max(stranded, 1), f"conservation: {err}")
    return regen


# ----------------------------------------------------------------------
# dgemm_launch: the Fig 7 sweep (micnativeloadex dgemm, 112 threads)
# ----------------------------------------------------------------------
DGEMM_SIZES = (500, 1000, 2000, 4000, 8000, 12000)
DGEMM_THREADS = 112


def _launch(clock: Stopwatch, n: int, guest: bool) -> dict:
    def build():
        m = Machine(cards=1).boot()
        start_coi_daemon(m, card=0)
        ctx = (ClientContext.guest(m.create_vm("vm0"), f"guest-{n}") if guest
               else ClientContext.native(m, f"native-{n}"))
        return m, ctx

    machine, ctx = clock.build(build)

    def drive():
        proc = ctx.spawn(micnativeloadex(machine, ctx, DGEMM_BINARY,
                                         argv=[str(n), str(DGEMM_THREADS)]))
        machine.run()
        return proc.value

    res = clock.run(machine.sim, drive)
    return {"status": res.status, "total_time": res.total_time,
            "transfer_time": res.transfer_time,
            "compute_time": res.compute_time,
            "transferred_bytes": res.transferred_bytes}


def dgemm_launch(seed: int, clock: Stopwatch, reduced: bool) -> Regeneration:
    """The seed orders the sweep; every point runs on fresh machines, so
    the per-N outputs do not depend on the order."""
    sizes = list(DGEMM_SIZES[:2] if reduced else DGEMM_SIZES)
    random.Random(seed).shuffle(sizes)
    points = {}
    regen = Regeneration({}, clock)
    for n in sizes:
        native, vphi = _launch(clock, n, False), _launch(clock, n, True)
        regen.attempted += 2
        for side, rec in (("native", native), ("vphi", vphi)):
            if rec["status"] != 0:
                regen.fail(1, f"dgemm N={n} {side}: exit status {rec['status']}")
        # §IV-C: the device time is the same natively and from a VM
        if abs(native["compute_time"] - vphi["compute_time"]) > 1e-6 * native["compute_time"]:
            regen.fail(1, f"dgemm N={n}: device time differs native vs vPHI")
        points[n] = [native, vphi]
    regen.outputs = {"figure": "fig7", "threads": DGEMM_THREADS,
                     "by_n": [[n, *points[n]] for n in sorted(points)]}
    return regen


# ----------------------------------------------------------------------
# dgemm_tdp: A14's TDP-cap sweep (power_model="knc")
# ----------------------------------------------------------------------
TDP_CAPS = (0.0, 260.0, 230.0, 200.0)
TDP_FLOPS = 4e11
TDP_THREADS = 224
TDP_EFFICIENCY = 0.8


def dgemm_tdp(seed: int, clock: Stopwatch, reduced: bool) -> Regeneration:
    """A14's fixed job under each cap; the seed orders the caps."""
    caps = list(TDP_CAPS[:2] if reduced else TDP_CAPS)
    flops = TDP_FLOPS / 10 if reduced else TDP_FLOPS
    random.Random(seed).shuffle(caps)
    regen = Regeneration({}, clock)
    rows = {}
    for cap in caps:
        def build(cap=cap):
            m = Machine(cards=1, power_model="knc").boot()
            if cap:
                m.pepc().set_tdp(cap, Scope.one_card(0))
            return m

        machine = clock.build(build)

        def drive(machine=machine):
            job = {}

            def body():
                j = yield from machine.uos(0).run_compute(
                    flops, TDP_THREADS, efficiency=TDP_EFFICIENCY,
                    name="a14-dgemm")
                job["t"] = j.finished_at - j.started_at

            machine.sim.spawn(body(), name="a14-drive")
            machine.run()
            card = power_stats(machine).cards[0]
            return [job["t"], card.avg_watts, card.gflops_per_watt,
                    card.throttle_residency]

        regen.attempted += 1
        rows[cap] = clock.run(machine.sim, drive)
    order = [c for c in TDP_CAPS if c in rows]
    regen.outputs = {
        "time_by_cap": [[c, rows[c][0]] for c in order],
        "avg_watts_by_cap": [[c, rows[c][1]] for c in order],
        "gflops_per_watt_by_cap": [[c, rows[c][2]] for c in order],
        "throttle_residency_by_cap": [[c, rows[c][3]] for c in order],
    }
    return regen


# ----------------------------------------------------------------------
# registry and output checks
# ----------------------------------------------------------------------
WORKLOADS = {
    "rma_read": rma_read,
    "qos_oversub": qos_oversub,
    "dgemm_launch": dgemm_launch,
    "dgemm_tdp": dgemm_tdp,
}


def canonical(outputs: dict) -> str:
    return json.dumps(outputs, sort_keys=True, indent=2) + "\n"


def digest(outputs: dict) -> str:
    return hashlib.sha256(canonical(outputs).encode()).hexdigest()


def _load_golden(path: Path) -> dict:
    golden = json.loads(path.read_text())
    recorded = golden.pop("sha256", None)
    if recorded != digest(golden):
        raise ValueError(f"{path}: recorded digest does not match its body")
    return golden


def golden_view(name: str, seed: int):
    """The committed outputs this workload must reproduce at ``seed``,
    or None where no golden applies (qos_oversub away from its plan
    seed: its outputs then depend on the seed)."""
    if name == "rma_read":
        return _load_golden(REPO_GOLDEN / "fig5.json")
    if name == "qos_oversub":
        if seed != DEFAULT_SEED:
            return None
        g = _load_golden(REPO_GOLDEN / "a12.json")
        pick = {k: dict(v)["wfq"] for k, v in g.items() if k.endswith("_by_policy")}
        return {"completed": pick["completed_by_policy"],
                "shed": pick["shed_by_policy"],
                "weighted_jain": pick["weighted_jain_by_policy"],
                "gold_p99": pick["gold_p99_by_policy"]}
    if name == "dgemm_launch":
        return _load_golden(OWN_GOLDEN / "dgemm_launch.json")
    if name == "dgemm_tdp":
        g = _load_golden(REPO_GOLDEN / "a14.json")
        return {k: g[k] for k in ("time_by_cap", "avg_watts_by_cap",
                                  "gflops_per_watt_by_cap",
                                  "throttle_residency_by_cap")}
    raise KeyError(name)


def check_golden(name: str, seed: int, regen: Regeneration) -> None:
    """Fail the regeneration's operations if its outputs left the golden."""
    golden = golden_view(name, seed)
    if golden is None:
        return
    got = json.loads(json.dumps(regen.outputs))
    got = {k: got.get(k) for k in golden}
    if got != golden:
        bad = sorted(k for k in golden if got[k] != golden[k])
        regen.fail(regen.attempted - regen.failed,
                   f"{name}: outputs differ from the golden in {bad}")


def regenerate(name: str, seed: int, reduced: bool = False,
               observer=None) -> Regeneration:
    """Run one workload to completion.  An exception escaping the model
    is an untyped error: the regeneration fails as a whole."""
    clock = Stopwatch(observer)
    try:
        regen = WORKLOADS[name](seed, clock, reduced)
    except Exception as err:  # boundary: report the failure, keep the run
        regen = Regeneration({}, clock, attempted=1)
        regen.fail(1, f"{name}: {type(err).__name__}: {err}")
        return regen
    if not reduced:
        check_golden(name, seed, regen)
    return regen
