"""Ablation A13: live-migration downtime vs journal size; churn vs SLO.

Two sweeps pin the cluster layer's costs:

**Downtime vs journal size.**  Live migration replays the session
journal against the destination card (DESIGN §14), so downtime — fence
through activate, everything but the live RAM pre-copy — is paid per
journaled op exactly like A11's reset recovery.  A VM holding N full
sessions (connect + registered window + mmap each) migrates cross-host;
the series is downtime as a function of replayed ops.  The shape
assertions pin linearity: the per-op marginal cost stays sub-ms and
roughly constant, so a scheduler can price a move by journal size alone.

**Churn rate vs SLO violations.**  Two wfq tenants exchange fixed-cadence
echoes while the first is migrated K times.  A request that lands during
the fence→activate window parks at the session gate and completes after
replay — correct but late.  The series counts SLO violations (latency
over budget, plus any errors) per churn rate: zero without churn, a
bounded handful per migration, never an error — and the tenant's wfq
share survives every re-registration on the destination card's arbiter.
"""

import numpy as np
import pytest

from conftest import print_table
from repro.cluster import Cluster, live_migrate
from repro.scif import MapFlag
from repro.sim import us
from repro.vphi import VPhiConfig

KB = 1 << 10
MB = 1 << 20
PORT = 25_000
WIN = 64 * KB
FIXED_ROFF = 0x40000
ENDPOINT_COUNTS = (1, 2, 4, 8)
FILL = 0x5A
#: small guest RAM keeps the live pre-copy short; it is not part of
#: downtime either way.
RAM = 64 * MB

# -- churn sweep knobs -------------------------------------------------
CHURN_COUNTS = (0, 1, 2, 4)
ROUND_INTERVAL = 0.5e-3
ROUNDS = 120
#: SLO budget per RMA round — 2x the uncontended 4KB writeto (390us in
#: the calibrated model), well below the migration downtime window.
SLO = 800e-6
RMA_BYTES = 4096


def spawn_resilient_server(cluster, ref, port, size=WIN, fill=FILL):
    """Accept-forever card server at a fixed window offset, one per
    card: a migrated-in session finds identical remote state on the
    destination (the restartable-daemon pattern from A11)."""
    machine = cluster.machine(ref)
    sproc = machine.card_process(f"a13-srv-{ref}-{port}", card=ref.card)
    slib = machine.scif(sproc)

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        vma = sproc.address_space.mmap(size, populate=True)
        sproc.address_space.write(
            vma.start, np.full(size, fill, dtype=np.uint8))
        while True:
            conn, _ = yield from slib.accept(ep)
            yield from slib.register(
                conn, vma.start, size,
                offset=FIXED_ROFF, flags=MapFlag.SCIF_MAP_FIXED,
            )

    machine.sim.spawn(server(), name=f"a13-srv-{ref}-{port}")


def run_migration_scenario(n_endpoints: int):
    """One VM with ``n_endpoints`` full sessions, one cross-host move.

    Returns ``(report, sums)``: the MigrationReport and post-migration
    per-endpoint read checksums (first endpoint re-written after the
    move, the rest untouched destination fill).
    """
    cluster = Cluster(hosts=2, cards_per_host=1)
    cluster.boot()
    for ref in cluster.cards:
        for i in range(n_endpoints):
            spawn_resilient_server(cluster, ref, PORT + i)
    vm = cluster.create_vm(
        "vm0", ram_bytes=RAM, vphi_config=VPhiConfig(recovery_policy="queue")
    )
    src = cluster.placement_of("vm0")
    dest = [r for r in cluster.cards if r != src][0]
    gproc = vm.guest_process("a13-client")
    glib = vm.vphi.libscif(gproc)
    out = {}

    def client():
        node = cluster.node_of(src)
        eps, loffs, vmas = [], [], []
        for i in range(n_endpoints):
            ep = yield from glib.open()
            yield from glib.connect(ep, (node, PORT + i))
            vma = gproc.address_space.mmap(WIN, populate=True)
            gproc.address_space.write(
                vma.start, np.full(WIN, 0x11, dtype=np.uint8))
            loff = yield from glib.register(ep, vma.start, WIN)
            yield from glib.mmap(ep, FIXED_ROFF, WIN)
            eps.append(ep)
            loffs.append(loff)
            vmas.append(vma)
        report = yield from live_migrate(cluster, vm, dest)
        out["report"] = report
        # post-migration RMA against the rebuilt first session
        yield from glib.writeto(eps[0], loffs[0], WIN, FIXED_ROFF)
        sums = []
        for ep, loff, vma in zip(eps, loffs, vmas):
            gproc.address_space.write(
                vma.start, np.zeros(WIN, dtype=np.uint8))
            yield from glib.readfrom(ep, loff, WIN, FIXED_ROFF)
            sums.append(int(gproc.address_space.read(vma.start, WIN).sum()))
        out["sums"] = sums

    c = vm.spawn_guest(client())
    cluster.run()
    assert c.triggered, "A13 migration client deadlocked"
    return out["report"], out["sums"]


def run_downtime_ablation():
    """``[(n_sessions, replayed_ops, downtime_s, journal_size)]``."""
    series = []
    for n in ENDPOINT_COUNTS:
        report, sums = run_migration_scenario(n)
        assert not report.broken
        assert sums[0] == 0x11 * WIN, "post-migration write lost or torn"
        for s in sums[1:]:
            assert s == FILL * WIN, "migrated window returned corrupt data"
        series.append((n, report.replayed_ops, report.downtime,
                       report.journal_size))
    return series


# ----------------------------------------------------------------------
# churn sweep
# ----------------------------------------------------------------------

def run_churn_scenario(migrations: int):
    """Two wfq tenants, fixed-cadence RMA rounds, K migrations of the
    gold tenant.

    RMA rounds (writeto against the card's resilient fixed window) are
    migration-safe by construction — each op either completes before
    the fence or parks at the gate and lands late against the rebuilt
    window.  Stream echoes would not be: reply bytes in flight at the
    fence die with the severed connection (re-dial semantics, DESIGN
    §14), which is an application-protocol concern, not an SLO one.

    Returns ``(violations, completed, errors)`` for the gold tenant.
    """
    from repro.scif.errors import ScifError

    cluster = Cluster(hosts=2, cards_per_host=1)
    cluster.boot()
    for ref in cluster.cards:
        spawn_resilient_server(cluster, ref, PORT)
    cfgs = {
        "gold": VPhiConfig(recovery_policy="queue", backend_workers=2,
                           qos_share=2.0),
        "best": VPhiConfig(recovery_policy="queue", backend_workers=2,
                           qos_share=1.0),
    }
    vms = {name: cluster.create_vm(name, ram_bytes=RAM, vphi_config=cfg,
                                   arbiter_policy="wfq")
           for name, cfg in cfgs.items()}
    stats = {name: {"violations": 0, "completed": 0, "errors": 0}
             for name in vms}
    done = {}

    def tenant(name, idx):
        vm = vms[name]
        gproc = vm.guest_process(f"{name}-load")
        lib = vm.vphi.libscif(gproc)
        sim = cluster.sim
        st = stats[name]
        ep = yield from lib.open()
        ref = cluster.placement_of(name)
        yield from lib.connect(ep, (cluster.node_of(ref), PORT))
        vma = gproc.address_space.mmap(RMA_BYTES, populate=True)
        pattern = np.full(RMA_BYTES, 0x20 + idx, dtype=np.uint8)
        gproc.address_space.write(vma.start, pattern)
        loff = yield from lib.register(ep, vma.start, RMA_BYTES)
        roff = FIXED_ROFF + idx * 4096  # disjoint per-tenant region
        for r in range(ROUNDS):
            t0 = sim.now
            try:
                yield from lib.writeto(ep, loff, RMA_BYTES, roff)
                st["completed"] += 1
                if sim.now - t0 > SLO:
                    st["violations"] += 1
            except ScifError:
                st["errors"] += 1
                st["violations"] += 1
            wake = t0 + ROUND_INTERVAL
            if wake > sim.now:
                yield sim.timeout(wake - sim.now)
        # settle until all churn has landed, then verify no tenant
        # cross-corrupted another's region: write own pattern, read it
        # back through the (possibly migrated) session
        while len(cluster.migrations) < migrations:
            yield sim.timeout(1e-3)
        yield from lib.writeto(ep, loff, RMA_BYTES, roff)
        gproc.address_space.write(
            vma.start, np.zeros(RMA_BYTES, dtype=np.uint8))
        yield from lib.readfrom(ep, loff, RMA_BYTES, roff)
        got = gproc.address_space.read(vma.start, RMA_BYTES)
        assert (got == pattern).all(), f"{name}: payload cross-corrupted"
        done[name] = True

    for i, name in enumerate(vms):
        cluster.sim.spawn(tenant(name, i), name=f"a13-tenant-{name}")

    def director():
        if not migrations:
            return
        span = ROUNDS * ROUND_INTERVAL
        gap = span / (migrations + 1)
        for k in range(migrations):
            due = (k + 1) * gap
            if due > cluster.sim.now:
                yield cluster.sim.timeout(due - cluster.sim.now)
            yield from cluster.migrate(vms["gold"])

    cluster.sim.spawn(director(), name="a13-director")
    cluster.run()

    assert len(cluster.migrations) == migrations
    assert done.get("gold") and done.get("best"), "A13b tenant deadlocked"
    # wfq share survives every re-registration on the destination card
    ref = cluster.placement_of("gold")
    arb = cluster.machine(ref).arbiter_for(ref.card)
    assert arb._weights.get("gold") == 2.0, "wfq share lost in migration"
    for m in cluster.machines:
        for a in m.card_arbiters.values():
            assert a.free == a.slots, f"{a.name} leaked credits"
    st = stats["gold"]
    assert st["completed"] + st["errors"] == ROUNDS, "tenant stranded a round"
    assert stats["best"]["completed"] == ROUNDS, "bystander tenant disturbed"
    return st["violations"], st["completed"], st["errors"]


def run_churn_ablation():
    """``[(migrations, violations, completed, errors)]``."""
    return [(k,) + run_churn_scenario(k) for k in CHURN_COUNTS]


# ----------------------------------------------------------------------
# the tests
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def a13(golden):
    """Both sweeps, run once and pinned by the a13 golden."""
    downtime, churn = run_downtime_ablation(), run_churn_ablation()
    golden("a13", {
        "figure": "a13",
        "unit": "mixed",
        "downtime_by_replayed_ops": [[ops, t] for _, ops, t, _ in downtime],
        "violations_by_migrations": [[k, v] for k, v, _, _ in churn],
        "completed_by_migrations": [[k, c] for k, _, c, _ in churn],
        "errors_by_migrations": [[k, e] for k, _, _, e in churn],
    })
    return downtime, churn


def test_ablation_cluster_migration(a13):
    downtime, _ = a13

    rows = [[f"{n} sessions", f"{ops}", f"{t / us(1):.1f} us"]
            for n, ops, t, _ in downtime]
    print_table(
        "Ablation A13a: migration downtime vs journal size "
        f"(cross-host, {WIN // KB}KB windows)",
        ["journal", "replayed ops", "downtime"], rows)

    # --- downtime is paid per journaled op: bigger journal, strictly
    # longer stop-the-guest window, sub-ms marginal cost, ~linear ---
    ops = [o for _, o, _, _ in downtime]
    times = [t for _, _, t, _ in downtime]
    assert ops == sorted(ops) and len(set(ops)) == len(ops)
    assert times == sorted(times) and len(set(times)) == len(times)
    for (n, o, _, j) in downtime:
        assert o == 4 * n and j == 4 * n
    marginals = [
        (times[i + 1] - times[i]) / (ops[i + 1] - ops[i])
        for i in range(len(times) - 1)
    ]
    for m in marginals:
        assert 0 < m < 1e-3, "per-op replay cost left the sub-ms regime"
    assert max(marginals) / min(marginals) < 2.0, \
        "downtime is not ~linear in journal size"
    assert times[-1] < 50e-3


def test_ablation_cluster_churn(a13):
    _, churn = a13
    rows = [[f"{k} migrations", f"{v}", f"{c}", f"{e}"]
            for k, v, c, e in churn]
    print_table(
        "Ablation A13b: churn rate vs SLO violations "
        f"(2 wfq tenants, {ROUNDS} rounds @ {ROUND_INTERVAL / us(1):.0f}us, "
        f"SLO {SLO / us(1):.0f}us)",
        ["churn", "violations", "completed", "errors"], rows)

    # --- violations come only from migration windows: none without
    # churn, monotone non-decreasing with it, bounded per migration,
    # and never an error — parked requests complete late, not wrong ---
    by_k = {k: (v, c, e) for k, v, c, e in churn}
    assert by_k[0][0] == 0, "SLO violated without churn — budget too tight"
    viols = [v for _, v, _, _ in churn]
    assert viols == sorted(viols)
    for k, v, c, e in churn:
        assert e == 0, "migration surfaced errors to a queue-policy tenant"
        assert c == ROUNDS
        if k:
            assert 1 <= v <= 4 * k, (
                f"{v} violations for {k} migrations — downtime window "
                "leaking beyond the fence"
            )
