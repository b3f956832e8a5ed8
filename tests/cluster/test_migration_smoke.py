"""Live migration under traffic, end to end.

Echo tenants run under wfq with ``recovery_policy="queue"`` while the
first tenant is live-migrated mid-stream to a scheduler-picked card and,
in the churn case, that card is then hot-unplugged so the scheduler has
to move it again.  Every tenant must keep all its echoes, every session
must end active with nothing in flight, and no arbiter may keep credits
or state for a tenant that left.
"""

import pytest

from repro.cluster import Cluster
from repro.scif.errors import ECONNRESET, ENOTCONN
from repro.vphi import VPhiConfig

PORT = 3000
ROUNDS = 6

SCENARIOS = {
    "spread": dict(hosts=2, cards=1, vms=3, placement="spread", churn=False),
    "pack-churn": dict(hosts=2, cards=2, vms=4, placement="pack", churn=True),
}


def spawn_echo_peer(cl, ref):
    """Card-side echo daemon: accepts forever, so a migrated-in tenant
    never waits behind an idle resident connection."""
    m = cl.machine(ref)
    lib = m.scif(m.card_process(f"peer-{ref}", card=ref.card))

    def echo(conn):
        try:
            while True:
                data = yield from lib.recv(conn, 64)
                yield from lib.send(conn, data.tobytes()[::-1])
        except (ECONNRESET, ENOTCONN):
            return  # tenant migrated away or closed

    def server():
        ep = yield from lib.open()
        yield from lib.bind(ep, PORT)
        yield from lib.listen(ep)
        n = 0
        while True:
            conn, _ = yield from lib.accept(ep)
            cl.sim.spawn(echo(conn), name=f"echo-{ref}-{n}")
            n += 1

    cl.sim.spawn(server(), name=f"peer-{ref}")


def run_scenario(hosts, cards, vms, placement, churn):
    """Returns the cluster, its tenant VMs and each tenant's echo count."""
    cl = Cluster(hosts=hosts, cards_per_host=cards, placement=placement)
    cl.boot()
    for ref in cl.cards:
        spawn_echo_peer(cl, ref)

    cfg = VPhiConfig(recovery_policy="queue", backend_workers=2)
    tenants = [cl.create_vm(f"vm{i}", vphi_config=cfg, arbiter_policy="wfq")
               for i in range(vms)]
    echoes = {}

    def tenant(vm):
        lib = vm.vphi.libscif(vm.guest_process("load"))
        ep = yield from lib.open()
        yield from lib.connect(ep, (cl.node_of(cl.placement_of(vm.name)), PORT))
        payload = bytes(range(64))
        n = 0
        for _ in range(ROUNDS):
            try:
                yield from lib.send(ep, payload)
                got = (yield from lib.recv(ep, 64)).tobytes()
                if got == payload[::-1]:
                    n += 1
            except (ECONNRESET, ENOTCONN):
                break
            yield cl.sim.timeout(2e-3)
        echoes[vm.name] = n

    for vm in tenants:
        cl.sim.spawn(tenant(vm), name=f"load-{vm.name}")

    def director():
        yield cl.sim.timeout(4e-3)  # mid-stream
        yield from cl.migrate(tenants[0])
        if churn:
            yield cl.sim.timeout(2e-3)
            ref = cl.placement_of(tenants[0].name)
            yield from cl.hot_unplug(ref.host, ref.card)

    cl.sim.spawn(director(), name="director")
    cl.run(until=1.0)
    return cl, tenants, echoes


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_migration_under_traffic(name):
    churn = SCENARIOS[name]["churn"]
    cl, tenants, echoes = run_scenario(**SCENARIOS[name])

    assert len(cl.migrations) == (2 if churn else 1)
    for rep in cl.migrations:
        assert not rep.broken, f"migration of {rep.vm} broke the session"
        assert rep.replayed_ops >= 2
        assert rep.downtime > 0
    assert not cl.evicted
    for vm in tenants:
        assert vm.vphi.frontend.session.state == "active", vm.name
        assert not vm.vphi.frontend._inflight, f"{vm.name} stranded tags"
        assert echoes.get(vm.name, 0) == ROUNDS, vm.name

    # the card the migrated tenant last left forgot it
    migrated = tenants[0].name
    src = cl.migrations[-1].source
    assert src != cl.placements[migrated]
    arb = cl.machine(src).arbiter_for(src.card)
    assert migrated not in arb._queues
    assert migrated not in arb._finish
    for m in cl.machines:
        for arb in m.card_arbiters.values():
            assert arb.free == arb.slots, f"{arb.name} leaked credits"
