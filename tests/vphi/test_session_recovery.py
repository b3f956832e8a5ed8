"""Session recovery: journal + replay across card resets and restarts.

The tentpole invariant: a VM with open connections, registered windows
and a live scif_mmap mapping *survives* an injected CARD_RESET — the
session journal replays through the normal op path, and a post-reset
writeto/readfrom round-trip moves correct data.  Around it: the
machine-wide abort blast radius (every VM sharing the card), the per-VM
BACKEND_RESTART scope, the three degraded-mode policies, and the epoch
fence that keeps stale pre-reset completions out of rebuilt state.
"""

import numpy as np
import pytest

from repro import FaultKind, FaultPlan, FaultSpec, Machine
from repro.mem import PAGE_SIZE
from repro.scif import MapFlag, ScifError
from repro.scif.errors import ENXIO, EStaleEpoch
from repro.vphi import VPhiConfig

PORT = 9100
KB = 1 << 10
MB = 1 << 20
WIN = 256 * KB
#: the card server re-registers its window at this fixed RAS offset on
#: every accept, so journaled client roffsets stay valid across resets.
FIXED_ROFF = 0x40000


def resilient_window_server(machine, port, size=WIN, fill=0x5A):
    """Card-side peer that survives connection loss: accept, register the
    same backing memory at a FIXED offset, loop back to accept — so a
    replayed connect after a card reset finds the same remote window."""
    sproc = machine.card_process(f"srv{port}")
    slib = machine.scif(sproc)
    ready = machine.sim.event()
    stats = {"accepts": 0}

    def server():
        ep = yield from slib.open()
        yield from slib.bind(ep, port)
        yield from slib.listen(ep)
        vma = sproc.address_space.mmap(size, populate=True, name="card-win")
        sproc.address_space.write(vma.start, np.full(size, fill, dtype=np.uint8))
        while True:
            conn, _ = yield from slib.accept(ep)
            stats["accepts"] += 1
            roff = yield from slib.register(
                conn, vma.start, size,
                offset=FIXED_ROFF, flags=MapFlag.SCIF_MAP_FIXED,
            )
            if not ready.triggered:
                ready.succeed(roff)

    machine.sim.spawn(server())
    return ready, stats


def recovering_vm(machine, name="vm0", policy="queue", **kw):
    return machine.create_vm(
        name, ram_bytes=2 << 30,
        vphi_config=VPhiConfig(recovery_policy=policy, **kw),
    )


# ----------------------------------------------------------------------
# the tentpole: end-to-end survival of a CARD_RESET
# ----------------------------------------------------------------------
class TestSessionSurvivesCardReset:
    @pytest.mark.parametrize("workers", [0, 4], ids=["blocking", "pooled"])
    def test_e2e_reset_replay_and_rma_roundtrip(self, workers):
        """Open + connect + register + mmap, reset mid-writeto, then the
        retried writeto and a readfrom round-trip correct data — and the
        mmap VMA resolves through the *rebuilt* window after the zap."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=(0,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm = recovering_vm(m, backend_workers=workers)
        card = m.card_node_id(0)
        ready, srv = resilient_window_server(m, PORT)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            gproc.address_space.write(
                lvma.start, np.full(WIN, 0x11, dtype=np.uint8)
            )
            loff = yield from glib.register(ep, lvma.start, WIN)
            mvma = yield from glib.mmap(ep, roff, 2 * PAGE_SIZE)
            # populate the EPT through the PFNPHI fault path pre-reset
            pre = gproc.address_space.read(mvma.start, 16).tobytes()
            # this writeto triggers the card reset mid-dispatch; under the
            # queue policy it parks for the rebuild and retries invisibly
            n_write = yield from glib.writeto(ep, loff, WIN, roff)
            # wipe the local window, pull the remote one back
            gproc.address_space.write(lvma.start, np.zeros(WIN, dtype=np.uint8))
            n_read = yield from glib.readfrom(ep, loff, WIN, roff)
            pulled = int(gproc.address_space.read(lvma.start, WIN).sum())
            # the zapped VMA refaults into the rebuilt window
            post = gproc.address_space.read(mvma.start, 16).tobytes()
            return pre, n_write, n_read, pulled, post

        c = vm.spawn_guest(client())
        m.run()
        pre, n_write, n_read, pulled, post = c.value
        assert pre == bytes([0x5A]) * 16          # server fill, pre-reset
        assert n_write == WIN and n_read == WIN
        assert pulled == 0x11 * WIN               # the write really landed
        assert post == bytes([0x11]) * 16         # mmap sees rebuilt window

        ses = vm.vphi.frontend.session
        assert ses.state == "active"
        assert ses.resets_seen == 1
        assert ses.recoveries == 1
        assert ses.replayed_ops >= 4              # open+connect+register+mmap
        assert ses.replay_failures == 0
        assert srv["accepts"] == 2                # the replayed re-dial
        assert vm.mmu.vma_zaps == 1
        # the fenced writeto's real (pre-fence) completion was dropped
        assert ses.stale_drops >= 1
        # no leaks through the whole ordeal
        ring = vm.vphi.virtio.ring
        assert ring.num_free == ring.size
        assert vm.guest_kernel.kmalloc.live == 0

    def test_recovery_disabled_surfaces_typed_error(self):
        """policy='none' (the default): no journal, no replay — the
        fenced op surfaces its typed transient error to the caller."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=(0,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm = m.create_vm(
            "vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig(max_retries=0),
        )
        card = m.card_node_id(0)
        ready, _ = resilient_window_server(m, PORT)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            loff = yield from glib.register(ep, lvma.start, WIN)
            try:
                yield from glib.writeto(ep, loff, WIN, roff)
            except ScifError as e:
                return type(e).__name__, e.errno_name
            return None

        c = vm.spawn_guest(client())
        m.run()
        assert c.value == ("ENXIO", "ENXIO")
        ses = vm.vphi.frontend.session
        assert ses.resets_seen == 1               # counted even when off
        assert ses.recoveries == 0
        assert ses.journal.size == 0              # nothing journaled
        assert vm.guest_kernel.kmalloc.live == 0


# ----------------------------------------------------------------------
# satellite 1: machine-wide abort of every VM's in-flight requests
# ----------------------------------------------------------------------
class TestMachineWideAbort:
    def test_card_reset_aborts_inflight_on_every_vm(self):
        """A reset triggered by vm0 aborts vm1's in-flight pooled request
        too: completed with ENXIO, descriptors freed, nothing leaked."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=(0,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        cfg = dict(backend_workers=2, max_retries=0)
        vm0 = m.create_vm("vm0", ram_bytes=2 << 30,
                          vphi_config=VPhiConfig(**cfg))
        vm1 = m.create_vm("vm1", ram_bytes=2 << 30,
                          vphi_config=VPhiConfig(**cfg))
        card = m.card_node_id(0)
        r0, _ = resilient_window_server(m, PORT, size=4 * MB)
        r1, _ = resilient_window_server(m, PORT + 1, size=4 * MB)

        def client(vm, ready, port, delay):
            gproc = vm.guest_process("app")
            glib = vm.vphi.libscif(gproc)

            def body():
                ep = yield from glib.open()
                yield from glib.connect(ep, (card, port))
                roff = yield ready
                lvma = gproc.address_space.mmap(4 * MB, populate=True)
                loff = yield from glib.register(ep, lvma.start, 4 * MB)
                yield m.sim.timeout(delay)
                try:
                    yield from glib.writeto(ep, loff, 4 * MB, roff)
                except ScifError as e:
                    return type(e).__name__
                return "ok"

            return vm.spawn_guest(body())

        # vm1 launches its long RMA first; vm0's writeto fires the reset
        # while vm1's transfer is mid-flight on a pool member.
        c1 = client(vm1, r1, PORT + 1, 0.0)
        c0 = client(vm0, r0, PORT, 200e-6)
        m.run()
        assert c0.value == "ENXIO"                # the triggering request
        assert c1.value == "ENXIO"                # the innocent bystander
        assert vm1.vphi.backend.pool.aborted >= 1
        assert vm0.vphi.backend.card_resets == 1
        assert vm1.vphi.backend.card_resets == 1  # broadcast reached it
        for vm in (vm0, vm1):
            ring = vm.vphi.virtio.ring
            assert ring.num_free == ring.size, f"{vm.name} leaked descriptors"
            assert vm.guest_kernel.kmalloc.live == 0, f"{vm.name} leaked kmalloc"
            assert not vm.vphi.backend.endpoints  # table cleared

    def test_backend_restart_is_per_vm(self):
        """BACKEND_RESTART touches only the triggering VM: its session
        rebuilds while the neighbour never notices."""
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.BACKEND_RESTART, op="writeto", vm="vm0", at=(0,),
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm0 = recovering_vm(m, "vm0")
        vm1 = recovering_vm(m, "vm1")
        card = m.card_node_id(0)
        r0, _ = resilient_window_server(m, PORT)
        r1, _ = resilient_window_server(m, PORT + 1)

        def client(vm, ready, port):
            gproc = vm.guest_process("app")
            glib = vm.vphi.libscif(gproc)

            def body():
                ep = yield from glib.open()
                yield from glib.connect(ep, (card, port))
                roff = yield ready
                lvma = gproc.address_space.mmap(WIN, populate=True)
                loff = yield from glib.register(ep, lvma.start, WIN)
                n = yield from glib.writeto(ep, loff, WIN, roff)
                return n

            return vm.spawn_guest(body())

        c0 = client(vm0, r0, PORT)
        c1 = client(vm1, r1, PORT + 1)
        m.run()
        assert c0.value == WIN                    # recovered transparently
        assert c1.value == WIN
        assert vm0.vphi.backend.backend_restarts == 1
        assert vm0.vphi.frontend.session.recoveries == 1
        # the neighbour's session never heard about it
        assert vm1.vphi.backend.backend_restarts == 0
        assert vm1.vphi.backend.card_resets == 0
        assert vm1.vphi.frontend.session.resets_seen == 0
        assert vm1.vphi.frontend.session.epoch == 0


# ----------------------------------------------------------------------
# degraded-mode policies
# ----------------------------------------------------------------------
class TestRecoveryPolicies:
    def _reset_machine(self, policy, at=(0,), **cfg):
        plan = FaultPlan.of(FaultSpec(
            kind=FaultKind.CARD_RESET, op="writeto", vm="vm0", at=at,
        ))
        m = Machine(cards=1, fault_plan=plan).boot()
        vm = recovering_vm(m, policy=policy, **cfg)
        ready, _ = resilient_window_server(m, PORT)
        return m, vm, ready

    def test_fail_fast_rejects_submits_during_rebuild(self):
        m, vm, ready = self._reset_machine("fail_fast")
        card = m.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            loff = yield from glib.register(ep, lvma.start, WIN)
            outcomes = []
            try:
                yield from glib.writeto(ep, loff, WIN, roff)
            except EStaleEpoch as e:
                outcomes.append(("fenced", e.errno_name))
            # the session is still rebuilding: fail-fast rejects instantly
            try:
                yield from glib.writeto(ep, loff, WIN, roff)
            except EStaleEpoch:
                outcomes.append(("rejected", vm.vphi.frontend.session.state))
            # wait out the rebuild, then the op goes through again
            while vm.vphi.frontend.session.state != "active":
                yield m.sim.timeout(1e-3)
            n = yield from glib.writeto(ep, loff, WIN, roff)
            outcomes.append(("after", n))
            return outcomes

        c = vm.spawn_guest(client())
        m.run()
        assert c.value == [
            ("fenced", "ESTALE"),
            ("rejected", "recovering"),
            ("after", WIN),
        ]
        assert vm.vphi.frontend.session.rejected_submits == 1
        assert vm.vphi.frontend.session.recoveries == 1

    def test_queue_policy_parks_and_replays_transparently(self):
        m, vm, ready = self._reset_machine("queue")
        card = m.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            loff = yield from glib.register(ep, lvma.start, WIN)
            n = yield from glib.writeto(ep, loff, WIN, roff)
            return n

        c = vm.spawn_guest(client())
        m.run()
        assert c.value == WIN                     # no error ever surfaced
        ses = vm.vphi.frontend.session
        assert ses.recoveries == 1
        assert ses.aborted_inflight >= 1

    def test_circuit_break_gives_up_after_repeated_resets(self):
        # every writeto dispatch resets the card; with a 1-reset budget
        # the second fence opens the circuit and the session is BROKEN.
        m, vm, ready = self._reset_machine(
            "circuit_break", at=(0, 1, 2, 3),
            recovery_max_resets=1, recovery_window=10.0,
        )
        card = m.card_node_id(0)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            loff = yield from glib.register(ep, lvma.start, WIN)
            outcomes = []
            try:
                yield from glib.writeto(ep, loff, WIN, roff)
            except EStaleEpoch as e:
                outcomes.append(("broken", e.errno_name))
            # the circuit is open: every further submit fails instantly
            try:
                yield from glib.writeto(ep, loff, WIN, roff)
            except EStaleEpoch as e:
                outcomes.append(("still-broken", e.errno_name))
            return outcomes

        c = vm.spawn_guest(client())
        m.run()
        assert c.value == [
            ("broken", "ESTALE"), ("still-broken", "ESTALE"),
        ]
        ses = vm.vphi.frontend.session
        assert ses.state == "broken"
        assert vm.guest_kernel.kmalloc.live == 0


# ----------------------------------------------------------------------
# journal bookkeeping
# ----------------------------------------------------------------------
class TestJournal:
    def test_lifecycle_ops_build_and_prune_the_journal(self):
        m = Machine(cards=1).boot()
        vm = recovering_vm(m)
        card = m.card_node_id(0)
        ready, _ = resilient_window_server(m, PORT)
        gproc = vm.guest_process("app")
        glib = vm.vphi.libscif(gproc)
        ses = vm.vphi.frontend.session

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            roff = yield ready
            lvma = gproc.address_space.mmap(WIN, populate=True)
            loff = yield from glib.register(ep, lvma.start, WIN)
            mvma = yield from glib.mmap(ep, roff, 2 * PAGE_SIZE)
            rec = ses.journal.endpoints[ep.handle]
            full = (len(rec.windows), len(rec.mmaps), rec.addr,
                    ses.journal.size, ses.journal.replay_ops)
            yield from glib.munmap(mvma)
            yield from glib.unregister(ep, loff)
            pruned = (len(rec.windows), len(rec.mmaps))
            yield from glib.close(ep)
            return full, pruned, len(ses.journal.endpoints)

        c = vm.spawn_guest(client())
        m.run()
        full, pruned, left = c.value
        # open+connect+register+mmap: 4 facts, 4 replay round-trips
        assert full == (1, 1, (card, PORT), 4, 4)
        assert pruned == (0, 0)                   # munmap/unregister prune
        assert left == 0                          # close drops the record

    def test_journal_stays_empty_when_recovery_disabled(self):
        m = Machine(cards=1).boot()
        vm = m.create_vm("vm0", ram_bytes=2 << 30, vphi_config=VPhiConfig())
        card = m.card_node_id(0)
        ready, _ = resilient_window_server(m, PORT)
        glib = vm.vphi.libscif(vm.guest_process("app"))

        def client():
            ep = yield from glib.open()
            yield from glib.connect(ep, (card, PORT))
            yield ready

        c = vm.spawn_guest(client())
        m.run()
        assert c.triggered
        assert vm.vphi.frontend.session.journal.size == 0


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
class TestRecoveryConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(Exception):
            VPhiConfig(recovery_policy="hope")

    def test_default_is_disabled(self):
        cfg = VPhiConfig()
        assert cfg.recovery_policy == "none"
        assert not cfg.recovery_enabled
        assert VPhiConfig(recovery_policy="queue").recovery_enabled
