"""mic0 network, sshd, ssh launch path, the §IV-A isolation problem."""

import numpy as np
import pytest

from repro import Machine
from repro.coi.protocol import recv_msg, send_msg
from repro.micnet import (
    MicNetwork,
    NetBridge,
    NetSocket,
    SshDaemon,
    ssh_connect,
    ssh_native_launch,
)
from repro.scif import ECONNREFUSED, ScifError
from repro.workloads import DGEMM_BINARY
from repro.workloads.microbench import ClientContext

MB = 1 << 20


@pytest.fixture
def machine():
    return Machine(cards=1).boot()


@pytest.fixture
def network(machine):
    return MicNetwork(machine)


def run(machine, gen):
    p = machine.sim.spawn(gen)
    machine.run()
    return p.value


class TestNetwork:
    def test_addressing(self, machine, network):
        assert network.resolve("172.31.0.254") == 0
        assert network.resolve("172.31.0.1") == machine.card_node_id(0)
        assert network.card_ip(0) == "172.31.0.1"
        with pytest.raises(ECONNREFUSED):
            network.resolve("10.0.0.1")

    def test_two_cards_two_subnets(self):
        m = Machine(cards=2).boot()
        net = MicNetwork(m)
        assert net.resolve("172.31.0.1") == m.card_node_id(0)
        assert net.resolve("172.31.1.1") == m.card_node_id(1)

    def test_socket_stream_roundtrip(self, machine, network):
        sproc = machine.card_process("netsrv")
        slib = machine.scif(sproc)
        payload = np.random.default_rng(0).integers(0, 256, 200_000, dtype=np.uint8)

        def server():
            listener = NetSocket(network, slib)
            yield from listener.bind_listen(5000)
            sock, peer = yield from listener.accept()
            data = yield from sock.recv(len(payload))
            yield from sock.send(data[::-1].copy())
            return peer

        cproc = machine.host_process("netcli")
        clib = machine.scif(cproc)

        def client():
            sock = NetSocket(network, clib)
            yield from sock.connect("172.31.0.1", 5000)
            yield from sock.send(payload)
            back = yield from sock.recv(len(payload))
            yield from sock.close()
            return back

        s = machine.sim.spawn(server())
        c = machine.sim.spawn(client())
        machine.run()
        assert np.array_equal(c.value, payload[::-1])
        assert s.value[0] == "172.31.0.254"

    def test_tunnel_is_slower_than_raw_scif(self, machine, network):
        """The emulated-net tax: 1 MB over mic0 vs over raw SCIF."""
        size = MB
        sproc = machine.card_process("sink")
        slib = machine.scif(sproc)

        def net_server():
            listener = NetSocket(network, slib)
            yield from listener.bind_listen(5001)
            sock, _ = yield from listener.accept()
            yield from sock.recv(size)

        def raw_server():
            ep = yield from slib.open()
            yield from slib.bind(ep, 5002)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield from slib.recv(conn, size)

        cproc = machine.host_process("cli")
        clib = machine.scif(cproc)

        def client():
            sock = NetSocket(network, clib)
            yield from sock.connect("172.31.0.1", 5001)
            t0 = machine.sim.now
            yield from sock.send(np.zeros(size, dtype=np.uint8))
            t_net = machine.sim.now - t0
            ep = yield from clib.open()
            yield from clib.connect(ep, (machine.card_node_id(0), 5002))
            t0 = machine.sim.now
            yield from clib.send(ep, np.zeros(size, dtype=np.uint8))
            t_raw = machine.sim.now - t0
            return t_net, t_raw

        machine.sim.spawn(net_server())
        machine.sim.spawn(raw_server())
        c = machine.sim.spawn(client())
        machine.run()
        t_net, t_raw = c.value
        assert t_net > 2 * t_raw  # the netstack tax is real


class TestSshd:
    def test_scp_exec_roundtrip(self, machine, network):
        SshDaemon(machine, network=network).start()
        cproc = machine.host_process("user")
        clib = machine.scif(cproc)

        def body():
            sock = NetSocket(network, clib)
            session = yield from ssh_connect(network, sock, "172.31.0.1", user="alice")
            assert "uOS" in session.banner
            yield from session.scp(f"/tmp/{DGEMM_BINARY.name}", DGEMM_BINARY.content())
            for dep in DGEMM_BINARY.deps:
                yield from session.scp(f"/tmp/{dep.name}",
                                       np.zeros(dep.size, dtype=np.uint8))
            files = yield from session.ls()
            record = yield from session.exec("dgemm", argv=["64", "56"])
            yield from session.close()
            return files, record

        files, record = run(machine, body())
        assert f"/tmp/dgemm" in files
        assert record["status"] == 0
        assert record["c_checksum"] == pytest.approx(record["c_expected"])

    def test_exec_without_scp_fails(self, machine, network):
        SshDaemon(machine, network=network).start()
        clib = machine.scif(machine.host_process("user"))

        def body():
            sock = NetSocket(network, clib)
            session = yield from ssh_connect(network, sock, "172.31.0.1")
            with pytest.raises(ScifError, match="No such file"):
                yield from session.exec("dgemm")
            yield from session.close()
            return True

        assert run(machine, body()) is True

    def test_exec_with_missing_library_fails(self, machine, network):
        SshDaemon(machine, network=network).start()
        clib = machine.scif(machine.host_process("user"))

        def body():
            sock = NetSocket(network, clib)
            session = yield from ssh_connect(network, sock, "172.31.0.1")
            yield from session.scp(f"/tmp/{DGEMM_BINARY.name}", DGEMM_BINARY.content())
            with pytest.raises(ScifError, match="shared libraries"):
                yield from session.exec("dgemm")
            yield from session.close()
            return True

        assert run(machine, body()) is True

    def test_corrupted_upload_detected(self, machine, network):
        SshDaemon(machine, network=network).start()
        clib = machine.scif(machine.host_process("user"))

        def body():
            sock = NetSocket(network, clib)
            session = yield from ssh_connect(network, sock, "172.31.0.1")
            bad = DGEMM_BINARY.content()
            bad[0] ^= 0xFF
            yield from session.scp(f"/tmp/{DGEMM_BINARY.name}", bad)
            for dep in DGEMM_BINARY.deps:
                yield from session.scp(f"/tmp/{dep.name}",
                                       np.zeros(dep.size, dtype=np.uint8))
            with pytest.raises(ScifError, match="corrupted"):
                yield from session.exec("dgemm")
            yield from session.close()
            return True

        assert run(machine, body()) is True


    def test_request_missing_a_field_is_refused(self, machine, network):
        """A request without a type, or without a field its command
        reads, gets an error reply and the session keeps serving."""
        SshDaemon(machine, network=network).start()
        clib = machine.scif(machine.host_process("user"))

        def body():
            sock = NetSocket(network, clib)
            session = yield from ssh_connect(network, sock, "172.31.0.1")
            replies = []
            for bad in ({"path": "/tmp/x"}, {"type": "exec"}):
                yield from send_msg(sock.lib, sock.ep, bad)
                replies.append((yield from recv_msg(sock.lib, sock.ep)))
            files = yield from session.ls()
            yield from session.close()
            return replies, files

        replies, files = run(machine, body())
        assert [r["error"] for r in replies] == ["bad command None",
                                                 "exec: no 'binary' field"]
        assert files == []


class TestIsolationProblem:
    def test_bridged_vms_see_each_other(self, machine, network):
        """§IV-A: bridged ssh access 'can end up with many users logged in
        a shared accelerator environment ruining the isolation
        characteristics of cloud computing' — demonstrated: each bridged
        VM's user is visible to the other via `who`."""
        daemon = SshDaemon(machine, network=network).start()
        vm1 = machine.create_vm("vm-alice")
        vm2 = machine.create_vm("vm-bob")
        b1 = NetBridge(machine, vm1, network)
        b2 = NetBridge(machine, vm2, network)

        def user(bridge, name):
            def body():
                sock = bridge.socket()
                session = yield from ssh_connect(network, sock, "172.31.0.1", user=name)
                yield from session.scp("/tmp/secret-" + name, b"x" * 1024)
                visible = yield from session.who()
                yield from session.close()
                return visible

            return body()

        p1 = machine.sim.spawn(user(b1, "alice"))
        p2 = machine.sim.spawn(user(b2, "bob"))
        machine.run()
        # bob's session sees alice's (and vice versa): no isolation
        users_seen_by_bob = {s["user"] for s in p2.value}
        assert "alice" in users_seen_by_bob or "alice" in {
            s["user"] for s in p1.value
        } and "bob" in {s["user"] for s in p1.value + p2.value}
        # and the card filesystem mixes both tenants' files
        assert "/tmp/secret-alice" in daemon.filesystem
        assert "/tmp/secret-bob" in daemon.filesystem

    def test_vphi_clients_do_not_appear_in_ssh_sessions(self, machine, network):
        """By contrast, vPHI tenants never log into the card at all."""
        daemon = SshDaemon(machine, network=network).start()
        vm = machine.create_vm("vm0")
        ctx = ClientContext.guest(vm)
        card_node = machine.card_node_id(0)
        slib = machine.scif(machine.card_process("srv"))

        def server():
            ep = yield from slib.open()
            yield from slib.bind(ep, 6000)
            yield from slib.listen(ep)
            conn, _ = yield from slib.accept(ep)
            yield from slib.recv(conn, 1)

        def client():
            ep = yield from ctx.lib.open()
            yield from ctx.lib.connect(ep, (card_node, 6000))
            yield from ctx.lib.send(ep, b"x")

        machine.sim.spawn(server())
        ctx.spawn(client())
        machine.run()
        assert daemon.sessions == []


class TestSshLaunch:
    def test_ssh_launch_matches_micnativeloadex_result(self, machine, network):
        """Both §IV-A native-mode variants produce the same computation;
        the ssh path just pays the slow tunnel for the 119MB of binaries."""
        from repro.coi import start_coi_daemon
        from repro.mpss import micnativeloadex

        SshDaemon(machine, network=network).start()
        start_coi_daemon(machine, card=0)

        clib = machine.scif(machine.host_process("sshuser"))

        def ssh_body():
            sock = NetSocket(network, clib)
            res = yield from ssh_native_launch(
                machine, network, sock, DGEMM_BINARY, argv=["128", "112"]
            )
            return res

        ctx = ClientContext.native(machine, "mloadex")

        def tool_body():
            res = yield from micnativeloadex(machine, ctx, DGEMM_BINARY,
                                             argv=["128", "112"])
            return res

        p_ssh = machine.sim.spawn(ssh_body())
        machine.run()
        p_tool = machine.sim.spawn(tool_body())
        machine.run()
        ssh_res, tool_res = p_ssh.value, p_tool.value
        assert ssh_res.status == 0 and tool_res.status == 0
        assert ssh_res.exit_record["c_checksum"] == pytest.approx(
            tool_res.exit_record["c_checksum"]
        )
        # the explicit-copy path is much slower at shipping the binaries
        assert ssh_res.transfer_time > 3 * tool_res.transfer_time
