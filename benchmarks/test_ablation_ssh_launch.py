"""Ablation A5: the two native-mode launch paths of §IV-A.

"In native mode of execution there are two choices.  The user can either
ssh to the accelerator and execute the application locally, or launch the
MIC executable directly from the host."  The paper tests the latter
(micnativeloadex over vPHI) and rejects the ssh path for clouds — both
on performance (explicit copies over the emulated network) and isolation
grounds.  This bench quantifies both.
"""

import pytest

from conftest import fresh_machine_with_daemon, print_table
from repro.micnet import MicNetwork, NetBridge, SshDaemon, ssh_native_launch
from repro.mpss import micnativeloadex
from repro.workloads import ClientContext, DGEMM_BINARY

N = 2000
THREADS = 112


def run_launch_paths():
    # --- path 1: micnativeloadex from a VM through vPHI ---------------
    machine = fresh_machine_with_daemon()
    vm = machine.create_vm("vm0")
    ctx = ClientContext.guest(vm)
    p = ctx.spawn(micnativeloadex(machine, ctx, DGEMM_BINARY,
                                  argv=[str(N), str(THREADS)]))
    machine.run()
    tool = p.value

    # --- path 2: ssh from a bridged VM over the emulated mic0 ---------
    machine2 = fresh_machine_with_daemon()
    network = MicNetwork(machine2)
    daemon = SshDaemon(machine2, network=network).start()
    vm2 = machine2.create_vm("vm-bridged")
    bridge = NetBridge(machine2, vm2, network)

    def ssh_body():
        sock = bridge.socket()
        res = yield from ssh_native_launch(machine2, network, sock, DGEMM_BINARY,
                                           argv=[str(N), str(THREADS)], user="tenant")
        return res

    p2 = machine2.sim.spawn(ssh_body())
    machine2.run()
    ssh = p2.value
    sessions = len(daemon.sessions)
    return tool, ssh, sessions


def test_ablation_ssh_vs_micnativeloadex(run_once, golden):
    tool, ssh, sessions = run_once(run_launch_paths)
    golden("a5", {
        "figure": "a5",
        "unit": "seconds",
        **{path: {"total_time": r.total_time, "transfer_time": r.transfer_time,
                  "compute_time": r.compute_time}
           for path, r in (("micnativeloadex", tool), ("ssh", ssh))},
        "ssh_sessions": sessions,
    })

    print_table(
        f"A5: native-mode launch paths from a VM (dgemm N={N}, {THREADS} threads)",
        ["path", "total (s)", "transfer (s)", "compute (s)"],
        [
            ["micnativeloadex + vPHI", f"{tool.total_time:.3f}",
             f"{tool.transfer_time:.3f}", f"{tool.compute_time:.3f}"],
            ["ssh over bridged mic0", f"{ssh.total_time:.3f}",
             f"{ssh.transfer_time:.3f}", f"{ssh.compute_time:.3f}"],
        ],
    )
    print(f"  ssh path left {sessions} logged-in session(s) on the shared card "
          "(the isolation cost §IV-A warns about); the vPHI path left 0")

    assert tool.status == 0 and ssh.status == 0
    # identical device-side computation
    assert ssh.compute_time == pytest.approx(tool.compute_time, rel=1e-6)
    # the explicit-copy path pays the emulated-network tax on 119MB
    assert ssh.transfer_time > 3 * tool.transfer_time
    assert ssh.total_time > tool.total_time
    # and the tenant is logged into the shared card
    assert sessions >= 1
