"""Programmatic figure data: the one driver of each of Figs 4-8.

Each function runs its figure's sweep on fresh machines and returns the
JSON dict its golden (``benchmarks/golden/<figure>.json``) holds.  The
CLI, :func:`to_csv` and the figure benchmarks all read that dict.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["FIG4_SIZES", "FIG5_SIZES", "DGEMM_SIZES", "fig4_latency",
           "fig5_throughput", "fig678_dgemm", "to_csv"]

MB = 1 << 20
FIG4_SIZES = (1, 64, 256, 1024, 4096, 16384, 65536)
FIG5_SIZES = (64 * 1024, 256 * 1024, MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB)
#: matrix orders of Figs 6-8 (total input size 2*N^2*8 bytes: 4 MB .. 2.3 GB)
DGEMM_SIZES = (500, 1000, 2000, 4000, 8000, 12000)
#: which figure each thread count is (1, 2 and 4 threads per core)
_DGEMM_FIGURES = {56: "fig6", 112: "fig7", 224: "fig8"}
#: CSV column suffix per Fig 4/5 unit
_CSV_SUFFIX = {"seconds": "s", "bytes_per_second": "bps"}


def to_csv(series: dict) -> str:
    """A Fig 4 or Fig 5 dict as CSV: one row per size, both stacks."""
    suffix = _CSV_SUFFIX[series["unit"]]
    lines = [f"size_bytes,native_{suffix},vphi_{suffix}"]
    for (size, native), (_, vphi) in zip(series["native"], series["vphi"]):
        lines.append(f"{size},{native:.9g},{vphi:.9g}")
    return "\n".join(lines) + "\n"


def _both_stacks(workload, sizes):
    """``workload`` from a host client, then from a guest client on a
    second machine; returns both series and the guest's VM."""
    from ..system import Machine
    from ..workloads import ClientContext

    machine = Machine(cards=1).boot()
    native = workload(machine, ClientContext.native(machine), sizes)
    machine2 = Machine(cards=1).boot()
    vm = machine2.create_vm("vm0")
    vphi = workload(machine2, ClientContext.guest(vm), sizes)
    return native, vphi, vm


def fig4_latency(sizes: Optional[Sequence[int]] = None) -> dict:
    """Fig 4: send-recv latency (seconds) per message size, both stacks.

    ``wait_share`` is the §IV-B breakdown: the per-request time spent in
    the frontend's sleep/wake-up scheme (the ``guest_wake`` span phase,
    which every forwarded op pays once) over the first size's gap.
    """
    from ..workloads import sendrecv_latency
    from .spans import span_breakdown

    native, vphi, vm = _both_stacks(sendrecv_latency, list(sizes or FIG4_SIZES))
    per_op = span_breakdown(vm.tracer).values()
    wait = (sum(bd.phases.get("guest_wake", 0.0) for bd in per_op)
            / sum(bd.count for bd in per_op))
    return {
        "figure": "fig4",
        "unit": "seconds",
        "native": [[s, t] for s, t in native],
        "vphi": [[s, t] for s, t in vphi],
        "wait_share": wait / (vphi[0][1] - native[0][1]),
    }


def fig5_throughput(sizes: Optional[Sequence[int]] = None) -> dict:
    """Fig 5: remote-read throughput (bytes/s) per transfer size."""
    from ..workloads import rma_read_throughput

    native, vphi, _ = _both_stacks(rma_read_throughput, list(sizes or FIG5_SIZES))
    return {
        "figure": "fig5",
        "unit": "bytes_per_second",
        "native": [[s, bw] for s, bw in native],
        "vphi": [[s, bw] for s, bw in vphi],
    }


def _dgemm_launch(n: int, threads: int, guest: bool) -> dict:
    """One ``micnativeloadex dgemm`` on a fresh machine with a COI daemon."""
    from ..coi import start_coi_daemon
    from ..mpss import micnativeloadex
    from ..system import Machine
    from ..workloads import DGEMM_BINARY, ClientContext

    machine = Machine(cards=1).boot()
    start_coi_daemon(machine, card=0)
    ctx = (ClientContext.guest(machine.create_vm("vm0")) if guest
           else ClientContext.native(machine))
    proc = ctx.spawn(micnativeloadex(machine, ctx, DGEMM_BINARY,
                                     argv=[str(n), str(threads)]))
    machine.run()
    res = proc.value
    return {"status": res.status, "total_time": res.total_time,
            "transfer_time": res.transfer_time,
            "compute_time": res.compute_time,
            "transferred_bytes": res.transferred_bytes}


def fig678_dgemm(threads: int, problem_sizes: Optional[Sequence[int]] = None) -> dict:
    """Figs 6-8: dgemm launch + execution per matrix order, both stacks.

    ``by_n`` holds ``[n, native, vphi]`` launch records.
    """
    return {
        "figure": _DGEMM_FIGURES.get(threads, f"dgemm_{threads}"),
        "threads": threads,
        "by_n": [[n, _dgemm_launch(n, threads, False), _dgemm_launch(n, threads, True)]
                 for n in problem_sizes or DGEMM_SIZES],
    }
