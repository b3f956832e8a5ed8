"""Command-line interface: drive the simulated testbed from a shell.

    python -m repro micinfo
    python -m repro fig4 [--sizes 1,1024,65536]
    python -m repro fig5 [--sizes 1048576,268435456]
    python -m repro dgemm --n 2000 --threads 112 [--vm]
    python -m repro stream --n 20000000 --iters 10 [--vm]
    python -m repro trace [--out vphi_trace.json] [--check]
    python -m repro qos [--plan plan.json] [--policy wfq] [--out slo.txt]
    python -m repro pepc [--card 0|--core 0-3|--vm] [--pstate 2] [--tdp 200]

Every command builds the paper's testbed (one 3120P), runs the workload
deterministically, and prints the measured series.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main"]


def _parse_sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _cmd_micinfo(args) -> int:
    from .mpss import micinfo
    from .system import Machine

    machine = Machine(cards=args.cards).boot()
    print(micinfo(machine.kernel.sysfs, cards=args.cards))
    return 0


def _cmd_fig4(args) -> int:
    from .analysis import fig4_latency, to_csv

    sizes = _parse_sizes(args.sizes) if args.sizes else None
    series = fig4_latency(sizes)
    if args.csv:
        print(to_csv(series), end="")
        return 0
    print(f"{'size':>10}  {'native(us)':>11}  {'vPHI(us)':>10}")
    for (size, nl), (_, vl) in zip(series["native"], series["vphi"]):
        print(f"{size:>10}  {nl * 1e6:>11.1f}  {vl * 1e6:>10.1f}")
    print(f"wait-scheme share of the overhead: {series['wait_share']:.1%} (paper: 93%)")
    return 0


def _cmd_fig5(args) -> int:
    from .analysis import fig5_throughput, to_csv

    sizes = _parse_sizes(args.sizes) if args.sizes else None
    series = fig5_throughput(sizes)
    if args.csv:
        print(to_csv(series), end="")
        return 0
    print(f"{'size':>12}  {'native(GB/s)':>13}  {'vPHI(GB/s)':>11}  {'ratio':>6}")
    for (size, nb), (_, vb) in zip(series["native"], series["vphi"]):
        print(f"{size:>12}  {nb / 1e9:>13.2f}  {vb / 1e9:>11.2f}  {vb / nb:>6.0%}")
    return 0


def _launch(args, binary, argv) -> int:
    from .coi import start_coi_daemon
    from .mpss import micnativeloadex
    from .system import Machine
    from .workloads.microbench import ClientContext

    machine = Machine(cards=1).boot()
    start_coi_daemon(machine, card=0)
    if args.vm:
        vm = machine.create_vm("vm0")
        ctx = ClientContext.guest(vm)
    else:
        ctx = ClientContext.native(machine)
    p = ctx.spawn(micnativeloadex(machine, ctx, binary, argv=argv))
    machine.run()
    res = p.value
    where = "VM (vPHI)" if args.vm else "host"
    print(f"{binary.name} from {where}: status={res.status}")
    print(f"  total    : {res.total_time:.6f} s")
    print(f"  transfer : {res.transfer_time:.6f} s "
          f"({res.transferred_bytes >> 20} MB of binaries)")
    print(f"  compute  : {res.compute_time:.6f} s")
    for key in ("c_checksum", "c_expected", "triad_gbps"):
        if key in res.exit_record:
            print(f"  {key:<9}: {res.exit_record[key]:.6g}")
    return 0 if res.status == 0 else 1


def _cmd_dgemm(args) -> int:
    from .workloads import DGEMM_BINARY

    return _launch(args, DGEMM_BINARY, [str(args.n), str(args.threads)])


def _cmd_stream(args) -> int:
    from .workloads import STREAM_BINARY

    return _launch(args, STREAM_BINARY,
                   [str(args.n), str(args.iters), str(args.threads)])


def _cmd_trace(args) -> int:
    """Run the Fig 4 guest workload with spans on; export a Chrome trace.

    The exported JSON loads in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: one track per request tag, one slice per
    lifecycle phase.  ``--check`` additionally verifies the span
    invariants (gap-free phases summing to end-to-end latency) and the
    trace-event schema, failing the command on any violation.
    """
    import json

    from .analysis import (
        check_span_invariants,
        render_span_breakdown,
        span_breakdown,
        validate_chrome_trace,
    )
    from .system import Machine
    from .workloads import ClientContext, sendrecv_latency

    sizes = _parse_sizes(args.sizes) if args.sizes else [1, 1024, 65536]
    machine = Machine(cards=1).boot()
    vm = machine.create_vm("vm0")
    sendrecv_latency(machine, ClientContext.guest(vm), sizes)

    doc = vm.tracer.export_chrome_trace()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
    events = doc["traceEvents"]
    spans = len(vm.tracer.spans)
    print(f"wrote {args.out}: {len(events)} trace events from {spans} spans")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    print()
    print(render_span_breakdown(span_breakdown(vm.tracer)))

    if args.check:
        problems = check_span_invariants(vm.tracer) + validate_chrome_trace(doc)
        if problems:
            print()
            for p in problems:
                print(f"FAIL {p}", file=sys.stderr)
            return 1
        print()
        print(f"ok: span invariants hold and {args.out} is valid trace-event JSON")
    return 0


def _cmd_qos(args) -> int:
    """Run an open-loop multi-tenant QoS plan and print its SLO report.

    With ``--plan FILE`` the plan comes from JSON; otherwise a built-in
    oversubscription smoke plan is generated from ``--tenants`` /
    ``--policy`` / ``--oversub``.  Exits 1 on an invalid plan and on a
    conservation violation (an arrival without exactly one typed
    completion, or leaked arbiter credits): conservation is the
    harness's invariant, so every run checks it.
    """
    from .analysis import qos_stats, render_qos
    from .traffic import TrafficPlan, run_plan
    from .traffic.plan import plan_check

    try:
        if args.plan:
            plan = TrafficPlan.from_file(args.plan)
        else:
            plan = TrafficPlan.smoke(
                tenants=args.tenants, policy=args.policy,
                oversubscription=args.oversub, duration=args.duration,
                seed=args.seed,
            )
    except (ValueError, OSError) as exc:
        print(f"FAIL invalid plan: {exc}", file=sys.stderr)
        return 1
    for line in plan_check(plan):
        print(line)
    print()
    result = run_plan(plan)
    rendered = render_qos(qos_stats(result), limit=args.limit)
    print(rendered)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered + "\n")
        print(f"\nwrote SLO report to {args.out}")
    try:
        result.check_conservation()
    except AssertionError as exc:
        print(f"\nFAIL {exc}", file=sys.stderr)
        return 1
    return 0


def _parse_cores(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    cores: list[int] = []
    for part in text.split(","):
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            cores.extend(range(int(lo), int(hi) + 1))
        else:
            cores.append(int(part))
    return cores


def _render_pepc(rows) -> str:
    lines = [
        f"{'host':>4} {'card':<6} {'sku':<6} {'state':<8} {'req-P':>6} "
        f"{'eff(kHz)':>15} {'Cst':>4} {'cap(W)':>7} {'unc':>5} "
        f"{'power(W)':>9} {'temp(C)':>8} {'thr':>4}"
    ]
    for r in rows:
        req = sorted(set(r["requested_pstate"].values()))
        req_s = f"P{req[0]}" if len(req) == 1 else f"P{req[0]}-P{req[-1]}"
        eff = sorted(set(r["effective_khz"].values()))
        eff_s = (f"{eff[0]}" if len(eff) == 1 else f"{eff[0]}-{eff[-1]}")
        lines.append(
            f"{r['host']:>4} {r['card']:<6} {r['sku']:<6} {r['state']:<8} "
            f"{req_s:>6} {eff_s:>15} {'on' if r['cstates_enabled'] else 'off':>4} "
            f"{r['tdp_cap_w']:>7.0f} {r['uncore_mult']:>5.2f} "
            f"{r['power_w']:>9.1f} {r['temp_c']:>8.1f} "
            f"{'yes' if r['throttled'] else 'no':>4}"
        )
    return "\n".join(lines)


def _cmd_pepc(args) -> int:
    """Query/set card power properties with pepc-style scopes.

    Boots a power-modeled testbed, applies any ``--pstate``/``--tdp``/
    ``--cstates``/``--uncore`` settings at the scope named by
    ``--card``/``--core``/``--vm`` (default: global), then prints the
    resulting property table.
    """
    from .phi import Scope
    from .system import Machine

    machine = Machine(cards=args.cards, card_model=args.sku,
                      power_model="knc").boot()
    vms = None
    if args.vm:
        vms = {"vm0": machine.create_vm("vm0")}
    ctl = machine.pepc(vms=vms)
    if args.vm:
        scope = Scope.one_vm("vm0")
    elif args.core is not None:
        scope = Scope.one_core(_parse_cores(args.core), card=args.card or 0)
    elif args.card is not None:
        scope = Scope.one_card(args.card)
    else:
        scope = Scope.everything()
    if args.pstate is not None:
        ctl.set_pstate(args.pstate, scope)
    if args.tdp is not None:
        ctl.set_tdp(args.tdp, scope)
    if args.cstates is not None:
        ctl.set_cstates(args.cstates == "on", scope)
    if args.uncore is not None:
        ctl.set_uncore(args.uncore, scope)
    print(f"scope: {scope}")
    print(_render_pepc(ctl.info()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vPHI reproduction: simulated Xeon Phi virtualization testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("micinfo", help="print card inventory")
    p.add_argument("--cards", type=int, default=1)
    p.set_defaults(fn=_cmd_micinfo)

    p = sub.add_parser("fig4", help="send-recv latency, native vs vPHI")
    p.add_argument("--sizes", help="comma-separated byte sizes")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="remote-read throughput, native vs vPHI")
    p.add_argument("--sizes", help="comma-separated byte sizes")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("dgemm", help="launch dgemm via micnativeloadex")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--threads", type=int, default=112)
    p.add_argument("--vm", action="store_true", help="launch from inside a VM")
    p.set_defaults(fn=_cmd_dgemm)

    p = sub.add_parser("stream", help="launch the STREAM triad kernel")
    p.add_argument("--n", type=int, default=10_000_000)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--threads", type=int, default=112)
    p.add_argument("--vm", action="store_true", help="launch from inside a VM")
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "trace", help="export a Chrome/Perfetto trace of the vPHI request lifecycle"
    )
    p.add_argument("--sizes", help="comma-separated byte sizes (default 1,1024,65536)")
    p.add_argument("--out", default="vphi_trace.json", help="output JSON path")
    p.add_argument(
        "--check",
        action="store_true",
        help="verify span invariants and trace-event schema; exit 1 on violation",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "qos", help="run an open-loop multi-tenant QoS plan, print SLO table"
    )
    p.add_argument("--plan", help="traffic plan JSON file (default: built-in "
                                  "oversubscription smoke plan)")
    p.add_argument("--tenants", type=int, default=8,
                   help="built-in plan: number of tenant VMs (default 8)")
    p.add_argument("--policy", default="wfq",
                   choices=["rr", "wfq", "priority"],
                   help="arbiter policy for the built-in plan (default wfq)")
    p.add_argument("--oversub", type=float, default=10.0,
                   help="built-in plan: offered load as a multiple of card "
                        "capacity (default 10)")
    p.add_argument("--duration", type=float, default=0.02,
                   help="measurement window in simulated seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=16,
                   help="max tenant rows to print (default 16)")
    p.add_argument("--out", help="also write the rendered report here")
    p.set_defaults(fn=_cmd_qos)

    p = sub.add_parser(
        "pepc",
        help="query/set card power properties (P/C-states, TDP, uncore)",
    )
    p.add_argument("--sku", default="3120P", help="card model (default 3120P)")
    p.add_argument("--cards", type=int, default=1)
    p.add_argument("--card", type=int, default=None,
                   help="scope: one card index (default: global)")
    p.add_argument("--core", default=None,
                   help="scope: core list like 0-3,7 (implies --card, "
                        "default card 0)")
    p.add_argument("--vm", action="store_true",
                   help="scope: a guest VM (vm0 is created; resolves to "
                        "the card its vPHI dispatch targets)")
    p.add_argument("--pstate", type=int, default=None,
                   help="request a P-state index (0 = fastest)")
    p.add_argument("--tdp", type=float, default=None,
                   help="set the RAPL-style TDP cap in watts")
    p.add_argument("--cstates", choices=("on", "off"), default=None,
                   help="enable/disable C-states on idle cores")
    p.add_argument("--uncore", type=float, default=None,
                   help="uncore frequency multiplier in [0.4, 1.0]")
    p.set_defaults(fn=_cmd_pepc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
