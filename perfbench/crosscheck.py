#!/usr/bin/env python3
"""Check the wrapper attribution against cProfile, folded by module.

    python3 perfbench/crosscheck.py [--seed 7] [workload ...]

For each workload: one warm-up regeneration, then one profiled with
cProfile and one traced with the layer wrappers, each over the measured
phases only.  cProfile's self time is folded onto layers by the same
module map; time in code outside the program (numpy, builtins) goes to
the layer of the calling function.  The two share columns should agree.
Where they do not, a layer's code may be reached through an entry point
the wrappers miss, and is billed to its caller (usually ``sim``, which
resumes processes and fires callbacks); the script lists the unwrapped
functions other layers enter, with the self time cProfile saw through
those calls.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

import catalog
from run import _load_program, regenerate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class _Profiling:
    """Stopwatch observer: profile only the measured phases."""

    def __init__(self):
        self.prof = cProfile.Profile(builtins=False)

    def begin(self):
        self.prof.enable()

    def end(self):
        self.prof.disable()


def _module_of(filename: str):
    path = Path(filename)
    if path.suffix != ".py":
        return None
    path = path.resolve()
    if path.is_relative_to(SRC):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)
    if path == HERE / "workloads.py":
        return "workloads"
    return None


def fold(prof, layers) -> tuple[dict, list]:
    """cProfile self time per layer, and the functions other layers
    enter, with their self time through those calls."""
    stats = pstats.Stats(prof).stats
    own = {}
    for key in stats:
        module = _module_of(key[0])
        own[key] = layers.layer_of(module) if module else None

    resolved = {}

    def layer_of_key(key, depth=0):
        """A function's layer, or its dominant caller's for outside code."""
        if own.get(key):
            return own[key]
        if key in resolved:
            return resolved[key]
        resolved[key] = "bench"  # cycle guard / top-level fallback
        callers = stats[key][4] if key in stats else {}
        if callers and depth < 50:
            top = max(callers, key=lambda c: callers[c][3])
            resolved[key] = layer_of_key(top, depth + 1)
        return resolved[key]

    totals = defaultdict(float)
    entries = defaultdict(float)
    for key, (cc, nc, tt, ct, callers) in stats.items():
        layer = own[key]
        if layer:
            totals[layer] += tt
        elif callers:
            for caller, edge in callers.items():
                totals[layer_of_key(caller)] += edge[2]
        else:
            totals["bench"] += tt
        if layer and layer != "bench":
            for caller, edge in callers.items():
                if layer_of_key(caller) != layer:
                    entries[(_module_of(key[0]), key[2], layer_of_key(caller))] += edge[2]
    cross = sorted(((ct, mod, fn, frm) for (mod, fn, frm), ct in entries.items()),
                   reverse=True)
    return dict(totals), cross


def _code_names(trace) -> set:
    """(module, function name) of every wrapped entry point."""
    names = set()
    for qual, _, _ in trace.entries:
        parts = qual.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            if ".".join(parts[:cut]) in sys.modules:
                names.add((".".join(parts[:cut]), parts[-1]))
                break
    return names


def crosscheck(name: str, seed: int, layers, workloads) -> None:
    # run.regenerate collects the previous regeneration's garbage first,
    # so freeing it is not billed to whichever layer is running
    regenerate(workloads, name, seed, False)
    prof = _Profiling()
    regenerate(workloads, name, seed, False, observer=prof)
    profiled, cross = fold(prof.prof, layers)

    trace = layers.LayerTrace()
    trace.install()
    try:
        regenerate(workloads, name, seed, False, observer=trace)
    finally:
        trace.uninstall()
    traced = trace.self_seconds()

    p_total, t_total = sum(profiled.values()), sum(traced.values())
    print(f"\n== {name} (seed {seed}): share of host self time ==")
    print(f"{'layer':<14} {'wrappers':>9} {'cProfile':>9}")
    for layer in sorted(set(profiled) | set(traced),
                        key=lambda k: -traced.get(k, 0.0)):
        t = traced.get(layer, 0.0) / t_total
        p = profiled.get(layer, 0.0) / p_total
        if max(t, p) >= 0.001:
            print(f"{layer:<14} {t:>8.1%} {p:>9.1%}")
    wrapped = _code_names(trace)
    missing = [(ct, mod, fn, frm) for ct, mod, fn, frm in cross
               if (mod, fn) not in wrapped and ct / p_total >= 0.005]
    if missing:
        print("entry points the wrappers miss (cProfile self time):")
        for ct, mod, fn, frm in missing:
            print(f"  {ct / p_total:6.1%}  {mod}.{fn}  (entered from {frm})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    layers, workloads = _load_program()
    for name in args.workloads:
        crosscheck(name, args.seed, layers, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
