#!/usr/bin/env python3
"""Self-tests of the benchmark, on reduced-size workloads.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Every workload runs at reduced size (short sweeps, 20 tenants, a tenth
of the A14 job) untraced and traced, so the whole file takes about half
a minute.  The goldens pin full-size outputs only; here the outputs are
checked against themselves: traced against untraced, and one seed's
conservation on the open-loop workload.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import run  # noqa: E402

layers, workloads = run._load_program()

SEED = workloads.DEFAULT_SEED
#: a seed no check was written against
OTHER_SEED = 20_261


def _runs():
    """Each workload's reduced untraced and traced run, made once."""
    if not _runs.cache:
        for name in catalog.WORKLOADS:
            _runs.cache[name] = (
                run.timed_run(workloads, name, SEED, 0.0, reduced=True),
                run.traced_run(layers, workloads, name, SEED, 0.0, reduced=True),
            )
    return _runs.cache


_runs.cache = {}


def test_manifest_matches_catalog():
    catalog.check_manifest(HERE.parent / "BENCHMARK.json")
    assert list(catalog.WORKLOADS) == list(workloads.WORKLOADS)


def test_every_declared_metric_is_emitted_finite():
    for name, (timed, traced) in _runs().items():
        for result, kind in ((timed, catalog.END_TO_END), (traced, catalog.LAYER)):
            emitted = catalog.emit(result["metrics"], kind)
            want = {m.name for m in catalog.METRICS.values()
                    if m.kind == kind and m.manifest}
            assert set(emitted) == want, (name, kind, want ^ set(emitted))
            for metric, rec in emitted.items():
                assert math.isfinite(rec["value"]), (name, metric, rec)


def test_metric_names_are_well_formed():
    for metric in catalog.METRICS:
        assert catalog.NAME.fullmatch(metric), metric
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for entry in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]:
        assert catalog.NAME.fullmatch(entry["name"]), entry


def test_undeclared_names_fail():
    for bad in ("wal_s", "sim.event"):
        try:
            catalog.declared(bad)
        except KeyError:
            pass
        else:
            raise AssertionError(f"{bad!r} read as declared")
    values = {m: 1.0 for m in ("wall_s", "setup_s", "peak_rss_mb",
                               "sim_s_per_wall_s")}
    catalog.emit(values, catalog.END_TO_END)
    try:
        catalog.emit(dict(values, wal_s=1.0), catalog.END_TO_END)
    except KeyError:
        pass
    else:
        raise AssertionError("an undeclared metric was emitted")


def test_runs_are_correct_and_tracing_leaves_outputs_identical():
    for name, (timed, traced) in _runs().items():
        for result in (timed, traced):
            outcome = result["outcome"]
            assert outcome.correct, (name, outcome.problems)
        # traced_run compares every traced regeneration's outputs with
        # the first untraced one; check the two runs agree as well
        assert timed["outcome"].reference == traced["outcome"].reference, name


def test_pool_and_qos_do_no_work_outside_qos_oversub():
    for name, (_, traced) in _runs().items():
        if name == "qos_oversub":
            assert traced["metrics"]["vphi.pool.calls"] > 0
            assert traced["metrics"]["vphi.qos.calls"] > 0
            continue
        for layer in ("vphi.pool", "vphi.qos"):
            assert traced["metrics"][f"{layer}.calls"] == 0, (name, layer)


def test_qos_conserves_arrivals_on_another_seed():
    regen = workloads.regenerate("qos_oversub", OTHER_SEED, reduced=True)
    out = regen.outputs
    assert regen.failed == 0, regen.problems
    assert out["errors"] == 0, out
    assert out["offered"] == out["completed"] + out["shed"] + out["errors"], out
    assert out["shed"] > 0 and out["completed"] > 0, out


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as err:
                failed += 1
                print(f"FAIL {name}: {err}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
