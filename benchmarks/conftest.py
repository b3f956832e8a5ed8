"""Shared benchmark fixtures, table rendering and the golden check.

Every benchmark file regenerates one figure of the paper's §IV or one
ablation: it builds a fresh simulated testbed, runs the exact workload,
prints the series, and asserts the *shape* the paper reports (who wins,
by what factor, where the overhead amortizes).

The simulation is deterministic, so each benchmark also pins the exact
series it asserts on with the ``golden`` fixture: the run must match
``golden/<name>.json`` to the last bit.  An intentional model change
re-blesses the goldens, which makes the drift reviewable in the diff:

    python -m pytest benchmarks/ --bless            # rewrite the goldens
    python -m pytest benchmarks/ --series-out DIR   # also dump each series
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro import Machine
from repro.coi import start_coi_daemon

MB = 1 << 20
GB = 1 << 30

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: how many differing leaves a drifted series reports
DIFF_LINES = 20


def fresh_machine(cards: int = 1) -> Machine:
    """The paper's testbed: E5-2695v2 host + 3120P card(s)."""
    return Machine(cards=cards).boot()


def fresh_machine_with_daemon(cards: int = 1) -> Machine:
    m = fresh_machine(cards)
    for c in range(cards):
        start_coi_daemon(m, card=c)
    return m


def fmt_size(nbytes: int) -> str:
    if nbytes >= GB:
        return f"{nbytes / GB:g}GB"
    if nbytes >= MB:
        return f"{nbytes / MB:g}MB"
    if nbytes >= 1024:
        return f"{nbytes / 1024:g}KB"
    return f"{nbytes}B"


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Render one figure's series as the paper would tabulate it."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


@pytest.fixture
def run_once(benchmark):
    """pytest-benchmark wrapper: one deterministic simulation per round."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


# ----------------------------------------------------------------------
# golden series
# ----------------------------------------------------------------------
def pytest_addoption(parser):
    group = parser.getgroup("golden", "golden series")
    group.addoption("--bless", action="store_true",
                    help="rewrite golden/<name>.json from each checked series")
    group.addoption("--series-out", metavar="DIR", type=Path, default=None,
                    help="also write each checked series to DIR/<name>.json")


def canonical(series: dict) -> str:
    return json.dumps(series, sort_keys=True, indent=2) + "\n"


def digest(series: dict) -> str:
    return hashlib.sha256(canonical(series).encode()).hexdigest()


_ABSENT = "<absent>"


def leaf_diff(golden, new, path: str):
    """Yield ``(path, golden value, new value)`` for each differing leaf."""
    if isinstance(golden, dict) and isinstance(new, dict):
        for key in sorted(golden.keys() | new.keys()):
            yield from leaf_diff(golden.get(key, _ABSENT), new.get(key, _ABSENT),
                                 f"{path}.{key}")
    elif isinstance(golden, list) and isinstance(new, list):
        for i, (g, n) in enumerate(itertools.zip_longest(golden, new, fillvalue=_ABSENT)):
            yield from leaf_diff(g, n, f"{path}[{i}]")
    elif golden != new:
        yield path, golden, new


@pytest.fixture(scope="session")
def golden(request):
    """``golden(name, series)``: fail unless ``series`` is bit-identical
    to the one ``golden/<name>.json`` records."""
    bless = request.config.getoption("--bless")
    out_dir = request.config.getoption("--series-out")

    def check(name: str, series: dict) -> None:
        stamped = canonical(dict(series, sha256=digest(series)))
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.json").write_text(stamped)
        path = GOLDEN_DIR / f"{name}.json"
        if bless:
            path.write_text(stamped)
            return
        if not path.exists():
            pytest.fail(f"{name}: no golden at {path} (run with --bless)")
        recorded = json.loads(path.read_text())
        sha = recorded.pop("sha256", None)
        if sha != digest(recorded):
            pytest.fail(f"{path.name}: recorded sha256 does not match the "
                        "file's body (corrupted golden?)")
        if sha == digest(series):
            return
        new = json.loads(canonical(series))
        lines = [f"  {p}: golden {g!r} != new {n!r}" for p, g, n in
                 itertools.islice(leaf_diff(recorded, new, name), DIFF_LINES)]
        pytest.fail(f"{name}: series drifted from {path.name} (first "
                    f"{DIFF_LINES} differing leaves; --bless if intended)\n"
                    + "\n".join(lines))

    return check
