"""Golden files: every committed series digest matches its body.

Runs no simulation.  A benchmark that regenerates a series compares it
against ``benchmarks/golden/<name>.json``; this suite checks the files
themselves, so a hand-edited or truncated golden fails here first.
"""

import hashlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = sorted([*(ROOT / "benchmarks" / "golden").glob("*.json"),
                  *(ROOT / "perfbench" / "golden").glob("*.json")])


def canonical(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_recorded_sha256_matches_the_body(path):
    text = path.read_text()
    body = json.loads(text)
    recorded = body.pop("sha256")
    assert recorded == hashlib.sha256(canonical(body).encode()).hexdigest()
    # the file is exactly what a bless writes
    assert text == canonical(dict(body, sha256=recorded))


def test_every_north_star_series_is_pinned():
    names = {p.stem for p in GOLDENS}
    assert {"fig4", "fig5", "fig6", "fig7", "fig8", "sharing",
            *(f"a{i}" for i in range(1, 15))} <= names


def test_fig7_and_the_launch_benchmark_pin_the_same_bytes():
    fig7 = ROOT / "benchmarks" / "golden" / "fig7.json"
    launch = ROOT / "perfbench" / "golden" / "dgemm_launch.json"
    assert fig7.read_bytes() == launch.read_bytes()
