"""Figure 4: send-receive communication latency, native vs vPHI.

Paper anchors: 7 us native @ 1 B; 382 us through vPHI; the gap is a
constant ~375 us offset across sizes, 93 % of it attributed to the
frontend driver's sleep/wake-up scheme (§IV-B breakdown).
"""

import pytest

from conftest import fmt_size, print_table
from repro.analysis import fig4_latency
from repro.sim import us


def test_fig4_send_receive_latency(run_once, golden):
    series = run_once(fig4_latency)
    golden("fig4", series)
    native, vphi = series["native"], series["vphi"]

    rows = []
    gaps = []
    for (size, nl), (_, vl) in zip(native, vphi):
        gaps.append(vl - nl)
        rows.append(
            [fmt_size(size), f"{nl / us(1):.1f}", f"{vl / us(1):.1f}",
             f"{(vl - nl) / us(1):.1f}"]
        )
    print_table(
        "Fig 4: send-receive latency (us)",
        ["size", "native", "vPHI", "overhead"],
        rows,
    )
    print(f"breakdown: wait-scheme share of overhead = "
          f"{series['wait_share']:.1%} (paper: 93%)")

    # --- anchors ---
    assert native[0][1] == pytest.approx(us(7), rel=0.02)
    assert vphi[0][1] == pytest.approx(us(382), rel=0.01)
    # --- shape: the overhead is a (nearly) constant offset ---
    assert max(gaps) - min(gaps) < 0.05 * gaps[0]
    # --- breakdown: ~93% of the overhead is the wait scheme ---
    assert series["wait_share"] == pytest.approx(0.93, abs=0.01)
    # --- both series increase with size ---
    assert all(b >= a for a, b in zip([l for _, l in native], [l for _, l in native][1:]))
    assert all(b >= a for a, b in zip([l for _, l in vphi], [l for _, l in vphi][1:]))
