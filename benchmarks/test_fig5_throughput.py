"""Figure 5: remote memory access throughput, native vs vPHI.

Paper anchors: the host remote read peaks at 6.4 GB/s; vPHI reaches
4.6 GB/s = 72 % of native (§IV-B).
"""

import pytest

from conftest import fmt_size, print_table
from repro.analysis import fig5_throughput


def test_fig5_remote_read_throughput(run_once, golden):
    series = run_once(fig5_throughput)
    golden("fig5", series)
    native, vphi = series["native"], series["vphi"]

    rows = []
    for (size, nbw), (_, vbw) in zip(native, vphi):
        rows.append(
            [fmt_size(size), f"{nbw / 1e9:.2f}", f"{vbw / 1e9:.2f}",
             f"{vbw / nbw:.0%}"]
        )
    print_table(
        "Fig 5: remote read throughput (GB/s)",
        ["size", "native", "vPHI", "ratio"],
        rows,
    )

    native_peak = native[-1][1]
    vphi_peak = vphi[-1][1]
    # --- anchors ---
    assert native_peak == pytest.approx(6.4e9, rel=0.01)
    assert vphi_peak == pytest.approx(4.6e9, rel=0.02)
    assert vphi_peak / native_peak == pytest.approx(0.72, abs=0.015)
    # --- shape: both ramp with size; native dominates everywhere ---
    for (size, nbw), (_, vbw) in zip(native, vphi):
        assert nbw > vbw
    nbws = [bw for _, bw in native]
    vbws = [bw for _, bw in vphi]
    assert all(b >= a for a, b in zip(nbws, nbws[1:]))
    assert all(b >= a for a, b in zip(vbws, vbws[1:]))
    # --- the gap is worst at small sizes (fixed 375us dominates) ---
    assert vphi[0][1] / native[0][1] < 0.2
