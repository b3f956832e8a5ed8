"""Shared report and checks for Figures 6-8: dgemm launch+execution.

§IV-C: "we execute micnativeloadex with dgemm as the supplied binary on
the host and on the VM ... we also measure the total time of execution
from the moment that micnativeloadex is launched ... until the final
results are produced.  We vary the number of threads as well as the size
of the matrices."  The Y axis is the normalized total time; the X axis
the total size of the two input arrays.
"""

from __future__ import annotations

import pytest

from conftest import fmt_size, print_table
from repro.workloads import input_bytes


def report_and_check(series: dict):
    """Print one :func:`repro.analysis.fig678_dgemm` dict, assert §IV-C's
    shape, and return the vPHI/native total-time ratios per N."""
    by_n = series["by_n"]
    ratios = [vphi["total_time"] / native["total_time"] for _, native, vphi in by_n]
    print_table(
        f"{series['figure']}: dgemm launch+execution, {series['threads']} threads "
        "(normalized total time, native=1.0)",
        ["input", "native(s)", "vPHI(s)", "vPHI/native", "compute(s)"],
        [[fmt_size(input_bytes(n)), f"{native['total_time']:.3f}",
          f"{vphi['total_time']:.3f}", f"{ratio:.3f}", f"{native['compute_time']:.3f}"]
         for (n, native, vphi), ratio in zip(by_n, ratios)],
    )

    # --- shape assertions (§IV-C conclusions) ---
    # 1. every launch exits cleanly, and the device execution time is
    #    identical native vs vPHI
    for n, native, vphi in by_n:
        assert native["status"] == vphi["status"] == 0, n
        assert vphi["compute_time"] == pytest.approx(native["compute_time"], rel=1e-6), n
    # 2. relative overhead shrinks as the experiment grows
    assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:])), ratios
    # 3. it is visible for small inputs and negligible for large ones
    assert ratios[0] > 1.03
    assert ratios[-1] < 1.02
    return ratios
