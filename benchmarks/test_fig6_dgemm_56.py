"""Figure 6: launch and execution of dgemm using 56 threads (1/core)."""

from dgemm_common import report_and_check
from repro.analysis import fig678_dgemm


def test_fig6_dgemm_56_threads(run_once, golden):
    series = run_once(fig678_dgemm, 56)
    golden("fig6", series)
    report_and_check(series)
