"""Figure 7: launch and execution of dgemm using 112 threads (2/core).

Its golden, ``golden/fig7.json``, holds the same bytes as perfbench's
``dgemm_launch`` golden: both pin this sweep.
"""

from dgemm_common import report_and_check
from repro.analysis import fig678_dgemm


def test_fig7_dgemm_112_threads(run_once, golden):
    series = run_once(fig678_dgemm, 112)
    golden("fig7", series)
    ratios = report_and_check(series)
    # 112 threads beat 56 on compute (2 threads/core hide in-order stalls),
    # so the fixed overhead is amortized over *less* time: ratios at the
    # small end are a bit worse than Fig 6's for the same input.
    assert ratios[0] > 1.03
