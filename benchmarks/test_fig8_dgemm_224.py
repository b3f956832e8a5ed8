"""Figure 8: launch and execution of dgemm using 224 threads (4/core,
the full hardware-thread complement of the 56 usable cores)."""

from dgemm_common import report_and_check
from repro.analysis import fig678_dgemm


def test_fig8_dgemm_224_threads(run_once, golden):
    series = run_once(fig678_dgemm, 224)
    golden("fig8", series)
    report_and_check(series)
    # oversubscription of cores (4 threads/core) is handled by the uOS
    # scheduler and still improves on 112 threads
    for n, native, vphi in series["by_n"]:
        assert native["compute_time"] > 0
