"""Figure-data API: the Figs 6-8 dgemm driver returns its golden's dict."""

import pytest

from repro.analysis import fig678_dgemm

RECORD_KEYS = {"status", "total_time", "transfer_time", "compute_time",
               "transferred_bytes"}


@pytest.fixture(scope="module")
def series():
    return fig678_dgemm(threads=112, problem_sizes=[256, 512])


def test_dgemm_series_columns(series):
    assert series["figure"] == "fig7"
    assert series["threads"] == 112
    assert [n for n, _, _ in series["by_n"]] == [256, 512]
    for _, native, vphi in series["by_n"]:
        assert set(native) == set(vphi) == RECORD_KEYS
        assert native["status"] == vphi["status"] == 0


def test_dgemm_series_shape(series):
    natives = [native["total_time"] for _, native, _ in series["by_n"]]
    vphis = [vphi["total_time"] for _, _, vphi in series["by_n"]]
    for nat, vp in zip(natives, vphis):
        assert vp > nat  # vPHI always costs something
    # bigger problems take longer
    assert natives[1] > natives[0]
