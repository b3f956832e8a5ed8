"""Cross-validation: the closed-form predictors vs the full simulation.

The calibration module documents the timing model in closed form; the
simulator implements it mechanistically across a dozen components.  If
they drift apart, either the documentation lies or a code path charges
the wrong cost — both are bugs.  This suite pins them together across a
grid of sizes (beyond the calibration anchors).
"""

import pytest

from repro.analysis import (
    fig4_latency,
    fig5_throughput,
    predicted_native_latency,
    predicted_native_rma_time,
    predicted_vphi_latency,
    predicted_vphi_rma_time,
    to_csv,
)

MB = 1 << 20

LAT_SIZES = [1, 512, 8192, 65536]
RMA_SIZES = [256 * 1024, 4 * MB, 32 * MB, 128 * MB]


@pytest.fixture(scope="module")
def fig4():
    return fig4_latency(LAT_SIZES)


@pytest.fixture(scope="module")
def fig5():
    return fig5_throughput(RMA_SIZES)


def test_native_latency_model_matches_sim(fig4):
    for size, sim_lat in fig4["native"]:
        assert sim_lat == pytest.approx(predicted_native_latency(size), rel=0.02), size


def test_vphi_latency_model_matches_sim(fig4):
    for size, sim_lat in fig4["vphi"]:
        assert sim_lat == pytest.approx(predicted_vphi_latency(size), rel=0.02), size


def test_native_rma_model_matches_sim(fig5):
    for size, sim_bw in fig5["native"]:
        model_bw = size / predicted_native_rma_time(size)
        assert sim_bw == pytest.approx(model_bw, rel=0.03), size


def test_vphi_rma_model_matches_sim(fig5):
    for size, sim_bw in fig5["vphi"]:
        model_bw = size / predicted_vphi_rma_time(size)
        assert sim_bw == pytest.approx(model_bw, rel=0.05), size


def test_csv_export_roundtrip(fig4):
    csv = to_csv(fig4)
    lines = csv.strip().split("\n")
    assert lines[0] == "size_bytes,native_s,vphi_s"
    assert len(lines) == 1 + len(LAT_SIZES)
    # values parse back
    first = lines[1].split(",")
    assert int(first[0]) == LAT_SIZES[0]
    assert float(first[1]) > 0


def test_series_column_access(fig4):
    assert set(fig4) == {"figure", "unit", "native", "vphi", "wait_share"}
    assert [s for s, _ in fig4["native"]] == LAT_SIZES
    assert [s for s, _ in fig4["vphi"]] == LAT_SIZES
