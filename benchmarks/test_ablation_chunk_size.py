"""Ablation A3: KMALLOC bounce-chunk size vs vPHI RMA throughput.

§III chunks transfers at KMALLOC_MAX_SIZE = 4 MB because Linux cannot
kmalloc more physically contiguous memory.  Two effects compete:

* smaller chunks multiply the per-chunk submission + DMA setup overhead
  (256 KB chunks clearly depress the peak);
* chunk sizes small enough to split the 256 MB transfer across several
  ring submissions ride the frontend's *batched* segment path, where the
  guest's kernel->user gather copy of one segment overlaps the backend's
  DMA of the next — which is why the 1 MB point (two batched segments)
  actually beats the single-segment 4 MB default.

The 4 MB ceiling is still a fine operating point (it anchors Fig 5),
but the knee analysis shows the bounce *copy*, not the chunk size, is
the structural cost — and that segment pipelining, not a larger
contiguous allocator, is the way to claw some of it back.
"""

import pytest

from conftest import MB, fmt_size, fresh_machine, print_table
from repro.vphi import VPhiConfig
from repro.workloads import ClientContext, rma_read_throughput

TRANSFER = 256 * MB
CHUNK_SIZES = [256 * 1024, 512 * 1024, MB, 2 * MB, 4 * MB]


def run_chunk_ablation():
    out = []
    for chunk in CHUNK_SIZES:
        machine = fresh_machine()
        vm = machine.create_vm("vm0", vphi_config=VPhiConfig(chunk_size=chunk))
        series = rma_read_throughput(machine, ClientContext.guest(vm), [TRANSFER])
        out.append((chunk, series[0][1]))
    return out


def test_ablation_chunk_size(run_once, golden):
    data = run_once(run_chunk_ablation)
    golden("a3", {
        "figure": "a3",
        "unit": "bytes_per_second",
        "throughput_by_chunk": [[c, bw] for c, bw in data],
    })

    rows = [[fmt_size(c), f"{bw / 1e9:.2f}"] for c, bw in data]
    print_table(
        f"A3: vPHI remote-read peak vs bounce-chunk size ({fmt_size(TRANSFER)} transfer)",
        ["chunk", "GB/s"],
        rows,
    )

    bws = dict(data)
    # the 4MB default hits the Fig 5 anchor
    assert bws[4 * MB] == pytest.approx(4.6e9, rel=0.02)
    # tiny chunks still hurt: 16x the per-chunk overhead of the default
    assert bws[256 * 1024] < 0.8 * bws[4 * MB]
    # among non-segmenting sizes (>= 2MB: one ring submission for the
    # whole 256MB) throughput is monotone in chunk size
    assert bws[2 * MB] <= bws[4 * MB]
    # the segmented+batched 1MB point overlaps gather copies with the
    # next segment's DMA and beats the single-segment default
    assert bws[MB] > bws[4 * MB]
    # but doubling from 2MB to 4MB buys little: the knee is before 4MB,
    # so KMALLOC_MAX_SIZE is not the bottleneck the name suggests
    assert bws[4 * MB] / bws[2 * MB] < 1.10
