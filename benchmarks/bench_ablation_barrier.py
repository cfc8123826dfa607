"""Ablation: ANL barrier layout (paper section 6.0).

The paper attributes JACOBI's false sharing at B=8 to the ANL barrier
implementation storing its counter and flag "in consecutive memory
locations".  We rebuild JACOBI with the barrier pair padded to a block
boundary and show that the B=8 false-sharing component disappears while
everything else is unchanged.
"""

from repro.classify import classify
from repro.workloads import Jacobi


def _jacobi(padded):
    return Jacobi(64, iterations=4, padded_barrier=padded,
                  num_procs=16).generate()


def test_barrier_padding_removes_small_block_false_sharing(benchmark):
    unpadded, padded = benchmark.pedantic(
        lambda: (_jacobi(False), _jacobi(True)), rounds=1, iterations=1)

    print()
    print(f"{'B':>5s} {'PFS unpadded':>13s} {'PFS padded':>11s}")
    results = {}
    for bb in (8, 16, 32, 64):
        pfs_u = classify(unpadded, bb).pfs
        pfs_p = classify(padded, bb).pfs
        results[bb] = (pfs_u, pfs_p)
        print(f"{bb:>5d} {pfs_u:>13d} {pfs_p:>11d}")

    # The paper's effect: barrier words cause ALL the PFS at B=8..64 in
    # JACOBI (grid partition boundaries only matter at larger blocks).
    assert results[8][0] > 0
    assert results[8][1] == 0
    for bb in (16, 32, 64):
        assert results[bb][1] < results[bb][0]

    # The padding leaves true sharing untouched at B=8.
    bu = classify(unpadded, 8)
    bp = classify(padded, 8)
    assert abs((bu.pts + bu.cts) - (bp.pts + bp.cts)) \
        <= 0.02 * (bu.pts + bu.cts)
    benchmark.extra_info["pfs_by_block"] = {
        str(bb): {"unpadded": u, "padded": p}
        for bb, (u, p) in results.items()}
