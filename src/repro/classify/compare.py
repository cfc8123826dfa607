"""Three-way classifier comparison (paper section 3.3, Table 1).

Runs our, Eggers' and Torrellas' classifiers over the same trace and
packages the counts the paper's Table 1 reports: PTS/TSM, COLD and
PFS/FSM for each scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.addresses import BlockMap
from ..trace.trace import Trace
from .breakdown import DuboisBreakdown, SimpleBreakdown


@dataclass(frozen=True)
class ClassificationComparison:
    """The three breakdowns of one (trace, block size) pair."""

    trace_name: str
    block_bytes: int
    ours: DuboisBreakdown
    eggers: SimpleBreakdown
    torrellas: SimpleBreakdown

    def table1_rows(self) -> dict:
        """The nine counts of one Table 1 column.

        Keys use the paper's row labels (the paper's 'FPS' row label is its
        typo for PFS/FSM; we use PFS).
        """
        return {
            "PTS-ours": self.ours.pts,
            "TSM-Eggers": self.eggers.true_sharing,
            "TSM-Torrellas": self.torrellas.true_sharing,
            "COLD-ours": self.ours.cold,
            "COLD-Eggers": self.eggers.cold,
            "COLD-Torrellas": self.torrellas.cold,
            "PFS-ours": self.ours.pfs,
            "PFS-Eggers": self.eggers.false_sharing,
            "PFS-Torrellas": self.torrellas.false_sharing,
        }

    def __add__(self, other: "ClassificationComparison") -> "ClassificationComparison":
        """Merge shard partials of one (trace, block size) comparison.

        All three schemes keep state per block (or per word, and a word
        belongs to one block), so the counts of a block partition sum to
        the whole-trace counts; the identity attributes must agree.
        """
        if not isinstance(other, ClassificationComparison):
            return NotImplemented
        if (self.trace_name != other.trace_name
                or self.block_bytes != other.block_bytes):
            raise ValueError(
                f"cannot merge comparison shards of different cells: "
                f"({self.trace_name}, {self.block_bytes}) vs "
                f"({other.trace_name}, {other.block_bytes})")
        return ClassificationComparison(
            trace_name=self.trace_name,
            block_bytes=self.block_bytes,
            ours=self.ours + other.ours,
            eggers=self.eggers + other.eggers,
            torrellas=self.torrellas + other.torrellas)

    @property
    def essential_rate_gap(self) -> float:
        """Eggers' (CM+TSM) rate minus ours — the misestimation the paper

        highlights in section 7 (LU32: Eggers 1.68% vs ours 2.14%)."""
        return (self.eggers.rate(self.eggers.essential_estimate)
                - self.ours.essential_rate)


def compare_classifications(trace: Trace, block_bytes: int) -> ClassificationComparison:
    """Classify ``trace`` with all three schemes at ``block_bytes``.

    The three vectorized kernels share one
    :class:`~repro.kernels.classifiers.KernelContext`, so all three see
    identical input: the total miss counts of ours and Eggers' agree
    exactly (both define a miss block-wise) while Torrellas' total also
    agrees (same block-size coherence simulation) — asserted by the
    integration tests.
    """
    # Deferred import: repro.kernels builds on repro.classify.
    from ..kernels.classifiers import (
        KernelContext,
        dubois_kernel,
        eggers_kernel,
        torrellas_kernel,
    )

    ctx = KernelContext.from_trace(trace)
    block_map = BlockMap(block_bytes)
    return ClassificationComparison(
        trace_name=trace.name or "<anonymous>",
        block_bytes=block_bytes,
        ours=dubois_kernel(ctx, block_map),
        eggers=eggers_kernel(ctx, block_map),
        torrellas=torrellas_kernel(ctx, block_map),
    )
