"""Result types shared by the three miss classifiers.

Two shapes exist because the paper's three schemes partition misses
differently:

* Ours (Dubois et al.): PC / CTS / CFS / PTS / PFS, where *essential* =
  cold (PC+CTS+CFS) + PTS and *useless* = PFS.  :class:`DuboisBreakdown`.
* Eggers and Torrellas: cold (CM) / true sharing (TSM) / false sharing
  (FSM).  :class:`SimpleBreakdown`.

Both carry the number of data references so miss *rates* (the unit of the
paper's Figures 5 and 6) can be derived without re-walking the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MissClass(Enum):
    """Miss classes of the paper's classification (section 2.0)."""

    PC = "PC"      #: pure cold: block never modified before the miss
    CTS = "CTS"    #: cold + true sharing: cold miss that communicates values
    CFS = "CFS"    #: cold + false sharing: cold miss on a dirty block, unused
    PTS = "PTS"    #: pure true sharing (essential, not cold)
    PFS = "PFS"    #: pure false sharing (useless)

    @property
    def is_cold(self) -> bool:
        return self in (MissClass.PC, MissClass.CTS, MissClass.CFS)

    @property
    def is_essential(self) -> bool:
        """Cold and PTS misses are essential; only PFS is useless."""
        return self is not MissClass.PFS


@dataclass(frozen=True)
class DuboisBreakdown:
    """Five-way miss decomposition of our classification.

    All counts are misses over the whole trace at one block size.
    """

    pc: int
    cts: int
    cfs: int
    pts: int
    pfs: int
    #: Number of data references (loads+stores) in the classified trace.
    data_refs: int

    # -- aggregates ----------------------------------------------------
    @property
    def cold(self) -> int:
        """All cold misses (PC + CTS + CFS)."""
        return self.pc + self.cts + self.cfs

    @property
    def essential(self) -> int:
        """The minimum misses for a correct execution: cold + PTS."""
        return self.cold + self.pts

    @property
    def useless(self) -> int:
        """Misses that could be eliminated: PFS."""
        return self.pfs

    @property
    def total(self) -> int:
        return self.essential + self.useless

    # -- rates (percent, as plotted in Figures 5/6) --------------------
    def rate(self, count: int) -> float:
        """A count as a percentage of data references."""
        return 100.0 * count / self.data_refs if self.data_refs else 0.0

    @property
    def miss_rate(self) -> float:
        return self.rate(self.total)

    @property
    def essential_rate(self) -> float:
        return self.rate(self.essential)

    def count(self, mclass: MissClass) -> int:
        """Count for one :class:`MissClass`."""
        return {MissClass.PC: self.pc, MissClass.CTS: self.cts,
                MissClass.CFS: self.cfs, MissClass.PTS: self.pts,
                MissClass.PFS: self.pfs}[mclass]

    def as_dict(self) -> dict:
        return {"PC": self.pc, "CTS": self.cts, "CFS": self.cfs,
                "PTS": self.pts, "PFS": self.pfs,
                "data_refs": self.data_refs}

    def __add__(self, other: "DuboisBreakdown") -> "DuboisBreakdown":
        if not isinstance(other, DuboisBreakdown):
            return NotImplemented
        return DuboisBreakdown(self.pc + other.pc, self.cts + other.cts,
                               self.cfs + other.cfs, self.pts + other.pts,
                               self.pfs + other.pfs,
                               self.data_refs + other.data_refs)

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (f"refs={self.data_refs} misses={self.total} "
                f"(rate {self.miss_rate:.2f}%) | cold={self.cold} "
                f"[PC={self.pc} CTS={self.cts} CFS={self.cfs}] "
                f"PTS={self.pts} PFS={self.pfs} | essential={self.essential} "
                f"({self.essential_rate:.2f}%) useless={self.useless}")


@dataclass(frozen=True)
class SimpleBreakdown:
    """Three-way decomposition used by the Eggers and Torrellas schemes."""

    cold: int
    true_sharing: int
    false_sharing: int
    data_refs: int

    @property
    def total(self) -> int:
        return self.cold + self.true_sharing + self.false_sharing

    @property
    def essential_estimate(self) -> int:
        """What these schemes would call essential (CM + TSM)."""
        return self.cold + self.true_sharing

    def rate(self, count: int) -> float:
        return 100.0 * count / self.data_refs if self.data_refs else 0.0

    @property
    def miss_rate(self) -> float:
        return self.rate(self.total)

    def as_dict(self) -> dict:
        return {"CM": self.cold, "TSM": self.true_sharing,
                "FSM": self.false_sharing, "data_refs": self.data_refs}

    def __add__(self, other: "SimpleBreakdown") -> "SimpleBreakdown":
        """Merge shard partials: every count is a per-block sum."""
        if not isinstance(other, SimpleBreakdown):
            return NotImplemented
        return SimpleBreakdown(self.cold + other.cold,
                               self.true_sharing + other.true_sharing,
                               self.false_sharing + other.false_sharing,
                               self.data_refs + other.data_refs)

    def describe(self) -> str:
        return (f"refs={self.data_refs} misses={self.total} "
                f"(rate {self.miss_rate:.2f}%) | CM={self.cold} "
                f"TSM={self.true_sharing} FSM={self.false_sharing}")
