"""Columnar (structure-of-arrays) trace core.

A :class:`TraceColumns` holds one interleaved trace as three parallel
``int64`` NumPy arrays — ``proc``, ``op``, ``addr`` — matching the layout
of the on-disk ``.npz`` format (:mod:`repro.trace.io`), so traces load and
save with zero copies.  It is the only thing a
:class:`~repro.trace.trace.Trace` stores: tuple input is packed by
:meth:`TraceColumns.from_events`, and iteration decodes rows back to
``(proc, op, addr)`` tuples.

The columnar form is what makes parameter sweeps cheap (see
:mod:`repro.analysis.engine`): per-block-size derived columns are single
vectorized expressions (``addr >> shift``), the data-op prefilter is a
boolean mask instead of a per-event branch, and slicing is a NumPy view.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import numpy as np

from ..errors import TraceError
from .events import ACQUIRE, Event, LOAD, OPS, RELEASE, STORE

#: dtype of all three columns (matches the ``.npz`` format).
COLUMN_DTYPE = np.int64


def _as_column(values, label: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != COLUMN_DTYPE:
        arr = arr.astype(COLUMN_DTYPE)
    if arr.ndim != 1:
        raise TraceError(f"{label} column must be one-dimensional, "
                         f"got shape {arr.shape}")
    return arr


def _packing_error(events: Sequence) -> TraceError:
    """Describe the first row of ``events`` that cannot be packed."""
    for ev in events:
        if not isinstance(ev, (tuple, list)) or len(ev) != 3:
            return TraceError(
                f"event must be a (proc, op, addr) triple, got {ev!r}")
        bad = [v for v in ev if not isinstance(v, (int, np.integer))
               or not -2**63 <= v < 2**63]
        if bad:
            return TraceError(
                f"field {bad[0]!r} in event {ev!r} is not an int64 integer")
    return TraceError("events must be (proc, op, addr) integer triples")


class TraceColumns:
    """Three parallel ``int64`` arrays encoding an interleaved trace.

    Parameters
    ----------
    proc, op, addr:
        Equal-length one-dimensional arrays (anything ``np.asarray``
        accepts).  Arrays already of dtype int64 are stored by reference
        (zero-copy); other dtypes are converted.
    """

    __slots__ = ("proc", "op", "addr")

    def __init__(self, proc, op, addr):
        self.proc = _as_column(proc, "proc")
        self.op = _as_column(op, "op")
        self.addr = _as_column(addr, "addr")
        if not (len(self.proc) == len(self.op) == len(self.addr)):
            raise TraceError(
                f"column lengths differ: proc={len(self.proc)} "
                f"op={len(self.op)} addr={len(self.addr)}")

    # ------------------------------------------------------------------
    # construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "TraceColumns":
        """Encode a sequence of ``(proc, op, addr)`` integer triples.

        Raises :class:`~repro.errors.TraceError` for a row that is not a
        triple of integers that fit in int64 (nothing is truncated).
        """
        try:
            # No dtype: NumPy infers an integer dtype only when every
            # field is an integer that fits in int64, so floats and
            # overflow are diagnosed below instead of truncated.
            packed = np.array(events)
        except ValueError:  # ragged rows
            raise _packing_error(events) from None
        if len(events) == 0:
            packed = np.empty((0, 3), dtype=COLUMN_DTYPE)
        elif (packed.ndim != 2 or packed.shape[1] != 3
              or packed.dtype.kind not in "bi"):
            raise _packing_error(events)
        packed = packed.astype(COLUMN_DTYPE, copy=False)
        # np.ascontiguousarray gives each column its own compact buffer
        # (a strided view would pin the full 3xN matrix in memory).
        return cls(np.ascontiguousarray(packed[:, 0]),
                   np.ascontiguousarray(packed[:, 1]),
                   np.ascontiguousarray(packed[:, 2]))

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.proc)

    def __iter__(self) -> Iterator[Event]:
        """Decode the rows into ``(proc, op, addr)`` tuples of Python ints."""
        return zip(self.proc.tolist(), self.op.tolist(), self.addr.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TraceColumns(self.proc[index], self.op[index],
                                self.addr[index])
        return (int(self.proc[index]), int(self.op[index]),
                int(self.addr[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceColumns):
            return NotImplemented
        return (np.array_equal(self.proc, other.proc)
                and np.array_equal(self.op, other.op)
                and np.array_equal(self.addr, other.addr))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceColumns: {len(self)} events>"

    def take(self, indices: np.ndarray) -> "TraceColumns":
        """Gather a subset of rows by index array."""
        return TraceColumns(self.proc[indices], self.op[indices],
                            self.addr[indices])

    def concat(self, other: "TraceColumns") -> "TraceColumns":
        """Row-wise concatenation."""
        return TraceColumns(np.concatenate([self.proc, other.proc]),
                            np.concatenate([self.op, other.op]),
                            np.concatenate([self.addr, other.addr]))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def infer_num_procs(self) -> int:
        """``max(proc) + 1`` (1 for an empty trace)."""
        if len(self.proc) == 0:
            return 1
        return int(self.proc.max()) + 1

    def validate(self, num_procs: int) -> None:
        """Vectorized well-formedness check (mirrors ``validate_event``)."""
        if len(self) == 0:
            return
        if self.proc.min() < 0 or self.proc.max() >= num_procs:
            bad = int(self.proc[(self.proc < 0)
                                | (self.proc >= num_procs)][0])
            raise TraceError(
                f"processor id {bad} out of range for {num_procs} processors")
        if self.op.min() < min(OPS) or self.op.max() > max(OPS):
            bad = int(self.op[(self.op < min(OPS)) | (self.op > max(OPS))][0])
            raise TraceError(f"bad opcode {bad!r}")
        if self.addr.min() < 0:
            bad = int(self.addr[self.addr < 0][0])
            raise TraceError(f"bad word address {bad!r}")

    # ------------------------------------------------------------------
    # derived columns (the sweep engine's raw material)
    # ------------------------------------------------------------------
    def op_counts(self) -> np.ndarray:
        """Event count per opcode, indexed by opcode (length 4)."""
        return np.bincount(self.op, minlength=len(OPS))[:len(OPS)]

    def data_mask(self) -> np.ndarray:
        """Boolean mask of LOAD/STORE rows (the data-op prefilter)."""
        return self.op <= STORE  # LOAD == 0, STORE == 1

    def data_indices(self) -> np.ndarray:
        """Row indices of LOAD/STORE events."""
        return np.flatnonzero(self.data_mask())

    def data_only(self) -> "TraceColumns":
        """Compressed copy containing only LOAD/STORE rows."""
        return self.take(self.data_indices())

    def sync_indices(self) -> Dict[int, np.ndarray]:
        """Row indices of ACQUIRE and RELEASE events, keyed by opcode."""
        return {ACQUIRE: np.flatnonzero(self.op == ACQUIRE),
                RELEASE: np.flatnonzero(self.op == RELEASE)}

    def block_ids(self, offset_bits: int) -> np.ndarray:
        """Block address per event: ``addr >> offset_bits``, vectorized."""
        return self.addr >> offset_bits

    def word_offsets(self, words_per_block: int) -> np.ndarray:
        """Word offset within the block per event, vectorized."""
        return self.addr & (words_per_block - 1)

    def per_processor_indices(self, num_procs: int) -> List[np.ndarray]:
        """Row indices of each processor's events (program order)."""
        return [np.flatnonzero(self.proc == p) for p in range(num_procs)]

    def touched_words(self) -> np.ndarray:
        """Sorted unique word addresses touched by data accesses."""
        return np.unique(self.addr[self.data_mask()])
