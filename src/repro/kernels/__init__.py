"""Vectorized kernel registry and execution-path resolution.

A *kernel* computes one grid cell's counters as NumPy reductions over
columnar rows instead of a per-event Python loop (10×+ single-core on
the cells that have one; see BENCH_throughput.json).  The streaming
implementations stay authoritative: they are the differential-test
oracle (for Dubois, the Appendix A transliteration
:class:`~repro.classify.dubois.DuboisClassifier`) and the execution
path for every cell without a kernel.

Resolution contract (``--kernel {auto,vectorized,interpreted}``):

* ``interpreted`` — every cell runs the streaming oracle;
* ``vectorized`` / ``auto`` (default) — cells with a kernel run it, the
  rest *fall back* to the oracle (finite caches and the delayed
  protocols have inherently sequential state).

Checkpoint journals bind the *effective* mode (``auto`` resolves to
``vectorized``; see :func:`effective_kernel_mode` and
:func:`repro.runtime.checkpoint.journal_digest`), so ``--resume`` can
never mix results computed under different execution paths.
"""

from __future__ import annotations

from ..errors import ConfigError
from .classifiers import (
    KernelContext,
    dubois_kernel,
    eggers_kernel,
    torrellas_kernel,
)
from .protocols import otf_kernel

__all__ = ["KERNEL_MODES", "CLASSIFIER_KERNELS", "PROTOCOL_KERNELS",
           "KernelContext", "validate_kernel_mode", "has_kernel",
           "resolve_kernel", "effective_kernel_mode"]

#: Legal ``--kernel`` settings.
KERNEL_MODES = ("auto", "vectorized", "interpreted")

#: ``{classifier name: kernel}`` for classify cells (compare cells use
#: all three).
CLASSIFIER_KERNELS = {"dubois": dubois_kernel,
                      "eggers": eggers_kernel,
                      "torrellas": torrellas_kernel}
#: ``{protocol name: kernel}`` for protocol cells.
PROTOCOL_KERNELS = {"OTF": otf_kernel}


def validate_kernel_mode(mode: str) -> str:
    """Validate a ``--kernel`` setting, returning it unchanged."""
    if mode not in KERNEL_MODES:
        raise ConfigError(
            f"unknown kernel mode {mode!r}; known: {list(KERNEL_MODES)}")
    return mode


def effective_kernel_mode(mode: str) -> str:
    """Resolve ``auto`` to the execution-path family it takes.

    Returns ``"interpreted"`` for ``interpreted`` and ``"vectorized"``
    otherwise — the string checkpoint journals bind.
    """
    validate_kernel_mode(mode)
    return "interpreted" if mode == "interpreted" else "vectorized"


def has_kernel(kind: str, which) -> bool:
    """True when a vectorized kernel exists for one cell kind.

    ``kind`` is a grid-cell kind (shard subtask kinds resolve like their
    parent: a shard's rows feed the same kernel).
    """
    if kind.endswith("-shard"):
        kind = kind[:-len("-shard")]
    if kind == "classify":
        return which in CLASSIFIER_KERNELS
    if kind == "compare":
        return True
    if kind == "protocol":
        return which in PROTOCOL_KERNELS
    return False


def resolve_kernel(mode: str, kind: str, which) -> str:
    """The execution path one cell takes under a kernel mode.

    Returns ``"vectorized"`` or ``"interpreted"``.  Both ``auto`` and
    ``vectorized`` fall back to the oracle for cells without a kernel.
    """
    if effective_kernel_mode(mode) == "interpreted":
        return "interpreted"
    return "vectorized" if has_kernel(kind, which) else "interpreted"
