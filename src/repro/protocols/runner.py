"""Protocol run drivers and the public registry.

The registry order matches the paper's Figure 6 legend: MIN first (the
essential bound), then OTF, the delayed protocols, WBWI and MAX last (the
worst case).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import ProtocolError
from ..mem.addresses import BlockMap
from ..trace.trace import Trace
from .base import PROTOCOL_REGISTRY, Protocol
from .results import ProtocolResult

# Importing the submodules populates PROTOCOL_REGISTRY.
from . import min_wt as _min_wt          # noqa: F401
from . import otf as _otf                # noqa: F401
from . import rd as _rd                  # noqa: F401
from . import sd as _sd                  # noqa: F401
from . import srd as _srd                # noqa: F401
from . import wbwi as _wbwi              # noqa: F401
from . import maxsched as _maxsched      # noqa: F401
from . import update as _update          # noqa: F401

#: The paper's protocol line-up, in presentation order.
ALL_PROTOCOLS = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX")


def protocol_names() -> List[str]:
    """Names of all registered protocols, in presentation order."""
    ordered = [name for name in ALL_PROTOCOLS if name in PROTOCOL_REGISTRY]
    extras = sorted(set(PROTOCOL_REGISTRY) - set(ordered))
    return ordered + extras


def make_protocol(name: str, num_procs: int, block_map: BlockMap) -> Protocol:
    """Instantiate a registered protocol by name."""
    try:
        cls = PROTOCOL_REGISTRY[name]
    except KeyError:
        raise ProtocolError(
            f"unknown protocol {name!r}; known: {protocol_names()}") from None
    return cls(num_procs, block_map)


def run_protocol(name: str, trace: Trace, block_bytes: int) -> ProtocolResult:
    """Run one protocol over a trace at one block size."""
    protocol = make_protocol(name, trace.num_procs, BlockMap(block_bytes))
    return protocol.run(trace)


def run_protocols(trace: Trace, block_bytes: int,
                  names: Optional[Iterable[str]] = None,
                  *, jobs: int = 1,
                  options=None) -> Dict[str, ProtocolResult]:
    """Run several protocols over the same trace.

    Defaults to the paper's seven schedules (:data:`ALL_PROTOCOLS`);
    extension protocols (WU, CU, ...) must be requested by name.  Returns
    ``{name: result}`` in the given order — the data behind one
    benchmark's group of bars in the paper's Figure 6.

    The protocols run as one :class:`~repro.analysis.engine.SweepEngine`
    grid over the shared trace: ``jobs > 1`` fans them out over
    supervised worker processes, and ``options`` (an
    :class:`repro.analysis.engine.ExecutionOptions`) threads the engine's
    retry/checkpoint/kernel knobs through.
    """
    return {name: result for (_, name), result in run_protocol_grid(
        trace, (block_bytes,), names, jobs=jobs, options=options).items()}


def run_protocol_grid(trace: Trace, block_sizes: Iterable[int],
                      names: Optional[Iterable[str]] = None,
                      *, jobs: int = 1,
                      options=None) -> Dict[tuple, ProtocolResult]:
    """Run a (block size × protocol) grid over one shared trace.

    Returns ``{(block_bytes, name): result}``.  This is the batched form of
    :func:`run_protocols` behind Figure 6a+6b-style experiments: the trace
    is decoded once and every cell fans out over ``jobs`` workers.
    """
    from ..analysis.engine import SweepEngine

    chosen = list(names) if names is not None else list(ALL_PROTOCOLS)
    kwargs = options.engine_kwargs() if options is not None else {}
    return SweepEngine(trace, jobs=jobs,
                       **kwargs).protocol_grid(tuple(block_sizes), chosen)
