"""Resilient execution layer for the sweep engine.

The paper's headline experiments are long grid sweeps; this package makes
them survive partial failure:

* :class:`~repro.runtime.supervisor.Supervisor` — supervised fork workers
  with per-cell tracking, crash detection, stall timeouts, retries
  and graceful degradation to serial execution;
* :class:`~repro.runtime.retry.RetryPolicy` — capped exponential backoff;
* :class:`~repro.runtime.checkpoint.CheckpointJournal` — durable JSONL
  journal of completed cells so a killed sweep resumes without
  recomputation;
* :class:`~repro.runtime.faults.FaultPlan` — deterministic fault
  injection (crash / hang / raise / exhaust-memory / corrupt) that makes
  all of the above testable;
* :mod:`~repro.runtime.resources` — the resource governor: calibrated
  footprint model and preflight admission under ``--memory-budget``,
  per-worker ``RLIMIT_AS`` soft caps, OOM-vs-crash exitcode
  classification, the graceful-degradation ladder, and disk-budget
  helpers for the trace cache and checkpoint directories;
* :mod:`~repro.runtime.signals` — two-phase graceful shutdown
  (SIGINT/SIGTERM → drain → resumable exit; second signal forces) and
  the progress counter behind the worker heartbeat / stall watchdog;
* :mod:`~repro.runtime.chaos` — the seeded kill-and-resume soak harness
  proving that interrupted sweeps converge to bit-identical results;
* :mod:`~repro.runtime.transport` — pluggable worker transports: the
  default local fork-pipe pool (:class:`LocalForkTransport`) and framed
  TCP to remote worker runners (:class:`TcpTransport`) with versioned
  handshakes, host-loss recovery and per-host quarantine;
* :mod:`~repro.runtime.remote_worker` — the ``--hosts`` counterpart: a
  runner process serving sweep cells over TCP
  (``python -m repro.runtime.remote_worker --listen HOST:PORT``).
"""

from .chaos import (
    HOST_ACTIONS,
    ChaosReport,
    CycleOutcome,
    chaos_soak,
    host_chaos,
)
from .checkpoint import CheckpointJournal, default_checkpoint_dir
from .faults import (
    FaultInjectedError,
    FaultPlan,
    corrupt_file,
    exhaust_address_space,
    tear_jsonl_tail,
)
from .resources import (
    DEFAULT_FOOTPRINT_MODEL,
    Admission,
    FootprintModel,
    Rung,
    apply_worker_rlimit,
    classify_exitcode,
    degradation_rungs,
    ensure_free_space,
    estimate_cell_bytes,
    format_size,
    parse_size,
    peak_rss_bytes,
    plan_admission,
)
from .resources import (
    DEFAULT_TMP_MAX_AGE_S,
    gc_stale_tmp,
    resolve_tmp_max_age,
)
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy
from .signals import (
    HEARTBEAT_CHUNK,
    ShutdownCoordinator,
    check_interrupt,
    get_shutdown,
    graceful_shutdown,
    note_progress,
)
from .supervisor import Supervisor
from .transport import (
    EndpointLostError,
    LocalForkTransport,
    TcpTransport,
    Transport,
    WorkerConfig,
    WorkerEndpoint,
    handshake_spec,
    parse_hosts,
)

__all__ = [
    "Admission",
    "ChaosReport",
    "CheckpointJournal",
    "CycleOutcome",
    "DEFAULT_FOOTPRINT_MODEL",
    "DEFAULT_RETRY_POLICY",
    "DEFAULT_TMP_MAX_AGE_S",
    "EndpointLostError",
    "FaultInjectedError",
    "FaultPlan",
    "FootprintModel",
    "HEARTBEAT_CHUNK",
    "HOST_ACTIONS",
    "LocalForkTransport",
    "RetryPolicy",
    "Rung",
    "ShutdownCoordinator",
    "Supervisor",
    "TcpTransport",
    "Transport",
    "WorkerConfig",
    "WorkerEndpoint",
    "apply_worker_rlimit",
    "chaos_soak",
    "check_interrupt",
    "classify_exitcode",
    "corrupt_file",
    "default_checkpoint_dir",
    "degradation_rungs",
    "ensure_free_space",
    "estimate_cell_bytes",
    "exhaust_address_space",
    "format_size",
    "gc_stale_tmp",
    "get_shutdown",
    "graceful_shutdown",
    "handshake_spec",
    "host_chaos",
    "note_progress",
    "parse_hosts",
    "peak_rss_bytes",
    "plan_admission",
    "resolve_tmp_max_age",
    "tear_jsonl_tail",
]
