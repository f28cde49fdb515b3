"""Performance layer: parallel execution and bench timing.

``repro.perf`` concentrates everything that makes the reproduction fast
without changing results.  There is no runtime switch between
implementations: each behaviour has one production path, and the original
(seed) implementations that tests and benchmarks compare against live in
the ``tests/reference`` oracle.

* :mod:`repro.perf.parallel` — the ``REPRO_JOBS`` process-pool engine the
  emulation runners fan out on (deterministic at any job count).
* :mod:`repro.perf.timing` — stopwatch/throughput helpers plus the
  ``BENCH_PERF.json`` report writer.
* :mod:`repro.perf.workers` — the persistent worker pool + shared-memory
  payload shipping that sharded sweep campaigns run on (workers started
  once per campaign, heavyweight state shipped via
  ``multiprocessing.shared_memory`` instead of per-task pickling).
* :mod:`repro.perf.encode` — per-frame jigsaw encode fan-out (imported
  lazily by callers; not re-exported here to keep import cycles impossible
  from the fountain layer).
"""

from .parallel import (
    JOBS_ENV_VAR,
    POOL_BREAK_EVEN_S,
    PROBE_WARMUP_FACTOR,
    effective_jobs,
    parallel_map,
)
from .workers import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_TASK_TIMEOUT_S,
    PersistentPool,
    SharedPayload,
    SharedPayloadHandle,
)
from .timing import (
    Stopwatch,
    read_bench_report,
    speedup,
    throughput,
    time_call,
    time_call_best,
    write_bench_report,
)

__all__ = [
    "JOBS_ENV_VAR",
    "effective_jobs",
    "POOL_BREAK_EVEN_S",
    "PROBE_WARMUP_FACTOR",
    "parallel_map",
    "DEFAULT_HEARTBEAT_S",
    "DEFAULT_TASK_TIMEOUT_S",
    "PersistentPool",
    "SharedPayload",
    "SharedPayloadHandle",
    "Stopwatch",
    "read_bench_report",
    "speedup",
    "throughput",
    "time_call",
    "time_call_best",
    "write_bench_report",
]
