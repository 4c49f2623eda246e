"""repro.engine.backends — parallel execution.

Every parallel path in the package fans out through :func:`fanout`:
on the persistent worker pool under the self-healing
:class:`ShardSupervisor` at ``workers > 1``, in-process otherwise.
:func:`run_stream` is the sharded random-trial stream behind ``repro
verify --backend process``; see ``docs/performance.md`` ("Scaling").
"""

from repro.engine.backends.fanout import fanout, resolve_workers
from repro.engine.backends.pool import shared_pool, shutdown_pools
from repro.engine.backends.stream import (
    DEFAULT_SHARD_TRIALS,
    StreamSpec,
    StreamSummary,
    run_stream,
    shard_valid,
    summarize_batch,
)
from repro.engine.backends.supervisor import (
    ShardSupervisor,
    SupervisorPolicy,
    add_event_sink,
    chaos_from_env,
    remove_event_sink,
)

__all__ = [
    "DEFAULT_SHARD_TRIALS",
    "ShardSupervisor",
    "StreamSpec",
    "StreamSummary",
    "SupervisorPolicy",
    "add_event_sink",
    "chaos_from_env",
    "fanout",
    "remove_event_sink",
    "resolve_workers",
    "run_stream",
    "shard_valid",
    "shared_pool",
    "shutdown_pools",
    "summarize_batch",
]
