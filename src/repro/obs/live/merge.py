"""The cross-process aggregation protocol.

Each job a pool worker runs collects into its own private
:class:`~repro.obs.registry.Registry` (see
:func:`repro.engine.backends.pool.run_collected`), then reports back to
the parent as a *portable snapshot* — a pure-JSON document that
survives a process boundary::

    {"schema": "repro.obs/worker@1", "worker": "task3",
     "counters": {...}, "gauges": {...}, "histograms": {...},
     "spans": {"events": [...], "dropped": 0}}

The parent folds each document in with :func:`merge_portable` in a
deterministic (work-list) order: counters and histograms merge into
their global keys, gauges and spans keep ``worker`` provenance labels
(see :meth:`Registry.merge_snapshot`).  Every parallel path speaks
this protocol through one fan-out,
:func:`repro.engine.backends.fanout.fanout`, which merges in job order
with each job's provenance label (``shard-N``, ``certify-<chunk>``,
``sweep-N``, ``perfect-k8``, ``flows-<fabric>``).
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.obs.registry import Registry

WORKER_SCHEMA = "repro.obs/worker@1"


def portable_snapshot(registry: Registry, *, worker: str | None = None) -> dict:
    """Serialise ``registry`` for transport to a parent process.

    The result is guaranteed JSON-round-trippable; callers crossing a
    real process boundary can ``json.dumps`` it directly.
    """
    doc = {"schema": WORKER_SCHEMA, "worker": worker}
    doc.update(registry.snapshot())
    return doc


def merge_portable(
    registry: Registry, document: dict, *, worker: str | None = None
) -> None:
    """Fold a portable snapshot into ``registry``.

    ``worker`` overrides the document's own label (the parent names
    workers by work-list position, never by completion order, so the
    merge is deterministic for any worker count).
    """
    if document.get("schema") != WORKER_SCHEMA:
        raise ConfigurationError(
            f"not a {WORKER_SCHEMA} document (schema="
            f"{document.get('schema')!r})"
        )
    label = worker if worker is not None else document.get("worker")
    registry.merge_snapshot(document, worker=label)


def roundtrip(document: dict) -> dict:
    """JSON-encode and decode a portable snapshot — what an actual
    process boundary does; workers call this before returning, so the
    protocol's JSON-safety is enforced on every parallel run."""
    return json.loads(json.dumps(document))
