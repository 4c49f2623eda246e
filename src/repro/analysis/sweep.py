"""Parameter-sweep driver for the benches.

:func:`sweep` runs a measurement across parameter values, in-process
or fanned out over the supervised worker pool
(:func:`repro.engine.backends.fanout.fanout`).  **Worker determinism
contract:** when ``seed`` is given, each parameter value gets its own
child of ``np.random.SeedSequence(seed).spawn(...)``, assigned by
*position in the parameter list* — never by worker or completion order
— so the results are identical for any ``workers`` count (including
serial).

**Telemetry contract:** when observability is enabled and the sweep
fans out, each task collects into a private worker registry whose
portable ``repro.obs/worker@1`` snapshot merges back into the parent
registry *in parameter order* with ``worker=sweep-<index>`` provenance
labels.  Counter and histogram totals land in their original keys, so
journal replay parity holds across parallel runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.engine.backends.fanout import fanout


def _sweep_job(job: dict) -> dict[str, object]:
    """Body of one parameter measurement (in-process or in a worker)."""
    value, entropy = job["value"], job["entropy"]
    extra = () if entropy is None else (np.random.default_rng(entropy),)
    row: dict[str, object] = {"param": value}
    row.update(job["measure"](value, *extra))
    return row


def sweep(
    parameters: Iterable[object],
    measure: Callable[..., Mapping[str, object]],
    *,
    workers: int = 0,
    seed: int | None = None,
) -> list[dict[str, object]]:
    """Run ``measure`` across ``parameters`` and collect dict rows,
    tagging each with its parameter value under the key ``param``.

    ``measure`` is called as ``measure(value)``; when ``seed`` is given
    it is called as ``measure(value, rng)`` with a per-parameter
    deterministic generator (see module docstring).  ``workers > 1``
    fans the calls out over the supervised worker pool, so ``measure``
    must then be picklable (a module-level function; a closure raises
    :class:`~repro.errors.ConfigurationError`).  Rows always come back
    in parameter order, and any metrics the tasks emit merge back into
    the caller's registry in that same order.
    """
    params = list(parameters)
    children = (
        np.random.SeedSequence(seed).spawn(len(params))
        if seed is not None
        else [None] * len(params)
    )
    jobs = [
        {"value": value, "measure": measure, "entropy": child}
        for value, child in zip(params, children)
    ]
    return fanout(_sweep_job, jobs, workers=workers, label="sweep")
