"""Snapshot exporters: JSON files and Markdown sections.

A *snapshot* is the plain dict produced by
:meth:`repro.obs.registry.Registry.snapshot` — five keys
(``counters``, ``gauges``, ``histograms``, ``series``, ``spans``)
holding only JSON-native values, so :func:`write_metrics_json` /
:func:`read_metrics_json` round-trip it losslessly.

:func:`metrics_markdown` renders the same snapshot as GitHub-flavoured
Markdown tables; :meth:`repro.analysis.reporting.ReportBuilder
.add_metrics` splices that into a report document.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ConfigurationError

#: Snapshot schema version recorded in every metrics.json.
SCHEMA_VERSION = 1


def _jsonable(snapshot: dict) -> dict:
    """Replace the infinities an empty histogram would carry (already
    mapped to None by Histogram.as_dict, but be safe for hand-built
    snapshots)."""

    def fix(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: fix(v) for k, v in value.items()}
        if isinstance(value, list):
            return [fix(v) for v in value]
        return value

    return fix(snapshot)


def write_metrics_json(snapshot: dict, path: str | Path) -> Path:
    """Write one snapshot (plus schema/version header) to ``path``."""
    target = Path(path)
    if target.exists() and target.is_dir():
        raise ConfigurationError(f"{target} is a directory")
    document = {"schema": "repro.obs/metrics", "version": SCHEMA_VERSION}
    document.update(_jsonable(snapshot))
    target.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return target


def read_metrics_json(path: str | Path) -> dict:
    """Read a metrics.json back into a snapshot dict (header checked
    and stripped, so ``read(write(s)) == s`` for registry snapshots)."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not JSON: {exc}") from None
    if not isinstance(document, dict) or document.get("schema") != "repro.obs/metrics":
        raise ConfigurationError(f"{path} is not a repro.obs metrics file")
    return {
        key: document[key]
        for key in ("counters", "gauges", "histograms", "series", "spans")
        if key in document
    }


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def metrics_markdown(snapshot: dict, *, max_span_events: int = 20) -> str:
    """Render a snapshot as Markdown tables (counters, gauges,
    histograms, then the slowest span events)."""
    parts: list[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        parts.append("**Counters**\n")
        parts.append("| counter | value |")
        parts.append("|---|---|")
        parts.extend(f"| `{k}` | {_fmt(v)} |" for k, v in sorted(counters.items()))
        parts.append("")

    gauges = snapshot.get("gauges", {})
    if gauges:
        parts.append("**Gauges**\n")
        parts.append("| gauge | value |")
        parts.append("|---|---|")
        parts.extend(f"| `{k}` | {_fmt(v)} |" for k, v in sorted(gauges.items()))
        parts.append("")

    histograms = snapshot.get("histograms", {})
    if histograms:
        parts.append("**Histograms**\n")
        parts.append("| histogram | count | mean | min | max |")
        parts.append("|---|---|---|---|---|")
        for name, h in sorted(histograms.items()):
            parts.append(
                f"| `{name}` | {_fmt(h.get('count', 0))} | "
                f"{_fmt(h.get('mean', 0.0))} | {_fmt(h.get('min'))} | "
                f"{_fmt(h.get('max'))} |"
            )
        parts.append("")

    spans = snapshot.get("spans", {})
    events = spans.get("events", [])
    if events:
        slowest = sorted(events, key=lambda e: -e["duration_s"])[:max_span_events]
        parts.append(f"**Slowest spans** ({len(events)} recorded, "
                     f"{spans.get('dropped', 0)} dropped)\n")
        parts.append("| span | depth | duration (s) |")
        parts.append("|---|---|---|")
        parts.extend(
            f"| `{e['path']}` | {e['depth']} | {e['duration_s']:.6g} |"
            for e in slowest
        )
        parts.append("")

    if not parts:
        return "_(no metrics collected)_"
    return "\n".join(parts).strip()
