"""repro.obs.perf — tools that explain where a run's time went.

Built on top of :mod:`repro.obs`:

* :mod:`repro.obs.perf.chrometrace` — span-timeline export to
  Chrome-trace / Perfetto JSON (``repro obs trace``);
* :mod:`repro.obs.perf.profiler` — cProfile/pstats hooks so a profile
  of any switch geometry is one command;
* :mod:`repro.obs.perf.analyze` — the causal span tree, critical path
  and worker utilization of a journal (``repro obs analyze``).

Timing the real commands end to end and layer by layer is the job of
``perfbench/`` (see docs/performance.md, "Measuring performance").
"""

from repro.obs.perf.analyze import analysis_report, analyze_journal
from repro.obs.perf.chrometrace import chrome_trace_document, write_chrome_trace
from repro.obs.perf.profiler import profile_text, profiled, write_profile

__all__ = [
    "analysis_report",
    "analyze_journal",
    "chrome_trace_document",
    "profile_text",
    "profiled",
    "write_chrome_trace",
    "write_profile",
]
