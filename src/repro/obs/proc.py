"""Always-on process resource gauges for ``/metrics``.

:func:`process_metrics` samples the current process' memory and CPU
consumption using only the standard library (``resource``, ``os``,
``/proc`` where available) — no psutil dependency.  The serving layer
includes the sample in every ``/metrics`` document (JSON and
Prometheus), and ``repro-loadgen`` records it into
``BENCH_serving.json`` so benchmark runs carry a memory/CPU footprint
alongside latency and throughput.

Fields (all floats; a field is omitted when the platform cannot
provide it rather than reported as a guess):

``process.rss_bytes``
    Current resident set size, read from ``/proc/self/statm`` on Linux.
    Falls back to the peak (``max_rss_bytes``) elsewhere — documented
    as a gauge either way because it is a point-in-time observation.
``process.max_rss_bytes``
    Peak resident set size (``getrusage``; the kernel reports KiB on
    Linux, bytes on macOS).
``process.cpu_seconds``
    Total CPU time consumed (user + system), a monotonically increasing
    counter — rendered as ``repro_process_cpu_seconds_total``.
``process.cpu_user_seconds`` / ``process.cpu_system_seconds``
    The split behind ``cpu_seconds``.
``process.tracemalloc_bytes`` / ``process.tracemalloc_peak_bytes``
    Python-heap bytes currently traced / the traced high-water mark —
    present only while :mod:`tracemalloc` is running (i.e. during a
    memory-profiled run; see :mod:`repro.obs.memprof`).

:func:`build_info` is the constant companion: identifying facts about
the running build (version, python, platform) that the serving layer
exposes as a ``service.info`` section and as a Prometheus
``repro_build_info`` gauge with the values as labels.
"""

from __future__ import annotations

import os
import platform as _platform
import sys
import tracemalloc
from typing import Dict

from .. import __version__

__all__ = ["build_info", "process_metrics"]


def _max_rss_bytes(ru_maxrss: int) -> float:
    # getrusage reports ru_maxrss in kilobytes on Linux (and most
    # Unixes) but in bytes on macOS.
    if sys.platform == "darwin":
        return float(ru_maxrss)
    return float(ru_maxrss) * 1024.0


def process_metrics() -> Dict[str, float]:
    """A point-in-time sample of this process' resource consumption."""
    out: Dict[str, float] = {}
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["max_rss_bytes"] = _max_rss_bytes(usage.ru_maxrss)
        out["cpu_user_seconds"] = float(usage.ru_utime)
        out["cpu_system_seconds"] = float(usage.ru_stime)
        out["cpu_seconds"] = float(usage.ru_utime + usage.ru_stime)
    except (ImportError, OSError):  # pragma: no cover - non-Unix
        times = os.times()
        out["cpu_user_seconds"] = float(times.user)
        out["cpu_system_seconds"] = float(times.system)
        out["cpu_seconds"] = float(times.user + times.system)
    rss = _current_rss_bytes()
    if rss is not None:
        out["rss_bytes"] = rss
    elif "max_rss_bytes" in out:
        out["rss_bytes"] = out["max_rss_bytes"]
    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        out["tracemalloc_bytes"] = float(current)
        out["tracemalloc_peak_bytes"] = float(peak)
    return out


def build_info() -> Dict[str, str]:
    """Identifying facts about this build, for ``/metrics`` info gauges.

    All values are strings (they become Prometheus label values on a
    constant ``repro_build_info 1`` sample): the package version, the
    Python version and implementation, and the platform.
    """
    return {
        "version": __version__,
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "platform": sys.platform,
    }


def _current_rss_bytes() -> "float | None":
    """Current RSS from ``/proc`` (Linux); ``None`` when unavailable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        pages = int(fields[1])
        return float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, IndexError, ValueError):
        return None
