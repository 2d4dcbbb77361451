"""One RSS reader for all of telemetry: current and peak, one semantics.

:mod:`.spans` (span RAM deltas) and :mod:`.memory` (the ledger's
coverage ratios) both read through here:

- :func:`current_rss_bytes` — the instantaneous resident set, from
  ``/proc/self/statm`` on Linux (resident pages × page size). Falls back
  to the peak counter where ``/proc`` is unavailable, so the value is
  monotone-peak rather than instantaneous there.
- :func:`peak_rss_bytes` — the process-lifetime high-water mark from
  ``getrusage`` (``ru_maxrss`` is KiB on Linux; normalized to bytes
  assuming the Linux convention, which is where the benchmarks run).

Span ``ram_delta_bytes`` is the **signed** change in current RSS across
the span (negative when the span net-freed memory); the run record
carries it per stage as ``stages.*.ram_delta_bytes``.
"""

from __future__ import annotations

import os

try:  # resource is POSIX-only; RSS reading degrades gracefully without it.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]


def current_rss_bytes() -> int:
    """Current (not peak) RSS of this process in bytes; 0 if unknown.

    Reads ``/proc/self/statm`` on Linux — the second field is resident
    pages — and falls back to :func:`peak_rss_bytes` elsewhere, so the
    series is monotone-peak rather than instantaneous there.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    return peak_rss_bytes()


def peak_rss_bytes() -> int:
    """Process-lifetime peak RSS in bytes (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    # ru_maxrss is KiB on Linux, bytes on macOS; normalize to bytes
    # assuming the Linux convention (this repo's benchmarks run on Linux).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
