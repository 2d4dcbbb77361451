"""Event sinks: where closed spans and metric events go.

Sinks receive plain-dict events from the tracer. :class:`MemorySink`
buffers them for in-process reporting and tests, :class:`JsonlSink`
streams them to disk as one JSON object per line (the trace artifact next
to every benchmark result), and :class:`TeeSink` fans one stream out to
both. :class:`NullSink` swallows events for fully headless runs.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Sequence, Union

PathLike = Union[str, Path]


class EventSink:
    """Interface: ``emit`` per event, ``flush``/``close`` at teardown."""

    def emit(self, event: Dict) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        self.flush()


class NullSink(EventSink):
    """Discard everything (telemetry configured but unobserved)."""

    def emit(self, event: Dict) -> None:
        pass


class MemorySink(EventSink):
    """Buffer events in order; the in-process view used by reports/tests."""

    def __init__(self):
        self.events: List[Dict] = []
        self._lock = threading.Lock()

    def emit(self, event: Dict) -> None:
        with self._lock:
            self.events.append(event)


class JsonlSink(EventSink):
    """Append events to a JSONL file, one compact object per line.

    The file is opened eagerly so a crashed run still leaves a partial
    trace; writes are locked for thread safety.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()

    def emit(self, event: Dict) -> None:
        line = json.dumps(event, separators=(",", ":"), sort_keys=True,
                          default=_json_default)
        with self._lock:
            if not self._file.closed:
                self._file.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


class TeeSink(EventSink):
    """Fan every event out to several child sinks (memory + file)."""

    def __init__(self, *sinks: EventSink):
        self.sinks: Sequence[EventSink] = tuple(sinks)

    def emit(self, event: Dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def _json_default(value):
    """Serialize numpy scalars and anything else with a float/str view.

    Numpy scalars (and 0-d arrays) unwrap via ``.item()`` so fractional
    values keep their fraction — the previous int-first cast truncated
    ``float32(0.5)`` to ``0`` in the trace. Everything else falls back to
    an int/float view when it has one, else ``str``.
    """
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", None) in (None, 0):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    for cast in (float, int):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)
