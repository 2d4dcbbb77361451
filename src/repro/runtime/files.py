"""repro.runtime.files — the one on-disk store: named files that exist
whole or not at all.

Every file this package keeps on disk lands through :func:`land`: a
``mkstemp`` scratch file written beside its destination, then moved into
place by ``os.replace`` (the newest writer wins) or an exclusive
``os.link`` (the first creator wins). A reader never sees a torn file,
and no scratch file survives a failed write; a crashed writer leaves at
most a ``*.tmp``.

:class:`ArrayFiles` is such a directory. The shared term store
(:mod:`repro.runtime.shm`) and the blocked tier's spill directory
(:mod:`repro.runtime.blocked`) keep ``.npy`` arrays in one; the cell
artifact store (:mod:`repro.runtime.artifacts`) keeps one
``<address>.json`` document per cell. Nothing here counts or evicts:
each caller keeps its own accounting.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional

import numpy as np


def land(path: Path, write: Callable[[Any], None], exclusive: bool) -> bool:
    """Write a scratch file beside ``path`` and move it into place, so
    ``path`` exists completely or not at all. ``exclusive`` hard-links
    (of racing creators exactly one wins; False when ``path`` exists),
    otherwise the rename replaces. No scratch file survives, pass or fail.
    """
    fd, scratch = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        (os.link if exclusive else os.replace)(scratch, path)
        return True
    except FileExistsError:
        return False
    finally:
        with contextlib.suppress(OSError):
            os.unlink(scratch)


def link_new(path: Path, text: str) -> bool:
    """Create ``path`` holding ``text`` unless it exists; True if created."""
    return land(path, lambda handle: handle.write(text.encode("utf-8")),
                exclusive=True)


class ArrayFiles:
    """A directory of ``<name>.npy`` arrays and ``<name>.json`` documents.

    Array names are content addresses (same name ⇒ same bytes), which is
    what lets processes share the directory without coordination:
    :meth:`put` keeps a name already present, and :meth:`get` serves
    read-only memory maps that outlive the file's name. A JSON document
    is replaced by each :meth:`put_json`. The directory itself is the
    caller's to create.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)

    def put(self, name: str, array: np.ndarray) -> int:
        """Store ``array`` as ``name``; returns its bytes, or 0 when the
        name is already present (which is kept: same name, same bytes)."""
        path = self.root / f"{name}.npy"
        if path.exists():
            return 0
        array = np.ascontiguousarray(array)
        land(path, lambda handle: np.save(handle, array), exclusive=False)
        return int(array.nbytes)

    def get(self, name: str) -> Optional[np.ndarray]:
        """Memory-map ``name`` read-only, or ``None`` when absent."""
        try:
            return np.load(self.root / f"{name}.npy", mmap_mode="r")
        except FileNotFoundError:
            return None

    def leading(self, names: Iterable[str]) -> List[np.ndarray]:
        """The arrays of the longest prefix of ``names`` that is present."""
        found: List[np.ndarray] = []
        for name in names:
            array = self.get(name)
            if array is None:
                break
            found.append(array)
        return found

    def put_json(self, name: str, value: Any) -> Path:
        """Store ``value`` as the document ``name`` (keys in insertion
        order), replacing any earlier one; returns its path."""
        path = self.root / f"{name}.json"
        text = json.dumps(value, separators=(",", ":"))
        land(path, lambda handle: handle.write(text.encode("utf-8")),
             exclusive=False)
        return path

    def get_json(self, name: str) -> Any:
        """The document ``name``, or ``None`` when absent. A torn file
        raises ``ValueError``."""
        try:
            return json.loads((self.root / f"{name}.json").read_bytes())
        except FileNotFoundError:
            return None

    def purge(self) -> int:
        """Delete every file, stale scratch files included; returns the
        count."""
        removed = 0
        for pattern in ("*.npy", "*.json", "*.tmp"):
            for path in self.root.glob(pattern):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        return removed
