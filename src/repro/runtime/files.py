"""repro.runtime.files — the one on-disk store: named files that exist
whole or not at all.

Every file this package keeps on disk lands through :func:`land`: a
``mkstemp`` scratch file written beside its destination, then moved into
place by ``os.replace`` (the newest writer wins) or an exclusive
``os.link`` (the first creator wins). A reader never sees a torn file,
and no scratch file survives a failed write; a crashed writer leaves at
most a ``.<name>.<random>.tmp``, which names the file it was to become.

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
import re
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional

import numpy as np


def land(path: Path, write: Callable[[Any], None], exclusive: bool) -> bool:
    """Write a scratch file beside ``path`` and move it into place, so
    ``path`` exists completely or not at all. ``exclusive`` hard-links
    (of racing creators exactly one wins; False when ``path`` exists),
    otherwise the rename replaces. No scratch file survives, pass or fail;
    the scratch file is ``.<path's name>.<random>.tmp``, hidden from the
    directory's payload names and owned by whatever owns ``path``.
    """
    fd, scratch = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                   suffix=".tmp")
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
    read-only arrays — memory maps that outlive the file's name, or
    copies in the reader's heap. A JSON document
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

    def get(self, name: str, mmap: bool = True) -> Optional[np.ndarray]:
        """``name`` read-only, or ``None`` when absent: memory-mapped, or
        with ``mmap=False`` read into this process's heap."""
        try:
            if mmap:
                return np.load(self.root / f"{name}.npy", mmap_mode="r")
            array = np.load(self.root / f"{name}.npy")
        except FileNotFoundError:
            return None
        array.setflags(write=False)
        return array

    def leading(self, names: Iterable[str],
                mmap: bool = True) -> List[np.ndarray]:
        """The arrays (as :meth:`get` serves them) of the longest prefix
        of ``names`` that is present."""
        found: List[np.ndarray] = []
        for name in names:
            array = self.get(name, mmap)
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

    def purge(self, names: str) -> int:
        """Delete every file whose name matches the regular expression
        ``names``, and the scratch files a crashed :func:`land` left for
        such a name; returns the count. Any other file is not the
        caller's and stays."""
        removed = 0
        for path in self.root.glob("*"):
            name = path.name
            if name.startswith(".") and name.endswith(".tmp"):
                name = name[1:].rpartition(".")[0].rpartition(".")[0]
            if re.fullmatch(names, name):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        return removed
