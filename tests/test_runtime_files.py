"""The one file tier (:mod:`repro.runtime.files`).

Every on-disk store in the package — the shared term store, the blocked
tier's spill directory and the cell artifact store — lands its files
through :func:`~repro.runtime.files.land`. The contracts, for ``.npy``
arrays and ``.json`` documents alike:

1. **Round trip** — an array comes back as a read-only memory map with
   its exact bytes; a document comes back equal, keys in insertion order.
2. **Idempotent put** — an array name already present is kept (same
   name, same bytes); putting a document twice leaves the same file.
3. **Miss** — an absent name reads ``None``.
4. **Hygiene** — no scratch file survives a put or a failed put, and
   :meth:`~repro.runtime.files.ArrayFiles.purge` deletes the names its
   caller owns and their stale scratch files, nothing else.
5. **Addresses** — the artifact store counts only 64-hex names as cells,
   so a stray ``*.json`` in its directory is never one.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.runtime.artifacts import ArtifactStore
from repro.runtime.files import ArrayFiles, link_new


@pytest.fixture
def files(tmp_path):
    return ArrayFiles(tmp_path)


def _put(files: ArrayFiles, kind: str, name: str) -> None:
    if kind == "array":
        files.put(name, np.ones(8))
    else:
        files.put_json(name, {"v": 1})


# ----------------------------------------------------------------------
# arrays
# ----------------------------------------------------------------------
class TestArrays:
    def test_round_trip_is_readonly_memmap(self, files):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert files.put("fp.1", array) == array.nbytes
        loaded = files.get("fp.1")
        assert isinstance(loaded, np.memmap)
        assert loaded.tobytes() == array.tobytes()
        with pytest.raises((ValueError, OSError)):
            loaded[0, 0] = 99.0

    def test_empty_array_round_trips(self, files):
        files.put("empty", np.zeros((0, 3), dtype=np.float32))
        loaded = files.get("empty")
        assert loaded.shape == (0, 3) and loaded.dtype == np.float32

    def test_put_is_idempotent(self, files):
        assert files.put("k", np.ones((4, 4))) > 0
        assert files.put("k", np.zeros((4, 4))) == 0
        assert files.get("k").sum() == 16.0, "the first bytes are kept"

    def test_miss_returns_none(self, files):
        assert files.get("absent") is None

    def test_distinct_names_distinct_files(self, files):
        files.put("fp.1", np.ones(4))
        files.put("fp.2", np.zeros(4))
        assert len(list(files.root.glob("*.npy"))) == 2
        assert files.get("fp.2").sum() == 0.0

    def test_leading_stops_at_first_gap(self, files):
        for order in (1, 2, 4):
            files.put(f"t.{order}", np.full(3, float(order)))
        run = files.leading(f"t.{order}" for order in range(1, 6))
        assert [float(term[0]) for term in run] == [1.0, 2.0]


# ----------------------------------------------------------------------
# JSON documents
# ----------------------------------------------------------------------
class TestJson:
    def test_round_trip_keeps_key_order(self, files):
        value = {"zeta": 1, "alpha": [1, 2.5, "s", None], "mid": {"k": 0}}
        files.put_json("doc", value)
        loaded = files.get_json("doc")
        assert loaded == value
        assert list(loaded) == ["zeta", "alpha", "mid"]

    def test_put_is_idempotent(self, files):
        path = files.put_json("doc", {"v": 1})
        first = path.read_bytes()
        assert files.put_json("doc", {"v": 1}) == path
        assert path.read_bytes() == first
        assert [p.name for p in files.root.iterdir()] == ["doc.json"]

    def test_put_replaces_an_earlier_document(self, files):
        files.put_json("doc", {"v": 1})
        files.put_json("doc", {"v": 2})
        assert files.get_json("doc") == {"v": 2}

    def test_miss_returns_none(self, files):
        assert files.get_json("absent") is None

    def test_torn_document_raises_value_error(self, files):
        files.put_json("doc", {"v": 1})
        (files.root / "doc.json").write_text('{"v"')
        with pytest.raises(ValueError):
            files.get_json("doc")


# ----------------------------------------------------------------------
# scratch files
# ----------------------------------------------------------------------
class TestScratchFiles:
    @pytest.mark.parametrize("kind", ["array", "json"])
    def test_no_scratch_after_put(self, files, kind):
        _put(files, kind, "k")
        assert list(files.root.glob("*.tmp")) == []
        assert len(list(files.root.iterdir())) == 1

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    @pytest.mark.parametrize("kind", ["array", "json"])
    def test_failed_put_leaves_no_scratch_file(self, files, kind, code,
                                               monkeypatch):
        def refuse(_src, _dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            _put(files, kind, "k")
        assert list(files.root.iterdir()) == []

    def test_purge_removes_files_and_stale_scratch(self, files):
        files.put("a", np.ones(4))
        files.put_json("b", {"v": 1})
        (files.root / ".a.npy.x1y2z3_q.tmp").write_bytes(b"torn")
        (files.root / "crashed.tmp").write_bytes(b"not ours")
        (files.root / ".other.npy.x1y2z3_q.tmp").write_bytes(b"not ours")
        assert files.purge(r"a\.npy|b\.json") == 3
        assert sorted(path.name for path in files.root.iterdir()) == [
            ".other.npy.x1y2z3_q.tmp", "crashed.tmp"]

    def test_scratch_file_names_its_destination(self, files, monkeypatch):
        """A writer killed mid-put leaves ``.<name>.<random>.tmp``, which
        a purge of ``name`` recognises."""
        def die(_src, _dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", die)
        monkeypatch.setattr(os, "unlink", lambda _path: None)
        with pytest.raises(KeyboardInterrupt):
            files.put("a", np.ones(4))
        monkeypatch.undo()
        (scratch,) = files.root.iterdir()
        assert scratch.name.startswith(".a.npy.")
        assert scratch.name.endswith(".tmp")
        assert files.purge(r"a\.npy") == 1
        assert list(files.root.iterdir()) == []

    def test_link_new_first_creator_wins(self, tmp_path):
        path = tmp_path / "claim"
        assert link_new(path, "first")
        assert not link_new(path, "second")
        assert path.read_text() == "first"
        assert list(tmp_path.glob("*.tmp")) == []


# ----------------------------------------------------------------------
# artifact addresses
# ----------------------------------------------------------------------
class TestArtifactAddresses:
    def test_addresses_list_only_64_hex_names(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        address = "a" * 64
        store.put(address, {"v": 1})
        for stray in ("notes.json", f"{'b' * 64}.meta.json",
                      f"{'c' * 63}.json", f"{'D' * 64}.json"):
            (store.root / stray).write_text("{}")
        assert store.addresses() == [address]
        assert len(store) == 1
