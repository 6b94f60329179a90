"""Hand a built world to worker processes as a private cache entry.

One process *exports* a built :class:`~repro.worlds.World`: it stores
the world with :class:`~repro.parallel.WorldCache`'s writer under a
fresh private root, a ``tempfile.mkdtemp`` directory (mode 0700) in
``/dev/shm`` when that exists, else in the temp directory.  The export
yields a plain-dict *descriptor* that pickles across process
boundaries; workers :meth:`~SharedWorld.attach` to it and load the
entry with the cache's reader — read-only mmaps of the same files and
the same format and hash checks.  Every worker maps the same pages, and
the ingest-time freeze (``writeable=False``) guarantees no worker can
scribble on another's view.

:func:`~repro.parallel.run_many_parallel` exports only for workers it
starts with the ``spawn`` or ``forkserver`` method, which begin from a
fresh interpreter.  A ``fork`` worker inherits the parent's world, so a
fork fan-out exports nothing.

Object columns that are not all strings are pickled into the entry
(see :mod:`repro.parallel.worldcache`), which is why the root is
readable and writable by its owner only.

Lifecycle: the exporting process owns the root — ``close()`` on an
attached ``SharedWorld`` drops the worker's world, ``destroy()`` on the
owner removes the root.  Both are idempotent and context-manager wired.
Root names embed the owning pid (``reprow-<pid hex>-…``), so
:func:`cleanup_stale_segments` can sweep the roots of crashed owners
without touching live ones.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Optional

from ..worlds.spec import World
from .worldcache import WorldCache, read_entry

__all__ = ["SharedWorld", "cleanup_stale_segments"]

#: Root names look like ``reprow-<owner pid hex>-<random>``.
_PREFIX = "reprow"

#: Where export roots live; in RAM when the platform offers ``/dev/shm``.
_EXPORT_DIR = "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def cleanup_stale_segments() -> list[str]:
    """Remove exports whose owning process is gone; returns their names.

    Scans the export directory for this module's naming pattern and
    removes entries whose embedded pid no longer exists — the root of
    an owner that crashed between export and ``destroy()``, or a
    shared-memory segment file left by releases that exported into
    segments.  Best-effort and safe to call anytime: live owners'
    exports are never touched.
    """
    removed: list[str] = []
    try:
        entries = os.listdir(_EXPORT_DIR)
    except OSError:
        return removed
    for entry in entries:
        if not entry.startswith(_PREFIX + "-"):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[1], 16)
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        path = os.path.join(_EXPORT_DIR, entry)
        try:
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.unlink(path)
            removed.append(entry)
        except OSError:
            pass
    return removed


class SharedWorld:
    """A built world stored as a cache entry under a private root.

    Create with :meth:`export` (the owning side) or :meth:`attach` (a
    worker, from the owner's :meth:`descriptor`); :meth:`world` is the
    :class:`~repro.worlds.World` — on an attached side, its database is
    backed by the entry's mmapped files.
    """

    def __init__(self, entry: Path, world: Optional[World], owner: bool):
        self._entry = entry
        self._world = world
        self._owner = owner

    @classmethod
    def export(cls, world: World) -> "SharedWorld":
        """Store a built world under a fresh private root.

        The world must carry a :class:`~repro.worlds.WorldSpec`, which
        names its entry.
        """
        root = tempfile.mkdtemp(prefix=f"{_PREFIX}-{os.getpid():08x}-",
                                dir=_EXPORT_DIR)
        try:
            entry = WorldCache(root).store(world)
        except BaseException:
            shutil.rmtree(root, ignore_errors=True)
            raise
        return cls(entry, world, owner=True)

    def descriptor(self) -> dict:
        """A picklable description another process can :meth:`attach` to."""
        return {"entry": str(self._entry)}

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedWorld":
        """Load an exported world in this process (read-only mmaps).

        Raises ``FileNotFoundError`` once the owner has destroyed the
        export; attaching creates nothing on disk.
        """
        entry = Path(descriptor["entry"])
        return cls(entry, read_entry(entry), owner=False)

    def world(self) -> World:
        """The exported world (the same object on every call)."""
        if self._world is None:
            raise RuntimeError("this SharedWorld is closed")
        return self._world

    def close(self) -> None:
        """Drop this process's world (idempotent).  A database still in
        use elsewhere keeps its mmaps alive until it is released."""
        self._world = None

    def destroy(self) -> None:
        """Owner teardown: remove the private root (idempotent)."""
        if not self._owner:
            raise RuntimeError("only the exporting process may destroy an export")
        shutil.rmtree(self._entry.parent, ignore_errors=True)
        self.close()

    def __enter__(self) -> "SharedWorld":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.destroy()
        else:
            self.close()
