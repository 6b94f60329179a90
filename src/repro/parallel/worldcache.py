"""Persistent on-disk cache of built worlds, keyed by content hash.

Building a million-tuple world from its :class:`~repro.worlds.WorldSpec`
costs seconds of synthesis; loading one back from this cache costs a
handful of ``np.load(mmap_mode="r")`` calls.  Entries are keyed by
:meth:`WorldSpec.content_hash` — a sha256 over the spec's canonical
sorted-key JSON, salted with
:data:`~repro.worlds.spec.WORLD_CACHE_FORMAT` — so equal hashes mean
bit-identical built worlds, and a format bump retires every stale entry
at once.

Entry layout (one directory per hash)::

    <root>/<sha256>/
        meta.json            format, spec, column manifest
        xy.npy               (N, 2) float64 coordinates
        tids.npy             (N,) int64 tuple ids
        col000.npy           per-column values (mmappable encodings)
        col000.present.npy   per-column null mask, when any
        census.npy           census raster weights, when any

Writes are atomic: the entry is assembled in a hidden sibling directory
and published with one ``os.replace``; a reader can never observe a
half-written entry, and concurrent writers race benignly (the loser
discards its copy).  Loaded coordinate/tid/typed-column arrays are
read-only mmap views — :meth:`SpatialDatabase.from_columns` adopts them
zero-copy and freezes them like any other ingest — so a cache hit pays
no deserialization proportional to the world size.

Column encodings.  Typed columns (float64/int64/bool) are flat buffers
and are saved as they are.  Object-dtype columns store pointers and
cannot be mmapped, so each is saved one of two ways:

* ``"unicode"`` — a column whose *present* values are all ``str`` is
  re-encoded as a fixed-width NumPy ``U`` array (absent slots get ``""``
  as the never-read filler, exactly like typed columns use zero).  The
  loaded column is *value-equal* to the original through every
  consumer — ``value_at``/``gather_attrs`` convert through
  ``.item()``/``.tolist()``, which return plain ``str``, and
  ``AttrEquals`` masks gate absent slots by the present mask — but its
  array dtype is ``U<n>`` rather than ``object``.
* ``"object"`` — anything else is pickled into its ``.npy`` file and
  loaded back as a private copy.  Loading unpickles, so a cache root
  must be writable only by its owner.

Every world the :mod:`repro.worlds` synthesis pipeline builds is saved
without the pickle fallback: its columns are typed or all-``str``.

The entry layout is also how :class:`~repro.parallel.SharedWorld` hands
a world to worker processes: it stores one entry under a private root
and each worker loads it with :func:`read_entry`.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..lbs.columns import Column
from ..lbs.database import SpatialDatabase
from ..obs import registry as _obs
from ..obs.tracing import span as _span
from ..worlds.spec import WORLD_CACHE_FORMAT, World, WorldSpec

__all__ = ["WorldCache", "WorldCacheError"]

_META = "meta.json"

_TYPED = "typed"
_UNICODE = "unicode"
_OBJECT = "object"


class WorldCacheError(RuntimeError):
    """A cache entry exists but cannot be loaded (corrupt or foreign)."""


def _encode_column(col: Column) -> tuple[str, np.ndarray]:
    """``(encoding, array)`` for one column's values (see the module
    docstring); the present mask, when any, is saved separately and
    unchanged."""
    values = col.values
    if values.dtype != object:
        return _TYPED, values
    vals = values.tolist()
    if col.present is None:
        live = vals
    else:
        live = [v for v, p in zip(vals, col.present.tolist()) if p]
    if live and all(type(v) is str for v in live):
        if col.present is not None:
            vals = [v if p else "" for v, p in zip(vals, col.present.tolist())]
        return _UNICODE, np.array(vals, dtype="U")
    return _OBJECT, values


def read_entry(path: Path) -> World:
    """The world stored in the entry directory ``path``.

    Arrays come back as read-only mmaps.  Raises
    :class:`WorldCacheError` for an entry of another format or one
    whose spec does not hash to its directory name; a missing entry
    raises ``FileNotFoundError``.  Reading creates nothing on disk.
    """
    with open(path / _META, encoding="utf-8") as f:
        meta = json.load(f)
    if meta.get("format") != WORLD_CACHE_FORMAT:
        raise WorldCacheError(
            f"cache entry {path} has format {meta.get('format')!r}, "
            f"this release writes {WORLD_CACHE_FORMAT}"
        )
    stored = WorldSpec.from_dict(meta["world"])
    if stored.content_hash() != path.name:
        raise WorldCacheError(
            f"cache entry {path} describes a different world than its "
            "hash claims — evict and rebuild"
        )
    xy = np.load(path / "xy.npy", mmap_mode="r")
    tids = np.load(path / "tids.npy", mmap_mode="r")
    columns: dict[str, Column] = {}
    for i, entry in enumerate(meta["columns"]):
        if entry["encoding"] == _OBJECT:
            values = np.load(path / f"col{i:03d}.npy", allow_pickle=True)
        else:
            values = np.load(path / f"col{i:03d}.npy", mmap_mode="r")
        present = None
        if entry["present"]:
            present = np.load(path / f"col{i:03d}.present.npy", mmap_mode="r")
        columns[entry["name"]] = Column(values, present)
    db = SpatialDatabase.from_columns(xy, tids, columns, stored.region.rect)
    census = None
    if meta.get("census"):
        # PopulationGrid re-derives everything from (region, weights),
        # exactly as the spec build does internally — same sampler
        # behaviour, bit for bit.  Imported lazily to keep the
        # datasets-wraps-worlds import graph one-directional.
        from ..datasets.census import PopulationGrid

        census = PopulationGrid(
            stored.region.rect, np.load(path / "census.npy", mmap_mode="r")
        )
    return World(spec=stored, db=db, census=census)


class WorldCache:
    """A directory of built worlds, addressed by spec content hash.

    ``load_or_build`` is the whole workflow::

        cache = WorldCache("~/.cache/repro-worlds")
        world = cache.load_or_build(spec)     # builds + stores on miss

    Outcomes count in the active :mod:`repro.obs` registry
    (``world_cache_hits_total`` / ``world_cache_misses_total``); an
    unreadable entry is evicted and rebuilt rather than trusted.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def entry_path(self, spec: WorldSpec) -> Path:
        """Where the given spec's built world lives (existing or not)."""
        return self.root / spec.content_hash()

    def has(self, spec: WorldSpec) -> bool:
        return (self.entry_path(spec) / _META).is_file()

    # ------------------------------------------------------------------
    def store(self, world: World) -> Path:
        """Persist a built world; returns its entry path.

        A no-op when the entry already exists (same hash ⇒ same bits).
        The entry is staged in a hidden temp directory and published
        atomically; losing a publish race to another process is treated
        as success.
        """
        spec = getattr(world, "spec", None)
        if not isinstance(spec, WorldSpec):
            raise TypeError(
                "only worlds built from a WorldSpec can be cached "
                "(the spec is the cache key); got a world without one"
            )
        final = self.entry_path(spec)
        if (final / _META).is_file():
            return final
        tmp = self.root / f".tmp-{spec.content_hash()}-{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            self._write_entry(tmp, world, spec)
            try:
                os.replace(tmp, final)
            except OSError:
                # Another process published the same entry first (the
                # target is a non-empty directory).  Same hash, same
                # bits: their copy serves.
                if not (final / _META).is_file():
                    raise
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        return final

    def _write_entry(self, path: Path, world: World, spec: WorldSpec) -> None:
        db: SpatialDatabase = world.db
        np.save(path / "xy.npy", db.coords)
        np.save(path / "tids.npy", db.tids)
        manifest = []
        for i, name in enumerate(db.column_names()):
            col = db.column(name)
            encoding, values = _encode_column(col)
            np.save(path / f"col{i:03d}.npy", values,
                    allow_pickle=encoding == _OBJECT)
            if col.present is not None:
                np.save(path / f"col{i:03d}.present.npy", col.present)
            manifest.append({
                "name": name,
                "encoding": encoding,
                "present": col.present is not None,
            })
        has_census = world.census is not None
        if has_census:
            np.save(path / "census.npy", world.census.weights)
        meta = {
            "format": WORLD_CACHE_FORMAT,
            "world": spec.to_dict(),
            "columns": manifest,
            "census": has_census,
            "n": len(db),
        }
        # meta.json last within the staging dir, then the atomic publish:
        # an entry directory with a meta file is complete by construction.
        with open(path / _META, "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=1, sort_keys=True)

    # ------------------------------------------------------------------
    def load(self, spec: WorldSpec) -> Optional[World]:
        """The cached world for ``spec``, or ``None`` on a miss.

        Raises :class:`WorldCacheError` when an entry is present but
        unreadable or inconsistent (wrong format, hash mismatch,
        missing arrays) — callers decide whether to evict.
        """
        path = self.entry_path(spec)
        if not (path / _META).is_file():
            return None
        try:
            return read_entry(path)
        except WorldCacheError:
            raise
        except Exception as exc:
            raise WorldCacheError(f"cannot load cache entry {path}: {exc}") from exc

    # ------------------------------------------------------------------
    def load_or_build(
        self, spec: WorldSpec, seed: Optional[int] = None
    ) -> World:
        """The world this spec builds: cached when possible, else built
        and stored.

        ``seed`` overrides the spec's own, exactly like
        :meth:`WorldSpec.build` — the override becomes part of the
        cache key (it changes the built world).  An unreadable entry is
        evicted and rebuilt.
        """
        if seed is not None:
            spec = spec.replace(seed=seed)
        try:
            with _span("world_cache_load"):
                world = self.load(spec)
        except WorldCacheError:
            self.evict(spec)
            world = None
        reg = _obs._active
        if world is not None:
            if reg is not None:
                reg.inc("world_cache_hits_total")
            return world
        if reg is not None:
            reg.inc("world_cache_misses_total")
        with _span("world_build"):
            world = spec.build()
        self.store(world)
        return world

    # ------------------------------------------------------------------
    def evict(self, spec: WorldSpec) -> bool:
        """Remove the entry for ``spec``; ``True`` if one existed."""
        path = self.entry_path(spec)
        if not path.exists():
            return False
        shutil.rmtree(path, ignore_errors=True)
        return True

    def prune_staging(self) -> int:
        """Delete leftover ``.tmp-*`` staging directories of crashed
        writers; returns how many were removed.  Never touches published
        entries or another live writer's fresh staging area (same-pid
        directories are left alone)."""
        removed = 0
        for entry in self.root.glob(".tmp-*"):
            if entry.name.endswith(f"-{os.getpid()}"):
                continue
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed
