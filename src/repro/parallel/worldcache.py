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
from ._codec import OBJECT, encode_column_values

__all__ = ["WorldCache", "WorldCacheError"]

_META = "meta.json"


class WorldCacheError(RuntimeError):
    """A cache entry exists but cannot be loaded (corrupt or foreign)."""


class WorldCache:
    """A directory of built worlds, addressed by spec content hash.

    ``load_or_build`` is the whole workflow::

        cache = WorldCache("~/.cache/repro-worlds")
        world = cache.load_or_build(spec)     # builds + stores on miss

    ``hits``/``misses`` count this instance's outcomes (the perf
    benchmarks read them); an unreadable entry is evicted and rebuilt
    rather than trusted.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

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
            encoding, values = encode_column_values(col)
            np.save(path / f"col{i:03d}.npy", values,
                    allow_pickle=encoding == OBJECT)
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
            return self._read_entry(path, spec)
        except WorldCacheError:
            raise
        except Exception as exc:
            raise WorldCacheError(f"cannot load cache entry {path}: {exc}") from exc

    def _read_entry(self, path: Path, spec: WorldSpec) -> World:
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
            if entry["encoding"] == OBJECT:
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
            self.hits += 1
            if reg is not None:
                reg.inc("world_cache_hits_total")
            return world
        self.misses += 1
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

    def counters(self) -> dict:
        """Hit/miss counters plus how many entries are on disk.

        Counters are per-instance and live for the instance's lifetime.
        When an :mod:`repro.obs` registry is active, the same outcomes
        also stream into ``world_cache_hits_total`` /
        ``world_cache_misses_total``.
        """
        entries = sum(1 for p in self.root.iterdir()
                      if p.is_dir() and not p.name.startswith("."))
        return {"hits": self.hits, "misses": self.misses, "entries": entries}
