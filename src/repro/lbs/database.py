"""The hidden spatial database behind a simulated LBS.

Owns the ground-truth tuples and answers *exact* aggregate queries for
experiment verification.  Estimation algorithms never touch this class
directly — they only see :mod:`repro.lbs.interface`.

Storage is columnar (struct of arrays): an ``(N, 2)`` float64 coordinate
array, an int64 tid array, and typed attribute :class:`~repro.lbs.columns.Column`
arrays with null masks.  :class:`~repro.lbs.LbsTuple` rows are lazy
*views* materialized on demand, so the scalar API (``get``, iteration)
is unchanged while ingest, ground truth, ``filtered()`` and
``subsample()`` run as array operations:

* :meth:`from_columns` ingests pre-columnar data (the
  :mod:`repro.worlds` synthesis pipeline) with zero per-tuple work —
  the ~10x world-build speedup of million-tuple scenarios;
* the legacy row-iterable constructor shreds tuples into columns, so
  both paths produce bit-identical databases (equivalence-tested in
  ``tests/lbs/test_columnar_db.py``);
* serializable :class:`~repro.core.aggregates.AttrEquals` conditions
  compile to boolean masks; arbitrary callables keep a row fallback.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from ..geometry import Point, Rect
from .columns import Column, as_column, columns_from_rows
from .tuples import LbsTuple

__all__ = ["SpatialDatabase"]

Predicate = Callable[[LbsTuple], bool]


class _CoordMapping(MappingABC):
    """A read-only ``{tid: Point}`` view over an ``(N, 2)`` array whose
    rows align with a database's rows.

    Built lazily per access, so interfaces over million-tuple databases
    never materialize a dict of Points just to look a handful up.  The
    array may be the database's own coordinate columns
    (:meth:`SpatialDatabase.lazy_locations`) or any row-aligned
    substitute — an obfuscated interface's realized effective positions
    (:meth:`SpatialDatabase.coord_mapping`).
    """

    __slots__ = ("_db", "_xy")

    def __init__(self, db: "SpatialDatabase", xy: np.ndarray):
        self._db = db
        self._xy = xy

    def __getitem__(self, tid) -> Point:
        i = self._db._pos(tid)
        return Point(float(self._xy[i, 0]), float(self._xy[i, 1]))

    def __iter__(self):
        return iter(self._db.tid_list())

    def __len__(self) -> int:
        return len(self._db)


class SpatialDatabase:
    """An immutable collection of :class:`LbsTuple` in a bounding region."""

    def __init__(self, tuples: Iterable[LbsTuple], region: Rect):
        rows = list(tuples)
        n = len(rows)
        xy = np.empty((n, 2), dtype=np.float64)
        tids = np.empty(n, dtype=np.int64)
        for i, t in enumerate(rows):
            xy[i, 0] = t.location.x
            xy[i, 1] = t.location.y
            tids[i] = t.tid
        self._init_columnar(
            xy, tids, columns_from_rows([t.attrs for t in rows]), region
        )
        # The given rows *are* the row views — identical objects, and no
        # rebuild cost on tuples()/get().
        self._rows = rows

    # ------------------------------------------------------------------
    # Columnar ingest
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        xy: np.ndarray,
        tids: np.ndarray,
        columns: Mapping[str, object],
        region: Rect,
    ) -> "SpatialDatabase":
        """Zero-copy columnar ingest: the fast path of world builds.

        ``xy`` is an ``(N, 2)`` coordinate array, ``tids`` the int64
        tuple ids, and ``columns`` maps attribute names to
        :class:`~repro.lbs.columns.Column` values (plain arrays,
        ``(values, present)`` pairs, and Python-value sequences are
        normalized via :func:`~repro.lbs.columns.as_column`).  Arrays
        are adopted without copying when already contiguous and typed;
        callers must not mutate them afterwards.  Produces a database
        bit-identical to constructing the equivalent ``LbsTuple`` rows.
        """
        xy = np.ascontiguousarray(xy, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("xy must be an (N, 2) coordinate array")
        tids = np.asarray(tids, dtype=np.int64)
        if tids.shape != (len(xy),):
            raise ValueError("tids must be one id per coordinate row")
        n = len(xy)
        db = cls.__new__(cls)
        db._init_columnar(
            xy, tids, {name: as_column(c, n) for name, c in columns.items()}, region
        )
        db._rows = None
        # Ingested arrays become the database's storage without a copy,
        # so an accidental in-place write through a kept reference — or
        # through .coords/.column() — would silently corrupt the
        # database (and, for mmapped worlds, every other attached
        # process).  Enforce the "callers must not mutate" contract at
        # the array level: mutation raises.
        db._freeze_arrays()
        return db

    def _freeze_arrays(self) -> None:
        """Mark the coordinate/tid/column arrays read-only in place.

        Always allowed regardless of ownership (NumPy only restricts
        re-*enabling* writes), and a no-op on arrays that are already
        read-only — e.g. the mmap-backed views of a world-cache load.
        """
        self._xy.flags.writeable = False
        self._tids.flags.writeable = False
        for col in self._columns.values():
            col.values.flags.writeable = False
            if col.present is not None:
                col.present.flags.writeable = False

    def _init_columnar(
        self,
        xy: np.ndarray,
        tids: np.ndarray,
        columns: dict[str, Column],
        region: Rect,
        validate: bool = True,
    ) -> None:
        self.region = region
        self._xy = xy
        self._tids = tids
        self._columns = columns
        self._rows: Optional[list[LbsTuple]] = None
        self._tid_pos: Optional[dict[int, int]] = None
        n = len(tids)
        # Contiguous ids (the worlds guarantee) make tid -> row position
        # pure arithmetic; anything else lazily builds a lookup dict.
        self._tid0 = int(tids[0]) if n else 0
        self._contiguous = bool(n == 0 or (np.diff(tids) == 1).all())
        if validate:
            self._validate(region)

    def _validate(self, region: Rect) -> None:
        n = len(self._tids)
        if n == 0:
            return
        if not self._contiguous:
            uniq = np.unique(self._tids)
            if uniq.size != n:
                dup_order = np.argsort(self._tids, kind="stable")
                dups = self._tids[dup_order]
                where = np.nonzero(dups[1:] == dups[:-1])[0]
                raise ValueError(f"duplicate tuple id {int(dups[where[0]])}")
        # One bounds comparison over the whole coordinate array, negated
        # so non-finite coordinates fail exactly like region.contains.
        tol = 1e-6 * max(region.width, region.height, 1.0)
        x = self._xy[:, 0]
        y = self._xy[:, 1]
        ok = (
            (x >= region.x0 - tol) & (x <= region.x1 + tol)
            & (y >= region.y0 - tol) & (y <= region.y1 + tol)
        )
        if not ok.all():
            i = int(np.argmin(ok))
            loc = Point(float(x[i]), float(y[i]))
            raise ValueError(
                f"tuple {int(self._tids[i])} at {loc} outside region {region}"
            )

    def _sliced(self, idx: np.ndarray) -> "SpatialDatabase":
        """A derived database over the given row indices.

        Coordinates were validated when *this* database was built, so
        the slice skips re-validation and re-assembly entirely — columns
        are fancy-indexed, nothing else.
        """
        db = SpatialDatabase.__new__(SpatialDatabase)
        db._init_columnar(
            np.ascontiguousarray(self._xy[idx]),
            self._tids[idx],
            {name: col.take(idx) for name, col in self._columns.items()},
            self.region,
            validate=False,
        )
        if self._rows is not None:
            db._rows = [self._rows[i] for i in idx.tolist()]
        # Slices own fresh copies, but the read-only invariant is
        # uniform: no database's storage is mutable through accessors.
        db._freeze_arrays()
        return db

    # ------------------------------------------------------------------
    # Row positions and lazy row views
    # ------------------------------------------------------------------
    def _pos(self, tid) -> int:
        # Exactly the keys the old dict-backed store resolved: 2.0 finds
        # tuple 2 (hash/eq equivalence), but 2.7 or "2" raise KeyError
        # instead of silently truncating to the wrong row.
        try:
            t = int(tid)
        except (TypeError, ValueError):
            raise KeyError(tid) from None
        if t != tid:
            raise KeyError(tid)
        if self._contiguous:
            j = t - self._tid0
            if 0 <= j < len(self._tids):
                return j
            raise KeyError(tid)
        if self._tid_pos is None:
            self._tid_pos = {t: i for i, t in enumerate(self._tids.tolist())}
        return self._tid_pos[t]

    def _positions(self, tids: Sequence[int]) -> np.ndarray:
        if self._contiguous:
            pos = np.asarray(tids, dtype=np.int64) - self._tid0
            # One reduction checks both ends: a negative position wraps
            # above every valid one as uint64.
            if pos.size and int(pos.view(np.uint64).max()) >= len(self._tids):
                bad = tids[int(np.argmax((pos < 0) | (pos >= len(self._tids))))]
                raise KeyError(bad)
            return pos
        return np.array([self._pos(t) for t in tids], dtype=np.int64)

    def _make_row(self, i: int) -> LbsTuple:
        attrs = {}
        for name, col in self._columns.items():
            if col.present_at(i):
                attrs[name] = col.value_at(i)
        return LbsTuple(
            int(self._tids[i]),
            Point(float(self._xy[i, 0]), float(self._xy[i, 1])),
            attrs,
        )

    def _materialize(self) -> list[LbsTuple]:
        if self._rows is None:
            self._rows = [self._make_row(i) for i in range(len(self._tids))]
        return self._rows

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tids)

    def __iter__(self):
        return iter(self._materialize())

    def __contains__(self, tid) -> bool:
        try:
            self._pos(tid)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def get(self, tid: int) -> LbsTuple:
        i = self._pos(tid)
        if self._rows is not None:
            return self._rows[i]
        return self._make_row(i)

    def tuples(self) -> list[LbsTuple]:
        return list(self._materialize())

    def locations(self) -> dict[int, Point]:
        xs = self._xy[:, 0].tolist()
        ys = self._xy[:, 1].tolist()
        return {
            tid: Point(x, y) for tid, x, y in zip(self._tids.tolist(), xs, ys)
        }

    # ------------------------------------------------------------------
    # Columnar accessors (the array-native hot paths)
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """The ``(N, 2)`` float64 coordinate array (do not mutate)."""
        return self._xy

    @property
    def tids(self) -> np.ndarray:
        """The int64 tuple-id array, in row order (do not mutate)."""
        return self._tids

    def tid_list(self) -> list[int]:
        return self._tids.tolist()

    def column(self, name: str) -> Optional[Column]:
        """The named attribute column, or ``None`` when absent."""
        return self._columns.get(name)

    def column_names(self) -> list[str]:
        return list(self._columns)

    def lazy_locations(self) -> Mapping[int, Point]:
        """A read-only ``{tid: Point}`` mapping view over the columns
        (compares equal to the :meth:`locations` dict, costs nothing to
        build)."""
        return _CoordMapping(self, self._xy)

    def coord_mapping(self, xy: np.ndarray) -> Mapping[int, Point]:
        """A read-only ``{tid: Point}`` view over ``xy``, an ``(N, 2)``
        array aligned with this database's rows — the lazy
        effective-location view of obfuscated interfaces."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.shape != (len(self._tids), 2):
            raise ValueError(
                f"coordinate array has shape {xy.shape}, expected "
                f"({len(self._tids)}, 2)"
            )
        return _CoordMapping(self, xy)

    def row_positions(self, tids: Sequence[int]) -> np.ndarray:
        """Row indices of the given tids, in order (``KeyError`` on an
        unknown id) — how derived views slice row-aligned arrays such
        as a parent interface's realized jitters."""
        return self._positions(tids)

    def gather_attrs(
        self, tids: Sequence[int], names: Optional[Sequence[str]] = None
    ) -> list[dict]:
        """Attrs dicts for many tuples, gathered column-wise.

        One fancy-index per column instead of one dict walk per row —
        the projection stage's batch kernel.  ``names`` restricts (and
        orders) the returned keys, exactly like the interface's
        ``visible_attrs``; absent attributes are simply left out.
        """
        if len(tids) == 0:
            return []
        pos = self._positions(tids)
        if names is None:
            names = self._columns.keys()
        out: list[dict] = [{} for _ in range(len(pos))]
        for name in names:
            col = self._columns.get(name)
            if col is None:
                continue
            vals = col.values[pos].tolist()
            if col.present is None:
                for d, v in zip(out, vals):
                    d[name] = v
            else:
                for d, v, p in zip(out, vals, col.present[pos].tolist()):
                    if p:
                        d[name] = v
        return out

    # ------------------------------------------------------------------
    # Ground truth (experiment verification only)
    # ------------------------------------------------------------------
    def _predicate_mask(self, predicate: Optional[Predicate]) -> Optional[np.ndarray]:
        """Compile ``predicate`` to a row mask, or ``None`` when only the
        row-by-row fallback can evaluate it.

        Serializable :class:`~repro.core.aggregates.AttrEquals`
        conditions become one vectorized equality over the column,
        honouring the row semantics exactly: a missing attribute reads
        as ``None``, so ``AttrEquals(attr, None)`` matches absent rows.
        """
        n = len(self._tids)
        if predicate is None:
            return np.ones(n, dtype=bool)
        from ..core.aggregates import AttrEquals  # runtime: avoids an import cycle

        if not isinstance(predicate, AttrEquals):
            return None
        value = predicate.value
        col = self._columns.get(predicate.attr)
        if col is None:
            return np.full(n, value is None)
        try:
            eq = np.asarray(col.values == value)
        except Exception:
            eq = None
        if eq is None or eq.dtype != bool or eq.shape != (n,):
            # Incomparable dtype/value combination: fall back to the
            # per-element Python comparison the row path would run.
            eq = np.fromiter(
                (v == value for v in col.values.tolist()), bool, n
            )
        if col.present is not None:
            eq = eq & col.present
            if value is None:
                eq = eq | ~col.present
        return eq

    def _valid_values(
        self, attr: str, mask: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """``(float64 values, count)`` of rows in ``mask`` carrying a
        non-``None`` value for ``attr``, in row order."""
        col = self._columns.get(attr)
        if col is None:
            return np.empty(0, dtype=np.float64), 0
        valid = mask if col.present is None else (mask & col.present)
        if col.values.dtype == object:
            valid = valid & col.not_none_mask()
            picked = col.values[valid].tolist()
            values = np.array([float(v) for v in picked], dtype=np.float64)
        else:
            values = col.values[valid].astype(np.float64)
        return values, int(valid.sum())

    def ground_truth_count(self, predicate: Optional[Predicate] = None) -> int:
        mask = self._predicate_mask(predicate)
        if mask is None:
            return sum(1 for t in self._materialize() if predicate(t))
        return int(mask.sum())

    def ground_truth_sum(self, attr: str, predicate: Optional[Predicate] = None) -> float:
        mask = self._predicate_mask(predicate)
        if mask is None:
            total = 0.0
            for t in self._materialize():
                if not predicate(t):
                    continue
                value = t.get(attr)
                if value is not None:
                    total += float(value)
            return total
        values, _count = self._valid_values(attr, mask)
        # Sequential left-to-right addition: bit-identical to the row
        # loop (NumPy's pairwise-summation reductions are not).
        return float(sum(values.tolist()))

    def ground_truth_avg(self, attr: str, predicate: Optional[Predicate] = None) -> float:
        mask = self._predicate_mask(predicate)
        if mask is None:
            total = 0.0
            count = 0
            for t in self._materialize():
                if not predicate(t):
                    continue
                value = t.get(attr)
                if value is not None:
                    total += float(value)
                    count += 1
            if count == 0:
                raise ValueError("AVG over empty selection")
            return total / count
        values, count = self._valid_values(attr, mask)
        if count == 0:
            raise ValueError("AVG over empty selection")
        return float(sum(values.tolist())) / count

    # ------------------------------------------------------------------
    # Derived databases
    # ------------------------------------------------------------------
    def filtered(self, predicate: Predicate) -> "SpatialDatabase":
        """Sub-database of tuples satisfying ``predicate`` (same region).

        This is how pass-through selection conditions (paper §5.1) are
        simulated: the service runs the kNN over matching tuples only.
        An :class:`~repro.core.aggregates.AttrEquals` predicate selects
        by column mask; other callables evaluate row by row.  Either
        way the result reuses this database's validated coordinates —
        columns are sliced, nothing is re-checked or re-assembled.
        """
        mask = self._predicate_mask(predicate)
        if mask is None:
            mask = np.fromiter(
                (bool(predicate(t)) for t in self._materialize()),
                bool,
                len(self._tids),
            )
        return self._sliced(np.nonzero(mask)[0])

    def subsample(self, fraction: float, rng: np.random.Generator) -> "SpatialDatabase":
        """Uniformly random subset of the given ``fraction`` (Fig. 18)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        n = len(self._tids)
        take = max(1, int(round(fraction * n)))
        chosen = rng.choice(n, size=take, replace=False)
        keep = np.sort(self._tids)[chosen]
        return self._sliced(np.nonzero(np.isin(self._tids, keep))[0])
