"""Row/columnar equivalence suite for the columnar ``SpatialDatabase``.

The data spine's contract: ``from_columns`` (the zero-copy ingest of
world builds) and the legacy row-iterable constructor produce
**bit-identical** databases — same tids, same coordinates, same rebuilt
attrs (values *and* types), same kNN answers, same ground truths, same
derived ``filtered()``/``subsample()`` databases — across every
registry scenario and across a JSON world round trip.  Plus property
tests pinning the null-mask semantics of SUM/AVG (absent and ``None``
values are excluded, exactly like the row loop).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import worlds
from repro.core.aggregates import AttrEquals
from repro.geometry import Point, Rect
from repro.lbs import Column, LbsTuple, LnrLbsInterface, LrLbsInterface, SpatialDatabase
from repro.lbs.columns import column_from_values, columns_from_rows, concat_columns
from repro.worlds import WorldSpec
from repro.worlds.attrs import synthesize_columns, synthesize_tuples

BOX = Rect(0.0, 0.0, 100.0, 80.0)
#: Registry scenarios are exercised at a reduced ``n`` — the generator
#: pipeline is size-independent and the full sizes belong to the bench.
TEST_N = 1200


def row_build(spec: WorldSpec) -> SpatialDatabase:
    """The seed's row-oriented build: synthesize rows, shred on ingest."""
    rng, rect, xy, labels = spec.synthesis_inputs()
    return SpatialDatabase(synthesize_tuples(rng, xy, labels, spec.attrs), rect)


def columnar_build(spec: WorldSpec) -> SpatialDatabase:
    """The zero-copy build: synthesize columns, ingest via from_columns."""
    rng, rect, xy, labels = spec.synthesis_inputs()
    return SpatialDatabase.from_columns(
        *synthesize_columns(rng, xy, labels, spec.attrs), rect
    )


def assert_db_identical(a: SpatialDatabase, b: SpatialDatabase) -> None:
    assert len(a) == len(b)
    assert a.tid_list() == b.tid_list()
    assert np.array_equal(a.coords, b.coords)
    for x, y in zip(a.tuples(), b.tuples()):
        assert x.tid == y.tid
        assert x.location == y.location
        assert dict(x.attrs) == dict(y.attrs)
        for key, value in x.attrs.items():
            assert type(value) is type(y.attrs[key]), (x.tid, key)
    rng = np.random.default_rng(7)
    region = a.region
    for u, v in rng.random((8, 2)):
        p = Point(region.x0 + u * region.width, region.y0 + v * region.height)
        ka = [(d, t.tid, dict(t.attrs)) for d, t in a.knn(p, 6)]
        kb = [(d, t.tid, dict(t.attrs)) for d, t in b.knn(p, 6)]
        assert ka == kb


@pytest.mark.parametrize("name", worlds.names())
class TestRegistryEquivalence:
    def test_columnar_build_matches_row_build(self, name):
        spec = worlds.get(name).with_size(TEST_N)
        assert_db_identical(columnar_build(spec), row_build(spec))

    def test_spec_build_uses_columnar_path_bit_identically(self, name):
        spec = worlds.get(name).with_size(TEST_N)
        assert_db_identical(spec.build().db, row_build(spec))

    def test_json_round_tripped_build_identical(self, name):
        spec = worlds.get(name).with_size(TEST_N)
        rt = WorldSpec.from_json(spec.to_json())
        assert_db_identical(spec.build().db, rt.build().db)

    def test_ground_truths_match_row_reference(self, name):
        db = worlds.get(name).with_size(TEST_N).build().db
        rows = db.tuples()
        for attr in ("category", "gender", "brand"):
            col = db.column(attr)
            if col is None:
                continue
            seen = sorted({t.get(attr) for t in rows if t.get(attr) is not None})
            for value in seen[:4]:
                cond = AttrEquals(attr, value)
                assert db.ground_truth_count(cond) == sum(
                    1 for t in rows if t.get(attr) == value
                )
        for attr, cond in (
            ("is_male", None),
            ("rating", AttrEquals("category", "restaurant")),
            ("enrollment", AttrEquals("category", "school")),
            ("popularity", None),
        ):
            if db.column(attr) is None:
                continue
            total = 0.0
            count = 0
            for t in rows:
                if cond is not None and not cond(t):
                    continue
                value = t.get(attr)
                if value is not None:
                    total += float(value)
                    count += 1
            assert db.ground_truth_sum(attr, cond) == total
            if count:
                assert db.ground_truth_avg(attr, cond) == total / count

    def test_filtered_mask_matches_row_fallback(self, name):
        db = worlds.get(name).with_size(TEST_N).build().db
        attr = "category" if db.column("category") is not None else "gender"
        value = db.tuples()[0].get(attr)
        cond = AttrEquals(attr, value)
        by_mask = db.filtered(cond)
        by_rows = db.filtered(lambda t: t.get(attr) == value)
        assert_db_identical(by_mask, by_rows)
        # Derived databases answer ground truths like the parent subset.
        assert by_mask.ground_truth_count() == db.ground_truth_count(cond)


def _mixed_columns(n, rng):
    """A column set covering every dtype class, with null masks."""
    cat = np.array(
        [("a", "b", "c")[i] for i in rng.integers(0, 3, n)], dtype=object
    )
    return {
        "cat": Column(cat),
        "score": Column(rng.random(n), rng.random(n) < 0.7),
        "n_vis": Column(
            rng.integers(0, 50, n).astype(np.int64), rng.random(n) < 0.5
        ),
        "flag": Column(rng.random(n) < 0.4),
        "note": column_from_values(
            [None if i % 5 == 0 else f"note{i}" for i in range(n)]
        ),
    }


def _rows_of(xy, tids, columns):
    rows = []
    for i, tid in enumerate(tids.tolist()):
        attrs = {
            name: col.value_at(i)
            for name, col in columns.items()
            if col.present_at(i)
        }
        rows.append(LbsTuple(tid, Point(float(xy[i, 0]), float(xy[i, 1])), attrs))
    return rows


class TestFromColumns:
    def make_pair(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        xy = rng.random((n, 2)) * [BOX.width, BOX.height]
        tids = np.arange(n, dtype=np.int64)
        columns = _mixed_columns(n, rng)
        db_cols = SpatialDatabase.from_columns(xy, tids, columns, BOX)
        db_rows = SpatialDatabase(_rows_of(xy, tids, columns), BOX)
        return db_cols, db_rows

    def test_bit_identical_to_row_constructor(self):
        db_cols, db_rows = self.make_pair()
        assert_db_identical(db_cols, db_rows)

    def test_accepts_plain_arrays_and_value_lists(self):
        rng = np.random.default_rng(0)
        xy = rng.random((50, 2)) * 10
        db = SpatialDatabase.from_columns(
            xy,
            np.arange(50),
            {
                "w": rng.random(50),                      # bare ndarray
                "tag": [f"t{i}" for i in range(50)],      # python values
                "half": (list(range(50)), np.arange(50) % 2 == 0),  # pair
            },
            Rect(0, 0, 10, 10),
        )
        t = db.get(4)
        assert t["tag"] == "t4" and t["half"] == 4
        assert "half" not in db.get(5).attrs

    def test_subsample_identical_across_paths(self):
        db_cols, db_rows = self.make_pair()
        a = db_cols.subsample(0.4, np.random.default_rng(11))
        b = db_rows.subsample(0.4, np.random.default_rng(11))
        assert_db_identical(a, b)

    def test_interfaces_answer_identically(self):
        db_cols, db_rows = self.make_pair()
        for cls, kwargs in (
            (LrLbsInterface, {}),
            (LnrLbsInterface, {"visible_attrs": ("cat", "score", "missing")}),
        ):
            api_a = cls(db_cols, k=4, **kwargs)
            api_b = cls(db_rows, k=4, **kwargs)
            rng = np.random.default_rng(2)
            pts = [Point(x * BOX.width, y * BOX.height) for x, y in rng.random((12, 2))]
            answers_a = api_a.query_batch(pts)
            answers_b = [api_b.query(p) for p in pts]
            for qa, qb in zip(answers_a, answers_b):
                assert qa == qb

    def test_filtered_view_shares_budget_and_matches(self):
        db_cols, db_rows = self.make_pair()
        va = LrLbsInterface(db_cols, k=3).filtered(AttrEquals("cat", "b"))
        vb = LrLbsInterface(db_rows, k=3).filtered(AttrEquals("cat", "b"))
        p = Point(5.0, 5.0)
        assert va.query(p) == vb.query(p)

    def test_tid_lookup_keeps_dict_key_semantics(self):
        # The old store was a dict keyed by tid: 2.0 found tuple 2
        # (hash/eq equivalence), 2.7 and "2" did not.
        db_cols, _ = self.make_pair()
        assert db_cols.get(2.0).tid == 2
        assert 2.0 in db_cols and np.int64(3) in db_cols
        for bad in (2.7, "2", "abc", None):
            assert bad not in db_cols
            with pytest.raises(KeyError):
                db_cols.get(bad)

    def test_gather_attrs_accepts_tid_arrays(self):
        db_cols, _ = self.make_pair()
        from_array = db_cols.gather_attrs(np.array([4, 9], dtype=np.int64))
        assert from_array == db_cols.gather_attrs([4, 9])
        assert db_cols.gather_attrs(np.empty(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("bad", [-1, -(2**62), 200, 2**62])
    def test_gather_attrs_names_the_first_bad_id(self, bad):
        # Ids 0..199 are contiguous: one range check covers both ends,
        # and the KeyError names the first id outside the range.
        db_cols, _ = self.make_pair()
        for tids in ([4, bad, 9, -5, 300], np.array([4, bad, 9, -5, 300])):
            with pytest.raises(KeyError) as err:
                db_cols.gather_attrs(tids)
            assert err.value.args == (bad,)

    def test_duplicate_ids_rejected(self):
        xy = np.zeros((2, 2))
        with pytest.raises(ValueError, match="duplicate tuple id 7"):
            SpatialDatabase.from_columns(xy, [7, 7], {}, BOX)

    def test_out_of_region_reports_offending_tid(self):
        xy = np.array([[1.0, 1.0], [200.0, 1.0]])
        with pytest.raises(ValueError, match="tuple 3"):
            SpatialDatabase.from_columns(xy, [2, 3], {}, BOX)

    def test_non_finite_coordinates_rejected(self):
        xy = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError, match="outside region"):
            SpatialDatabase.from_columns(xy, [0], {}, BOX)

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            SpatialDatabase.from_columns(np.zeros((3, 3)), [0, 1, 2], {}, BOX)
        with pytest.raises(ValueError, match="one id per"):
            SpatialDatabase.from_columns(np.zeros((3, 2)), [0, 1], {}, BOX)
        with pytest.raises(ValueError, match="column"):
            SpatialDatabase.from_columns(
                np.zeros((3, 2)), [0, 1, 2], {"x": [1.0, 2.0]}, BOX
            )

    def test_concat_columns_masks_absent_blocks(self):
        a = {"cat": Column(np.array(["r"] * 3, dtype=object)),
             "rating": Column(np.array([1.0, 2.0, 3.0]))}
        b = {"cat": Column(np.array(["s"] * 2, dtype=object)),
             "enrollment": Column(np.array([10, 20], dtype=np.int64))}
        merged = concat_columns([(3, a), (2, b)])
        assert merged["cat"].present is None
        assert merged["rating"].present.tolist() == [True] * 3 + [False] * 2
        assert merged["enrollment"].present.tolist() == [False] * 3 + [True] * 2
        db = SpatialDatabase.from_columns(
            np.arange(10, dtype=float).reshape(5, 2), np.arange(5), merged, BOX
        )
        assert db.ground_truth_sum("rating") == 6.0
        assert db.ground_truth_sum("enrollment") == 30.0
        assert "enrollment" not in db.get(0).attrs

    def test_columns_from_rows_round_trips_types(self):
        rows = [
            {"a": 1.5, "b": True, "c": 3, "d": "x", "e": None},
            {"a": 2.5, "b": False, "c": 4},
        ]
        cols = columns_from_rows(rows)
        assert cols["a"].values.dtype == np.float64
        assert cols["b"].values.dtype == np.bool_
        assert cols["c"].values.dtype == np.int64
        assert cols["d"].values.dtype == object
        rebuilt = [
            {k: c.value_at(i) for k, c in cols.items() if c.present_at(i)}
            for i in range(2)
        ]
        assert rebuilt == rows


# ----------------------------------------------------------------------
# Null-mask SUM/AVG semantics (property-based)
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
cell = st.one_of(st.none(), st.integers(-1000, 1000), finite, st.booleans())


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.tuples(cell, st.booleans()), min_size=1, max_size=60))
def test_null_mask_sum_avg_match_row_semantics(values):
    """SUM/AVG over a masked column equal the row loop bit for bit:
    absent slots and stored ``None`` both drop out of numerator and
    denominator, regardless of whether the column is typed or object."""
    n = len(values)
    raw = [v for v, _p in values]
    present = np.array([p for _v, p in values], dtype=bool)
    xy = np.stack([np.linspace(1, 99, n), np.linspace(1, 79, n)], axis=1)
    tids = np.arange(n, dtype=np.int64)
    db = SpatialDatabase.from_columns(
        xy, tids, {"v": column_from_values(raw, present)}, BOX
    )
    total = 0.0
    count = 0
    for value, p in values:
        if p and value is not None:
            total += float(value)
            count += 1
    assert db.ground_truth_sum("v") == total
    if count == 0:
        with pytest.raises(ValueError, match="empty selection"):
            db.ground_truth_avg("v")
    else:
        assert db.ground_truth_avg("v") == total / count
    # AttrEquals(attr, None) matches absent rows *and* stored Nones.
    assert db.ground_truth_count(AttrEquals("v", None)) == sum(
        1 for value, p in values if (not p) or value is None
    )
    # Missing column: SUM is 0, AVG is an empty selection.
    assert db.ground_truth_sum("nope") == 0.0
    with pytest.raises(ValueError):
        db.ground_truth_avg("nope")


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.sampled_from(["a", "b", None]), st.booleans()),
        min_size=1,
        max_size=50,
    ),
    target=st.sampled_from(["a", "b", "c", None]),
)
def test_attr_equals_mask_matches_row_predicate(data, target):
    n = len(data)
    raw = [v for v, _p in data]
    present = np.array([p for _v, p in data], dtype=bool)
    xy = np.stack([np.linspace(1, 99, n), np.linspace(1, 79, n)], axis=1)
    db = SpatialDatabase.from_columns(
        xy, np.arange(n), {"g": column_from_values(raw, present)}, BOX
    )
    cond = AttrEquals("g", target)
    expected = [t.tid for t in db.tuples() if t.get("g") == target]
    assert db.ground_truth_count(cond) == len(expected)
    assert db.filtered(cond).tid_list() == expected


class TestFrozenStorage:
    """Ingested arrays become the database's storage without a copy, so
    the ingest freezes them — accidental in-place writes raise instead
    of silently corrupting the database (and, for shared-memory or
    mmapped worlds, every attached process)."""

    def _assert_frozen(self, db):
        assert not db.coords.flags.writeable
        assert not db.tids.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            db.coords[0, 0] = 123.0
        with pytest.raises((ValueError, RuntimeError)):
            db.tids[0] = 999
        for name in db.column_names():
            col = db.column(name)
            assert not col.values.flags.writeable, name
            with pytest.raises((ValueError, RuntimeError)):
                col.values[0] = col.values[0]
            if col.present is not None:
                assert not col.present.flags.writeable, name
                with pytest.raises((ValueError, RuntimeError)):
                    col.present[0] = True

    def test_from_columns_freezes_ingested_arrays(self):
        n = 16
        xy = np.stack([np.linspace(1, 99, n), np.linspace(1, 79, n)], axis=1)
        vals = np.arange(n, dtype=np.float64)
        present = np.ones(n, dtype=bool)
        db = SpatialDatabase.from_columns(
            xy, np.arange(n), {"v": Column(vals, present)}, BOX
        )
        self._assert_frozen(db)
        # The caller's own references hit the same storage: also frozen.
        assert not xy.flags.writeable and not vals.flags.writeable

    def test_world_builds_are_frozen(self):
        db = worlds.registry.get("paper/clustered").with_size(200).build().db
        self._assert_frozen(db)

    def test_derived_databases_stay_frozen(self):
        db = worlds.registry.get("paper/clustered").with_size(200).build().db
        self._assert_frozen(db.filtered(AttrEquals("category", "restaurant")))
        self._assert_frozen(db.subsample(0.5, np.random.default_rng(3)))
