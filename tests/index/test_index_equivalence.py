"""Property-based equivalence of every SpatialIndex backend.

BruteForceIndex's single-point loops are the executable specification;
KdTree, GridIndex, and ShardedGridIndex — single-point and batched —
must match them answer-for-answer on randomized point sets, including
tie-breaking by id and inclusive radius boundaries.  The
interface-level test pins down ``max_radius`` filtering across
backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rect
from repro.index import (
    BruteForceIndex,
    GridIndex,
    KdTree,
    QueryEngineConfig,
    ShardedGridIndex,
    SpatialIndex,
    make_index,
)
from repro.lbs import LbsTuple, LrLbsInterface, SpatialDatabase

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


def _sharded(points):
    # Force a multi-tile grid even at property-test sizes (the auto rule
    # would give one tile, which is just GridIndex behind a router).
    return ShardedGridIndex(points, tiles_per_side=3)


BACKENDS = [KdTree, GridIndex, BruteForceIndex, _sharded]


def build_all(points):
    return [cls(points) for cls in BACKENDS]


def oracle_knn(points, x, y, k):
    return BruteForceIndex(points).knn(x, y, k)


def range_ids(index, queries, r):
    """``range_batch_ids`` as plain lists: (counts, items)."""
    counts, items = index.range_batch_ids(queries, r)
    return counts.tolist(), items.tolist()


def looped_range_ids(index, queries, r):
    """The CSR lists ``range_batch_ids`` must equal: looped ``within_radius``."""
    lists = [index.within_radius(x, y, r) for x, y in queries]
    return [len(lst) for lst in lists], [tid for lst in lists for _d, tid in lst]


class TestKnnEquivalence:
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=70),
        coord, coord, st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_all_backends_match_oracle(self, raw, qx, qy, k):
        pts = [(x, y, i) for i, (x, y) in enumerate(raw)]
        ref = oracle_knn(pts, qx, qy, k)
        for index in build_all(pts):
            assert index.knn(qx, qy, k) == ref, type(index).__name__

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=50),
        st.lists(st.tuples(coord, coord), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_equals_looped_single(self, raw, queries, k):
        pts = [(x, y, i) for i, (x, y) in enumerate(raw)]
        for index in build_all(pts):
            looped = [index.knn(x, y, k) for x, y in queries]
            assert index.knn_batch(queries, k) == looped, type(index).__name__

    def test_exact_tie_broken_by_id(self):
        # Two points equidistant from the query: the smaller id must win
        # in every backend, single and batched.
        pts = [(1.0, 0.0, 7), (-1.0, 0.0, 3)]
        for index in build_all(pts):
            assert index.knn(0, 0, 1)[0][1] == 3, type(index).__name__
            assert index.knn_batch([(0, 0)], 1)[0][0][1] == 3

    def test_duplicate_locations_tie_by_id(self):
        pts = [(5.0, 5.0, 9), (5.0, 5.0, 2), (1.0, 1.0, 1)]
        ref = oracle_knn(pts, 5, 5, 2)
        assert [item for _d, item in ref] == [2, 9]
        for index in build_all(pts):
            assert index.knn(5, 5, 2) == ref
            assert index.knn_batch([(5, 5)], 2) == [ref]

    def test_many_ties_on_circle(self):
        pts = [
            (np.cos(a), np.sin(a), i)
            for i, a in enumerate(np.linspace(0, 2 * np.pi, 9)[:-1])
        ]
        ref = oracle_knn(pts, 0, 0, 3)
        for index in build_all(pts):
            assert index.knn(0, 0, 3) == ref
            assert index.knn_batch([(0.0, 0.0)] * 3, 3) == [ref] * 3

    def test_k_of_zero_and_overlong_k(self):
        pts = [(0.0, 0.0, 0), (1.0, 1.0, 1)]
        for index in build_all(pts):
            assert index.knn(0.5, 0.5, 0) == []
            assert index.knn_batch([(0.5, 0.5)], 0) == [[]]
            assert len(index.knn(0.5, 0.5, 10)) == 2

    def test_empty_index(self):
        for index in build_all([]):
            assert index.knn(0, 0, 3) == []
            assert index.knn_batch([(0, 0), (1, 1)], 3) == [[], []]
            assert index.within_radius(0, 0, 5) == []
            assert range_ids(index, [(0, 0)], 5) == ([0], [])


class TestRadiusEquivalence:
    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=50),
        coord, coord, st.floats(min_value=0, max_value=150),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_backends_match_oracle(self, raw, qx, qy, r):
        pts = [(x, y, i) for i, (x, y) in enumerate(raw)]
        ref = BruteForceIndex(pts).within_radius(qx, qy, r)
        for index in build_all(pts):
            assert index.within_radius(qx, qy, r) == ref, type(index).__name__
            assert range_ids(index, [(qx, qy)], r) == ([len(ref)], [t for _d, t in ref])

    def test_inclusive_boundary(self):
        pts = [(3.0, 4.0, 0)]
        for index in build_all(pts):
            assert index.within_radius(0, 0, 5.0) == [(pytest.approx(5.0), 0)]
            assert range_ids(index, [(0, 0)], 5.0) == ([1], [0])

    def test_negative_radius(self):
        pts = [(0.0, 0.0, 0)]
        for index in build_all(pts):
            assert index.within_radius(0, 0, -1.0) == []
            assert range_ids(index, [(0, 0)], -1.0) == ([0], [])

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=40),
        st.lists(st.tuples(coord, coord), max_size=8),
        st.floats(min_value=0, max_value=120),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_batch_ids_matches_looped_within_radius(self, raw, queries, r):
        # The CSR form must carry exactly within_radius's items, in its
        # per-point order — every backend, empty query lists included.
        pts = [(x, y, i) for i, (x, y) in enumerate(raw)]
        for index in build_all(pts):
            assert range_ids(index, queries, r) == looped_range_ids(index, queries, r)


class TestClusteredEquivalence:
    """The estimator workloads are clustered; hammer that shape too."""

    def test_clustered_with_duplicates(self):
        rng = np.random.default_rng(42)
        centers = rng.random((6, 2)) * 100
        pts_xy = centers[rng.integers(0, 6, 300)] + rng.normal(0, 0.05, (300, 2))
        pts = [(float(x), float(y), i) for i, (x, y) in enumerate(pts_xy)]
        pts[10] = (pts[0][0], pts[0][1], 10)  # exact duplicate location
        queries = [(float(x), float(y)) for x, y in rng.random((40, 2)) * 120 - 10]
        oracle = BruteForceIndex(pts)
        for k in (1, 5, 30):
            ref = [oracle.knn(x, y, k) for x, y in queries]
            for index in build_all(pts):
                assert index.knn_batch(queries, k) == ref, (type(index).__name__, k)


class TestMakeIndex:
    def test_protocol_conformance(self):
        pts = [(0.0, 0.0, 0), (1.0, 1.0, 1)]
        for index in build_all(pts):
            assert isinstance(index, SpatialIndex)
            assert len(index) == 2

    def test_explicit_backends(self):
        pts = [(float(i), float(i), i) for i in range(10)]
        assert isinstance(make_index(pts, "kdtree"), KdTree)
        assert isinstance(make_index(pts, "grid"), GridIndex)
        assert isinstance(make_index(pts, "brute"), BruteForceIndex)
        assert isinstance(make_index(pts, "sharded"), ShardedGridIndex)

    def test_auto_picks_by_size(self):
        small = [(float(i), float(i), i) for i in range(10)]
        big = [(float(i), float(i % 17), i) for i in range(200)]
        assert isinstance(make_index(small, "auto"), BruteForceIndex)
        assert isinstance(make_index(big, "auto"), GridIndex)
        assert isinstance(make_index(big, "auto", auto_brute_max=500), BruteForceIndex)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_index([], "rtree")
        with pytest.raises(ValueError):
            QueryEngineConfig(index_backend="rtree")


class TestInterfaceMaxRadius:
    """max_radius filtering must not depend on the index backend."""

    @staticmethod
    def _db(n=60, seed=3):
        rng = np.random.default_rng(seed)
        region = Rect(0, 0, 100, 100)
        tuples = [
            LbsTuple(i, Point(rng.random() * 100, rng.random() * 100), {"i": i})
            for i in range(n)
        ]
        return SpatialDatabase(tuples, region)

    def test_backends_agree_under_max_radius(self):
        db = self._db()
        rng = np.random.default_rng(11)
        queries = [Point(rng.random() * 100, rng.random() * 100) for _ in range(25)]
        answers = {}
        for backend in ("kdtree", "grid", "brute", "sharded"):
            api = LrLbsInterface(
                db, k=8, max_radius=12.0,
                engine=QueryEngineConfig(index_backend=backend),
            )
            answers[backend] = [api.query(q) for q in queries]
            for ans in answers[backend]:
                for r in ans:
                    assert r.distance <= 12.0
        assert (answers["kdtree"] == answers["grid"] == answers["brute"]
                == answers["sharded"])
