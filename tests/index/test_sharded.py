"""ShardedGridIndex edge geometry, routing, and laziness.

The 4-backend property suite (test_index_equivalence) already holds the
sharded index to the oracle on randomized inputs; this module targets
the geometry the tiling itself introduces — queries *on* tile walls,
tiles too small for ``k``, empty tiles, both batch paths (per-tile
delegate and flat plane) — plus the registry-scenario sweep and the
interface-level views (filtered / subsample / obfuscated) the
acceptance bar names.
"""

import numpy as np
import pytest

from repro import worlds
from repro.geometry import Point, Rect
from repro.index import BruteForceIndex, QueryEngineConfig, ShardedGridIndex
from repro.index.sharded import auto_tiles_per_side
from repro.lbs import LbsTuple, LrLbsInterface, ObfuscationModel, SpatialDatabase


def _pts(n, seed=0, span=100.0):
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2)) * span
    return [(float(x), float(y), i) for i, (x, y) in enumerate(xy)]


def _oracle(pts):
    return BruteForceIndex(pts)


class TestTileBoundaryGeometry:
    def test_queries_on_tile_walls(self):
        # Queries placed exactly on every interior tile wall (and on the
        # corners where four tiles meet) must match the oracle: the
        # settled test uses strict inequality against wall clearance, so
        # a zero-clearance query always escalates rather than trusting
        # its home tile.
        pts = _pts(400, seed=1)
        idx = ShardedGridIndex(pts, tiles_per_side=4)
        oracle = _oracle(pts)
        walls_x = [idx._x0 + i * idx._tw for i in range(1, 4)]
        walls_y = [idx._y0 + j * idx._th for j in range(1, 4)]
        queries = (
            [(wx, 50.0) for wx in walls_x]
            + [(50.0, wy) for wy in walls_y]
            + [(wx, wy) for wx in walls_x for wy in walls_y]
        )
        for k in (1, 3, 17):
            ref = [oracle.knn(x, y, k) for x, y in queries]
            assert [idx.knn(x, y, k) for x, y in queries] == ref
            assert idx.knn_batch(queries, k) == ref
        for r in (0.0, 3.0, 40.0):
            for x, y in queries:
                assert idx.within_radius(x, y, r) == oracle.within_radius(x, y, r)

    def test_points_on_bbox_border(self):
        # Clipping assigns out-of-tile-range coordinates to border
        # tiles; the bbox corners themselves must round-trip.
        pts = [(0.0, 0.0, 0), (100.0, 100.0, 1), (0.0, 100.0, 2),
               (100.0, 0.0, 3), (50.0, 50.0, 4)]
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        oracle = _oracle(pts)
        for x, y in [(0, 0), (100, 100), (0, 100), (100, 0), (50, 50), (-5, 105)]:
            assert idx.knn(x, y, 5) == oracle.knn(x, y, 5)


class TestSmallAndEmptyTiles:
    def test_k_larger_than_any_tile_population(self):
        # 9 tiles over 30 points: every tile holds ~3, so k=12 forces
        # cross-tile merging on every query.
        pts = _pts(30, seed=2)
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        oracle = _oracle(pts)
        queries = [(x, y) for x, y, _i in _pts(25, seed=3, span=120.0)]
        ref = [oracle.knn(x, y, 12) for x, y in queries]
        assert [idx.knn(x, y, 12) for x, y in queries] == ref
        assert idx.knn_batch(queries, 12) == ref

    def test_empty_tiles(self):
        # All mass in one corner of a 4x4 tiling: most tiles are empty,
        # and far-away queries must still find the corner cluster.
        rng = np.random.default_rng(4)
        xy = rng.random((80, 2)) * 10.0
        pts = [(float(x), float(y), i) for i, (x, y) in enumerate(xy)]
        pts.append((100.0, 100.0, 80))  # stretch the bbox
        idx = ShardedGridIndex(pts, tiles_per_side=4)
        oracle = _oracle(pts)
        stats = idx.counters()
        assert stats["tiles_nonempty"] < 16
        for x, y in [(95.0, 95.0), (50.0, 50.0), (5.0, 95.0), (0.0, 0.0)]:
            assert idx.knn(x, y, 7) == oracle.knn(x, y, 7)
            assert idx.within_radius(x, y, 60.0) == oracle.within_radius(x, y, 60.0)

    def test_empty_index_and_single_point(self):
        empty = ShardedGridIndex([], tiles_per_side=2)
        assert empty.knn(0, 0, 3) == []
        assert empty.knn_batch([(0, 0)], 3) == [[]]
        assert empty.within_radius(0, 0, 1) == []
        one = ShardedGridIndex([(5.0, 5.0, 42)], tiles_per_side=2)
        assert one.knn(0, 0, 3) == _oracle([(5.0, 5.0, 42)]).knn(0, 0, 3)


class TestBatchPaths:
    """Both knn_batch routes — per-tile delegate and flat plane — are
    bit-identical to the oracle, and the delegate route stays lazy."""

    @staticmethod
    def _clustered(n=600, seed=5):
        rng = np.random.default_rng(seed)
        centers = np.array([[10.0, 10.0], [90.0, 85.0], [15.0, 80.0]])
        xy = centers[rng.integers(0, 3, n)] + rng.normal(0, 2.0, (n, 2))
        return [(float(x), float(y), i) for i, (x, y) in enumerate(xy)]

    def test_plane_path_matches_oracle(self):
        pts = self._clustered()
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        oracle = _oracle(pts)
        rng = np.random.default_rng(6)
        queries = [(float(x), float(y)) for x, y in rng.random((300, 2)) * 110 - 5]
        # scattered homes keep m < homes * _DELEGATE_MIN_GROUP -> plane
        assert idx.knn_batch(queries, 5) == oracle.knn_batch(queries, 5)
        assert idx.counters()["batch_queries"] == 300

    def test_delegate_path_matches_oracle_and_stays_lazy(self):
        pts = self._clustered()
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        oracle = _oracle(pts)
        rng = np.random.default_rng(7)
        # queries concentrated near one cluster, enough of them per home
        # tile (m >= homes * _DELEGATE_MIN_GROUP) for the delegate path:
        # only that neighborhood of tiles gets built
        queries = [(float(10 + dx), float(10 + dy))
                   for dx, dy in rng.normal(0, 3.0, (1200, 2))]
        assert idx.knn_batch(queries, 5) == oracle.knn_batch(queries, 5)
        stats = idx.counters()
        assert stats["tiles_built"] < stats["tiles_nonempty"]

    def test_stats_accounting(self):
        pts = self._clustered()
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        rng = np.random.default_rng(8)
        queries = [(float(x), float(y)) for x, y in rng.random((150, 2)) * 100]
        idx.knn_batch(queries, 4)
        s = idx.counters()
        assert (s["batch_settled"] + s["batch_escalated"] + s["batch_scalar"]
                == s["batch_queries"] == 150)
        # inner grid counters (satellite: the no-longer-silent fallback)
        inner = s["inner"]
        assert inner["batch_chunked"] + inner["batch_fallback"] \
            == inner["batch_queries"]

    @staticmethod
    def _near(cx, cy, m, seed, spread=2.0):
        rng = np.random.default_rng(seed)
        return [(float(cx + dx), float(cy + dy))
                for dx, dy in rng.uniform(-spread, spread, (m, 2))]

    def test_path_switches_at_delegate_min_group(self):
        # Two home tiles: one query short of 2 * _DELEGATE_MIN_GROUP runs
        # the flat plane (no inner grid kernel runs), the full quota
        # delegates every query to its home tile's own batch kernel.
        pts = _pts(400, seed=1)
        oracle = _oracle(pts)
        group = ShardedGridIndex._DELEGATE_MIN_GROUP
        below = self._near(10, 10, group - 1, 2) + self._near(90, 90, group, 3)
        at = below + self._near(10, 10, 1, 4)
        for queries, inner in ((below, 0), (at, 2 * group)):
            idx = ShardedGridIndex(pts, tiles_per_side=4)
            assert idx.knn_batch(queries, 3) == oracle.knn_batch(queries, 3)
            assert idx.counters()["inner"]["batch_queries"] == inner

    def test_both_paths_agree_bit_for_bit(self):
        # The same scattered queries, once on their own (plane) and
        # repeated past the delegate quota: identical answers.
        pts = self._clustered()
        rng = np.random.default_rng(9)
        queries = [(float(x), float(y)) for x, y in rng.random((300, 2)) * 110 - 5]
        plane_idx = ShardedGridIndex(pts, tiles_per_side=3)
        plane = plane_idx.knn_batch(queries, 5)
        assert plane_idx.counters()["inner"]["batch_queries"] == 0
        delegate_idx = ShardedGridIndex(pts, tiles_per_side=3)
        reps = 9 * ShardedGridIndex._DELEGATE_MIN_GROUP // len(queries) + 1
        delegated = delegate_idx.knn_batch(queries * reps, 5)
        assert delegate_idx.counters()["inner"]["batch_queries"] > 0
        for r in range(reps):
            assert delegated[r * 300 : (r + 1) * 300] == plane

    def test_delegate_path_routes_small_tiles_to_scalar(self):
        # The centre tile of the three-cluster layout is empty: a
        # delegated group there falls back to full scalar routing.
        pts = self._clustered()
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        queries = self._near(50, 48, ShardedGridIndex._DELEGATE_MIN_GROUP, 10)
        assert idx.knn_batch(queries, 5) == _oracle(pts).knn_batch(queries, 5)
        s = idx.counters()
        assert s["batch_scalar"] == len(queries)
        assert s["inner"]["batch_queries"] == 0

    def test_delegate_path_escalates_across_walls(self):
        # A delegated group hugging its home tile's right wall: the home
        # tile's k-th distance crosses it, so queries escalate to the
        # cross-tile merge and still match the oracle.
        pts = _pts(400, seed=1)
        idx = ShardedGridIndex(pts, tiles_per_side=4)
        wall = idx._x0 + idx._tw
        rng = np.random.default_rng(11)
        queries = [(float(wall - 0.5 * u), float(idx._y0 + (0.2 + 0.6 * v) * idx._th))
                   for u, v in rng.random((ShardedGridIndex._DELEGATE_MIN_GROUP, 2))]
        assert idx.knn_batch(queries, 5) == _oracle(pts).knn_batch(queries, 5)
        s = idx.counters()
        assert s["batch_escalated"] > 0
        assert s["inner"]["batch_queries"] == len(queries)

    def test_single_tile_batch(self):
        pts = _pts(300, seed=12)
        idx = ShardedGridIndex(pts, tiles_per_side=1)
        rng = np.random.default_rng(13)
        queries = [(float(x), float(y)) for x, y in rng.random((120, 2)) * 100]
        assert idx.knn_batch(queries, 4) == _oracle(pts).knn_batch(queries, 4)
        s = idx.counters()
        assert s["batch_settled"] == s["batch_queries"] == 120
        assert s["tiles_built"] == 1

    def test_empty_batch_and_nonpositive_k(self):
        pts = _pts(100, seed=14)
        idx = ShardedGridIndex(pts, tiles_per_side=3)
        assert idx.knn_batch([], 3) == []
        queries = [(10.0, 10.0), (60.0, 70.0)]
        assert idx.knn_batch(queries, 0) == _oracle(pts).knn_batch(queries, 0)
        assert idx.counters()["batch_queries"] == 0


class TestRouting:
    def test_home_tile_walls_contain_points_and_queries(self):
        # The settled test trusts a home answer whose reach clears the
        # home tile's walls: every indexed point must sit inside its
        # tile's walls, and so must every query (outer walls are
        # infinite, so queries beyond the bbox land in border tiles).
        pts = _pts(200, seed=9)
        idx = ShardedGridIndex(pts, tiles_per_side=4)
        for tile in range(16):
            left, right, bottom, top = idx._tile_walls(tile % 4, tile // 4)
            rows = idx._order[idx._starts[tile]:idx._starts[tile + 1]]
            assert np.all((left <= idx._xs[rows]) & (idx._xs[rows] <= right))
            assert np.all((bottom <= idx._ys[rows]) & (idx._ys[rows] <= top))
        rng = np.random.default_rng(10)
        for x, y in rng.random((100, 2)) * 120 - 10:
            left, right, bottom, top = idx._tile_walls(idx._tile_x(x),
                                                       idx._tile_y(y))
            assert left <= x <= right and bottom <= y <= top

    def test_auto_tiles_per_side(self):
        assert auto_tiles_per_side(0) == 1
        assert auto_tiles_per_side(10_000) == 1
        assert auto_tiles_per_side(1_000_000) >= 2
        # monotone non-decreasing, capped
        sides = [auto_tiles_per_side(n) for n in (10**3, 10**5, 10**6, 10**8, 10**12)]
        assert sides == sorted(sides)
        assert sides[-1] <= 32


class TestWorldBatch:
    """A clustered registry world, single process: both batch paths at
    several tilings, and ``k`` past every tile's population, answer
    exactly like the oracle."""

    @pytest.fixture(scope="class")
    def world(self):
        return worlds.get("paper/clustered").with_size(3000).build()

    @pytest.fixture(scope="class")
    def oracle(self, world):
        return BruteForceIndex.from_arrays(world.db.coords, world.db.tids)

    @staticmethod
    def _queries(world, m, seed=21):
        region = world.db.region
        u = np.random.default_rng(seed).random((m, 2))
        return [(float(region.x0 + a * region.width),
                 float(region.y0 + b * region.height)) for a, b in u]

    def _index(self, world, tiles):
        return ShardedGridIndex.from_arrays(world.db.coords, world.db.tids,
                                            tiles_per_side=tiles)

    @pytest.mark.parametrize("tiles", [2, 3, 4])
    def test_scattered_batch_matches_oracle(self, world, oracle, tiles):
        queries = self._queries(world, 400)
        idx = self._index(world, tiles)
        assert idx.knn_batch(queries, 5) == oracle.knn_batch(queries, 5)
        assert idx.counters()["inner"]["batch_queries"] == 0  # flat plane

    @pytest.mark.parametrize("tiles", [2, 3, 4])
    def test_dense_batch_matches_oracle(self, world, oracle, tiles):
        # tiles^2 * _DELEGATE_MIN_GROUP queries clear the delegate quota
        # however many home tiles they touch.
        m = tiles * tiles * ShardedGridIndex._DELEGATE_MIN_GROUP
        queries = self._queries(world, m)
        idx = self._index(world, tiles)
        assert idx.knn_batch(queries, 5) == oracle.knn_batch(queries, 5)
        assert idx.counters()["inner"]["batch_queries"] > 0  # delegated

    def test_k_exceeding_tile_population(self, world, oracle):
        # ~333 points per tile at T=3: k=500 forces cross-tile answers
        # for every query.
        queries = self._queries(world, 30)
        idx = self._index(world, 3)
        assert idx.knn_batch(queries, 500) == oracle.knn_batch(queries, 500)
        s = idx.counters()
        assert s["batch_settled"] == 0
        assert s["batch_escalated"] + s["batch_scalar"] == 30


class TestRegistryScenarios:
    """Every registry world: sharded == brute on all three query kinds
    (the acceptance sweep, shrunk to test-suite scale)."""

    @pytest.mark.parametrize("name", worlds.names())
    def test_world_equivalence(self, name):
        w = worlds.get(name).with_size(1500).build()
        db = w.db
        sharded = ShardedGridIndex.from_arrays(db.coords, db.tids,
                                               tiles_per_side=3)
        brute = BruteForceIndex.from_arrays(db.coords, db.tids)
        region = db.region
        rng = np.random.default_rng(11)
        u = rng.random((40, 2))
        qs = [(float(region.x0 + a * region.width),
               float(region.y0 + b * region.height)) for a, b in u]
        assert sharded.knn_batch(qs, 6) == brute.knn_batch(qs, 6)
        radius = 0.05 * region.width
        for x, y in qs[:10]:
            assert sharded.within_radius(x, y, radius) \
                == brute.within_radius(x, y, radius)
        sc, si = sharded.range_batch_ids(qs, radius)
        bc, bi = brute.range_batch_ids(qs, radius)
        assert sc.tolist() == bc.tolist()
        assert si.tolist() == bi.tolist()


class TestInterfaceViews:
    """filtered()/subsample() views and obfuscated interfaces over a
    sharded backend answer exactly like a brute-force one."""

    @staticmethod
    def _db(n=300, seed=12):
        rng = np.random.default_rng(seed)
        region = Rect(0, 0, 100, 100)
        tuples = [
            LbsTuple(i, Point(rng.random() * 100, rng.random() * 100),
                     {"even": bool(i % 2 == 0)})
            for i in range(n)
        ]
        return SpatialDatabase(tuples, region), region

    @staticmethod
    def _queries(seed=13, m=30):
        rng = np.random.default_rng(seed)
        return [Point(rng.random() * 100, rng.random() * 100) for _ in range(m)]

    def _apis(self, db, **kwargs):
        return {
            backend: LrLbsInterface(
                db, k=6, engine=QueryEngineConfig(index_backend=backend),
                **kwargs,
            )
            for backend in ("sharded", "brute")
        }

    def test_filtered_view_over_sharded_parent(self):
        db, _region = self._db()
        apis = self._apis(db)
        views = {b: api.filtered(lambda t: t.attrs["even"])
                 for b, api in apis.items()}
        for q in self._queries():
            assert views["sharded"].query(q) == views["brute"].query(q)
            for r in views["sharded"].query(q):
                assert r.attrs["even"]

    def test_subsampled_database(self):
        db, _region = self._db()
        sub = db.subsample(0.4, np.random.default_rng(14))
        apis = self._apis(sub)
        for q in self._queries(15):
            assert apis["sharded"].query(q) == apis["brute"].query(q)

    def test_obfuscated_interface(self):
        db, _region = self._db()
        apis = self._apis(db, obfuscation=ObfuscationModel(sigma=2.0, seed=3))
        for q in self._queries(16):
            assert apis["sharded"].query(q) == apis["brute"].query(q)

    def test_filtered_view_over_obfuscated_sharded_parent(self):
        db, _region = self._db()
        apis = self._apis(db, obfuscation=ObfuscationModel(sigma=2.0, seed=3))
        views = {b: api.filtered(lambda t: not t.attrs["even"])
                 for b, api in apis.items()}
        for q in self._queries(17):
            assert views["sharded"].query(q) == views["brute"].query(q)
