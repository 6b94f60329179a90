"""Tests for the simulated LBS: database, budget, LR/LNR interfaces."""

import numpy as np
import pytest

from repro.geometry import Point, Rect, distance
from repro.lbs import (
    BudgetExhausted,
    LbsTuple,
    LnrLbsInterface,
    LrLbsInterface,
    ObfuscationModel,
    QueryBudget,
    SpatialDatabase,
)

BOX = Rect(0, 0, 100, 100)


def make_db(n=30, seed=0, **attr_factories):
    rng = np.random.default_rng(seed)
    tuples = []
    for i in range(n):
        attrs = {"idx": i, "popularity": float(rng.random())}
        tuples.append(LbsTuple(i, Point(rng.random() * 100, rng.random() * 100), attrs))
    return SpatialDatabase(tuples, BOX)


class TestLbsTuple:
    def test_attr_access(self):
        t = LbsTuple(1, Point(0, 0), {"a": 5})
        assert t["a"] == 5
        assert t.get("missing") is None

    def test_attrs_read_only(self):
        t = LbsTuple(1, Point(0, 0), {"a": 5})
        with pytest.raises(TypeError):
            t.attrs["a"] = 6

    def test_equality_by_id(self):
        assert LbsTuple(1, Point(0, 0)) == LbsTuple(1, Point(5, 5))
        assert hash(LbsTuple(1, Point(0, 0))) == hash(LbsTuple(1, Point(5, 5)))


class TestSpatialDatabase:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            SpatialDatabase([LbsTuple(1, Point(1, 1)), LbsTuple(1, Point(2, 2))], BOX)

    def test_out_of_region_rejected(self):
        with pytest.raises(ValueError):
            SpatialDatabase([LbsTuple(1, Point(200, 1))], BOX)

    def test_ground_truth_count(self):
        db = make_db(20)
        assert db.ground_truth_count() == 20
        assert db.ground_truth_count(lambda t: t["idx"] < 5) == 5

    def test_ground_truth_sum_avg(self):
        db = SpatialDatabase(
            [LbsTuple(0, Point(1, 1), {"v": 2}), LbsTuple(1, Point(2, 2), {"v": 4}),
             LbsTuple(2, Point(3, 3), {})],
            BOX,
        )
        assert db.ground_truth_sum("v") == 6
        assert db.ground_truth_avg("v") == 3  # missing attr excluded

    def test_avg_empty_selection_raises(self):
        db = make_db(3)
        with pytest.raises(ValueError):
            db.ground_truth_avg("nope")

    def test_filtered(self):
        db = make_db(20)
        sub = db.filtered(lambda t: t["idx"] % 2 == 0)
        assert len(sub) == 10

    def test_subsample(self):
        db = make_db(40)
        rng = np.random.default_rng(1)
        sub = db.subsample(0.5, rng)
        assert len(sub) == 20
        for t in sub:
            assert t.tid in db
        with pytest.raises(ValueError):
            db.subsample(0.0, rng)


class TestQueryBudget:
    def test_unlimited(self):
        b = QueryBudget(None)
        b.spend(1000)
        assert b.remaining is None
        assert not b.exhausted()

    def test_limit_enforced(self):
        b = QueryBudget(2)
        b.spend()
        b.spend()
        assert b.exhausted()
        with pytest.raises(BudgetExhausted):
            b.spend()

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(-1)


class TestLrInterface:
    def test_returns_locations_and_distances(self):
        db = make_db()
        api = LrLbsInterface(db, k=4)
        ans = api.query(Point(50, 50))
        assert len(ans) == 4
        for r in ans:
            assert r.location is not None
            assert r.distance == pytest.approx(distance(Point(50, 50), r.location))
        assert [r.rank for r in ans] == [1, 2, 3, 4]

    def test_answers_sorted_by_distance(self):
        db = make_db()
        ans = LrLbsInterface(db, k=6).query(Point(10, 90))
        dists = [r.distance for r in ans]
        assert dists == sorted(dists)

    def test_budget_counted(self):
        db = make_db()
        api = LrLbsInterface(db, k=2, budget=QueryBudget(3))
        api.query(Point(1, 1))
        api.query(Point(2, 2))
        assert api.queries_used == 2
        api.query(Point(3, 3))
        with pytest.raises(BudgetExhausted):
            api.query(Point(4, 4))

    def test_max_radius_truncates(self):
        db = make_db()
        api = LrLbsInterface(db, k=10, max_radius=5.0)
        ans = api.query(Point(50, 50))
        for r in ans:
            assert r.distance <= 5.0

    def test_max_radius_empty(self):
        db = SpatialDatabase([LbsTuple(0, Point(1, 1))], BOX)
        api = LrLbsInterface(db, k=3, max_radius=2.0)
        assert api.query(Point(90, 90)).is_empty()

    def test_filtered_shares_budget(self):
        db = make_db()
        api = LrLbsInterface(db, k=3, budget=QueryBudget(10))
        sub = api.filtered(lambda t: t["idx"] < 10)
        sub.query(Point(5, 5))
        assert api.queries_used == 1
        assert all(r.tid < 10 for r in sub.query(Point(50, 50)))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            LrLbsInterface(make_db(), k=0)

    def test_visible_attrs(self):
        db = make_db()
        api = LrLbsInterface(db, k=1, visible_attrs=["idx"])
        ans = api.query(Point(0, 0))
        assert set(ans.top().attrs) == {"idx"}


class TestLnrInterface:
    def test_suppresses_location(self):
        db = make_db()
        ans = LnrLbsInterface(db, k=5).query(Point(50, 50))
        for r in ans:
            assert r.location is None and r.distance is None

    def test_same_ranking_as_lr(self):
        db = make_db()
        q = Point(33, 66)
        lr = LrLbsInterface(db, k=5).query(q)
        lnr = LnrLbsInterface(db, k=5).query(q)
        assert lr.tids() == lnr.tids()

    def test_rank_of_and_contains(self):
        db = make_db()
        ans = LnrLbsInterface(db, k=5).query(Point(20, 20))
        first = ans.tids()[0]
        assert ans.rank_of(first) == 1
        assert ans.contains(first)
        assert ans.rank_of(-99) is None

    def test_ranked_before(self):
        db = make_db()
        ans = LnrLbsInterface(db, k=5).query(Point(20, 20))
        tids = ans.tids()
        assert ans.ranked_before(tids[0], tids[1])
        assert not ans.ranked_before(tids[1], tids[0])
        assert ans.ranked_before(tids[0], -99)  # absent counts as after
        assert not ans.ranked_before(-99, tids[0])


class TestObfuscation:
    def test_deterministic(self):
        db = make_db()
        m = ObfuscationModel(sigma=2.0, seed=5)
        a = m.effective_locations(db.tuples())
        b = m.effective_locations(db.tuples())
        assert a == b

    def test_displacement_scale(self):
        db = make_db(200)
        m = ObfuscationModel(sigma=3.0, seed=5)
        eff = m.effective_locations(db.tuples())
        disp = [distance(eff[t.tid], t.location) for t in db]
        assert 1.0 < float(np.mean(disp)) < 8.0

    def test_clip(self):
        db = make_db(100)
        m = ObfuscationModel(sigma=10.0, seed=5, clip=1.0)
        eff = m.effective_locations(db.tuples())
        for t in db:
            assert distance(eff[t.tid], t.location) <= 1.0 + 1e-9

    def test_vectorized_jitter_matches_scalar_reference(self):
        # The (N, 2) normal draw must replay the historical per-tuple
        # size-2 stream bit for bit, clipping included.
        db = make_db(80, seed=4)
        for clip in (None, 3.0):
            m = ObfuscationModel(sigma=4.0, seed=7, clip=clip)
            eff = m.effective_locations(db.tuples())
            rng = np.random.default_rng(7)
            for t in sorted(db.tuples(), key=lambda t: t.tid):
                dx, dy = rng.normal(0.0, 4.0, size=2)
                if clip is not None:
                    norm = float(np.hypot(dx, dy))
                    if norm > clip > 0.0:
                        dx *= clip / norm
                        dy *= clip / norm
                expected = Point(t.location.x + float(dx), t.location.y + float(dy))
                assert eff[t.tid] == expected

    def test_serde_round_trip(self):
        m = ObfuscationModel(sigma=2.5, seed=9, clip=1.5)
        assert ObfuscationModel.from_dict(m.to_dict()) == m

    def test_filtered_view_keeps_realized_jitters(self):
        # The service drew each tuple's jitter once; a filtered view must
        # rank by the same effective positions, not re-roll them over
        # the narrowed tuple set.
        db = make_db(30)
        api = LnrLbsInterface(db, k=3, obfuscation=ObfuscationModel(sigma=2.0, seed=5))
        view = api.filtered(lambda t: t["idx"] % 2 == 0)
        for t in db:
            if t["idx"] % 2 == 0:
                assert view.effective_location(t.tid) == api.effective_location(t.tid)

    def test_interface_ranks_by_effective(self):
        db = make_db()
        api = LnrLbsInterface(db, k=3, obfuscation=ObfuscationModel(sigma=5.0, seed=1))
        q = Point(40, 40)
        ans = api.query(q)
        # Ranking must be consistent with effective locations.
        effs = [api.effective_location(t) for t in ans.tids()]
        dists = [distance(q, e) for e in effs]
        assert dists == sorted(dists)


class TestProminence:
    def test_static_score_dominates_when_weighted(self):
        db = make_db(20)
        api = LrLbsInterface(
            db, k=3,
            prominence={"static_attr": "popularity", "weight_distance": 0.0,
                        "weight_static": 1.0, "distance_cap": 50.0},
        )
        ans1 = api.query(Point(10, 10))
        ans2 = api.query(Point(90, 90))
        assert ans1.tids() == ans2.tids()  # pure popularity: location-independent

    def test_distance_only_matches_default(self):
        db = make_db(20)
        plain = LrLbsInterface(db, k=5)
        prom = LrLbsInterface(
            db, k=5,
            prominence={"static_attr": "popularity", "weight_distance": 1.0,
                        "weight_static": 0.0, "distance_cap": 1000.0},
        )
        q = Point(42, 17)
        assert plain.query(q).tids() == prom.query(q).tids()

    def test_filtered_view_keeps_prominence_ranking(self):
        # Regression: filtered() used to drop the prominence config, so
        # views silently reverted to distance order.
        db = make_db(30)
        api = LrLbsInterface(
            db, k=3,
            prominence={"static_attr": "popularity", "weight_distance": 0.0,
                        "weight_static": 1.0, "distance_cap": 50.0},
        )
        view = api.filtered(lambda t: t["idx"] % 2 == 0)
        ans1 = view.query(Point(10, 10))
        ans2 = view.query(Point(90, 90))
        # Pure popularity order is location-independent...
        assert ans1.tids() == ans2.tids()
        # ...and is exactly the parent's order restricted to the view.
        pops = {t.tid: t["popularity"] for t in db if t.tid % 2 == 0}
        expect = sorted(pops, key=lambda tid: (-pops[tid], tid))[:3]
        assert ans1.tids() == expect

    def test_filtered_view_keeps_parent_normalization(self):
        # The service's scoring function is fixed: a narrowed candidate
        # set keeps the popularity normalization of the full database.
        db = make_db(30)
        api = LrLbsInterface(
            db, k=4,
            prominence={"static_attr": "popularity", "weight_distance": 0.5,
                        "weight_static": 0.5, "distance_cap": 40.0},
        )
        view = api.filtered(lambda t: t["idx"] < 15)
        assert view.ranking.static_range == api.ranking.static_range
