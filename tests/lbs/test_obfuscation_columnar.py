"""Columnar obfuscation path: bit-identity against the dict path, jitter
edge cases, per-tid stability, and loud engine-state rejection.

The frozen reference here is the pre-columnar interface build: sort the
materialized rows by tid, draw one positional jitter stream, clip and
clamp per point, and carry a ``{tid: Point}`` dict through the pipeline.
The array-native path (one ``(N, 2)`` draw over the coordinate columns,
vectorized clip/clamp, lazy mapping view, row-sliced ``filtered()``
inheritance) must reproduce it bit for bit — scalar and batch, LR and
LNR, distance- and prominence-ranked, through filtered chains.
"""

import numpy as np
import pytest

from repro import worlds
from repro.core.aggregates import AttrEquals
from repro.geometry import Point, Rect, distance
from repro.lbs import (
    LbsTuple,
    LnrLbsInterface,
    LrLbsInterface,
    ObfuscationModel,
    SpatialDatabase,
)

BOX = Rect(0.0, 0.0, 100.0, 100.0)
#: Registry scenarios run at a reduced ``n`` — the jitter/clamp/ranking
#: machinery is size-independent; full sizes belong to the bench.
TEST_N = 900


def make_db(n=60, seed=0):
    rng = np.random.default_rng(seed)
    tuples = [
        LbsTuple(i, Point(rng.random() * 100, rng.random() * 100),
                 {"idx": i, "popularity": float(rng.random())})
        for i in range(n)
    ]
    return SpatialDatabase(tuples, BOX)


def dict_path_locations(db, model):
    """The pre-columnar reference: positional stream over tid-sorted
    rows, per-point clip (with the historical ``clip > 0`` guard) and
    ``region.clamp``, materialized as a dict."""
    ordered = sorted(db.tuples(), key=lambda t: t.tid)
    rng = np.random.default_rng(model.seed)
    offsets = rng.normal(0.0, model.sigma, size=(len(ordered), 2))
    if model.clip is not None and model.clip > 0.0:
        norms = np.hypot(offsets[:, 0], offsets[:, 1])
        safe = np.where(norms > 0.0, norms, 1.0)
        scale = np.where(norms > model.clip, model.clip / safe, 1.0)
        offsets = offsets * scale[:, None]
    region = db.region
    return {
        t.tid: region.clamp(
            Point(t.location.x + float(dx), t.location.y + float(dy))
        )
        for t, (dx, dy) in zip(ordered, offsets)
    }


def dict_path_coords(db, ref):
    """The ``{tid: Point}`` reference as the row-aligned ``(N, 2)``
    array that ``effective_coords=`` takes."""
    eff = np.empty((len(db), 2), dtype=np.float64)
    for i, tid in enumerate(db.tid_list()):
        eff[i] = ref[tid].x, ref[tid].y
    return eff


def probe_points(region, n=10, seed=3):
    rng = np.random.default_rng(seed)
    return [
        Point(region.x0 + u * region.width, region.y0 + v * region.height)
        for u, v in rng.random((n, 2))
    ]


def assert_same_answers(api, ref_api, pts):
    """Scalar and batch answers of both interfaces agree bit for bit."""
    batch = api.query_batch(pts)
    ref_scalar = [ref_api.query(p) for p in pts]
    for a, b in zip(batch, ref_scalar):
        assert a == b
    for p, b in zip(pts, ref_scalar):
        assert api.query(p) == b


def first_static_attr(db):
    for cand in ("popularity", "rating", "n_visits", "enrollment"):
        if db.column(cand) is not None:
            return cand
    return None


def first_filter(db):
    for attr in ("category", "gender", "brand", "component"):
        if db.column(attr) is not None:
            return AttrEquals(attr, db.tuples()[0].get(attr))
    return None


# ----------------------------------------------------------------------
# Bit-identity against the dict-path reference, all registry scenarios
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", worlds.names())
def test_registry_obfuscated_answers_match_dict_path(name):
    db = worlds.get(name).with_size(TEST_N).build().db
    region = db.region
    sigma = 0.01 * max(region.width, region.height)
    model = ObfuscationModel(sigma=sigma, seed=9, clip=2.5 * sigma)
    ref = dict_path_locations(db, model)
    ref_xy = dict_path_coords(db, ref)
    pts = probe_points(region)
    for cls in (LrLbsInterface, LnrLbsInterface):
        api = cls(db, k=5, obfuscation=model)
        ref_api = cls(db, k=5, obfuscation=model, effective_coords=ref_xy)
        for tid in db.tid_list()[:40]:
            assert api.effective_location(tid) == ref[tid]
        assert_same_answers(api, ref_api, pts)
        cond = first_filter(db)
        if cond is not None:
            assert_same_answers(api.filtered(cond), ref_api.filtered(cond), pts)
    static = first_static_attr(db)
    if static is not None:
        prominence = {"static_attr": static, "weight_distance": 0.6,
                      "weight_static": 0.4, "distance_cap": 0.1 * region.width}
        api = LrLbsInterface(db, k=5, obfuscation=model, prominence=prominence)
        ref_api = LrLbsInterface(db, k=5, obfuscation=model,
                                 prominence=prominence, effective_coords=ref_xy)
        assert_same_answers(api, ref_api, pts)


def test_wechat_subsample_filtered_chain_two_deep():
    """Regression: dict-path vs columnar bit-identity for obfuscated
    filtered() chains (two levels) on wechat-like-1m subsampled to 10k —
    non-contiguous tids, row-sliced jitter inheritance at every level."""
    db = worlds.get("wechat-like-1m").with_size(30_000).build().db
    sub = db.subsample(10_000 / len(db), np.random.default_rng(42))
    assert len(sub) == 10_000
    region = sub.region
    sigma = 0.01 * max(region.width, region.height)
    model = ObfuscationModel(sigma=sigma, seed=9, clip=2.5 * sigma)
    ref = dict_path_locations(sub, model)
    pts = probe_points(region)
    api = LnrLbsInterface(sub, k=5, obfuscation=model)
    ref_api = LnrLbsInterface(sub, k=5, obfuscation=model,
                              effective_coords=dict_path_coords(sub, ref))
    assert_same_answers(api, ref_api, pts)
    gender = AttrEquals("gender", sub.tuples()[0].get("gender"))
    view, ref_view = api.filtered(gender), ref_api.filtered(gender)
    assert_same_answers(view, ref_view, pts)
    keep = set(view.database.tid_list()[::2])
    pred = lambda t: t.tid in keep  # noqa: E731
    view2, ref_view2 = view.filtered(pred), ref_view.filtered(pred)
    assert_same_answers(view2, ref_view2, pts)
    # Realized jitters survived both slicing levels unchanged.
    for tid in view2.database.tid_list()[:40]:
        assert view2.effective_location(tid) == ref[tid]


# ----------------------------------------------------------------------
# Jitter edge cases
# ----------------------------------------------------------------------
class TestJitterEdgeCases:
    def test_clip_zero_means_zero_displacement(self):
        # The historical `clip > 0` guard silently treated clip=0.0 as
        # *unclipped*; a configured zero-displacement clip must pin
        # every effective position to the truth.
        db = make_db(80)
        m = ObfuscationModel(sigma=5.0, seed=3, clip=0.0)
        eff = m.effective_coords(db.coords, db.tids)
        assert np.array_equal(eff, db.coords)
        api = LrLbsInterface(db, k=3, obfuscation=m)
        plain = LrLbsInterface(db, k=3)
        p = Point(50.0, 50.0)
        assert api.query(p) == plain.query(p)

    def test_sigma_zero_is_identity_jitter(self):
        db = make_db(50)
        for clip in (None, 0.0, 2.0):
            m = ObfuscationModel(sigma=0.0, seed=1, clip=clip)
            assert np.array_equal(m.effective_coords(db.coords, db.tids), db.coords)

    def test_clip_smaller_than_typical_norms(self):
        # sigma=10 draws have norm ~12 on average; every displacement
        # must cap at the tiny clip, none at zero (norms can't vanish).
        db = make_db(150, seed=2)
        clip = 0.05
        m = ObfuscationModel(sigma=10.0, seed=5, clip=clip)
        eff = m.effective_coords(db.coords, db.tids)
        norms = np.hypot(*(eff - db.coords).T)
        assert norms.max() <= clip + 1e-12
        assert (norms > clip * 0.999999).all()  # all hit the cap

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            ObfuscationModel(sigma=-1.0)
        with pytest.raises(ValueError, match="clip"):
            ObfuscationModel(sigma=1.0, clip=-0.5)

    def test_jitters_clamped_at_all_four_edges(self):
        # Points hugging each edge with a huge jitter: effective
        # positions stay inside the region, and each edge actually
        # clamps (some coordinate lands exactly on it).
        rng = np.random.default_rng(8)
        tuples = []
        tid = 0
        for _ in range(40):
            along = rng.random() * 100
            for loc in (Point(0.01, along), Point(99.99, along),
                        Point(along, 0.01), Point(along, 99.99)):
                tuples.append(LbsTuple(tid, loc, {}))
                tid += 1
        db = SpatialDatabase(tuples, BOX)
        api = LrLbsInterface(db, k=3, obfuscation=ObfuscationModel(sigma=30.0, seed=4))
        eff = np.array([[api.effective_location(t).x, api.effective_location(t).y]
                        for t in db.tid_list()])
        assert (eff[:, 0] >= BOX.x0).all() and (eff[:, 0] <= BOX.x1).all()
        assert (eff[:, 1] >= BOX.y0).all() and (eff[:, 1] <= BOX.y1).all()
        assert (eff[:, 0] == BOX.x0).any() and (eff[:, 0] == BOX.x1).any()
        assert (eff[:, 1] == BOX.y0).any() and (eff[:, 1] == BOX.y1).any()

    def test_serde_round_trip_exact(self):
        for m in (
            ObfuscationModel(sigma=2.5, seed=9, clip=1.5),
            ObfuscationModel(sigma=2.5, seed=9, clip=0.0),
            ObfuscationModel(sigma=0.0, seed=0, per_tid=True),
        ):
            assert ObfuscationModel.from_dict(m.to_dict()) == m
        # Dicts written before per_tid existed still load (default off).
        legacy = ObfuscationModel.from_dict({"sigma": 1.0, "seed": 2, "clip": None})
        assert legacy == ObfuscationModel(sigma=1.0, seed=2)


# ----------------------------------------------------------------------
# Per-tid jitter stability (the opt-in)
# ----------------------------------------------------------------------
class TestPerTidStability:
    def test_positional_stream_rerolls_on_direct_subset_build(self):
        # The documented hazard: the default stream assigns jitters by
        # *position* over tid-sorted tuples, so an interface built
        # directly on a filtered database re-rolls them.
        db = make_db(100)
        sub = db.filtered(lambda t: t["idx"] % 3 == 0)
        m = ObfuscationModel(sigma=2.0, seed=7)
        parent = LnrLbsInterface(db, k=3, obfuscation=m)
        direct = LnrLbsInterface(sub, k=3, obfuscation=m)
        moved = [t for t in sub.tid_list()[1:]
                 if direct.effective_location(t) != parent.effective_location(t)]
        assert moved  # jitters re-rolled (tid 0 keeps the stream head)

    def test_per_tid_stream_is_stable_across_subsets(self):
        # With per_tid=True a tuple's jitter depends only on (seed, tid):
        # direct builds on filtered/subsampled databases agree with the
        # parent world — the "drawn once, for good" invariant holds.
        db = make_db(100)
        m = ObfuscationModel(sigma=2.0, seed=7, per_tid=True)
        parent = LnrLbsInterface(db, k=3, obfuscation=m)
        sub = db.filtered(lambda t: t["idx"] % 3 == 0)
        direct = LnrLbsInterface(sub, k=3, obfuscation=m)
        view = parent.filtered(lambda t: t["idx"] % 3 == 0)
        for t in sub.tid_list():
            assert direct.effective_location(t) == parent.effective_location(t)
            assert view.effective_location(t) == parent.effective_location(t)
        # Same through a subsample (non-contiguous tids).
        rng = np.random.default_rng(1)
        ss = db.subsample(0.3, rng)
        on_ss = LnrLbsInterface(ss, k=3, obfuscation=m)
        for t in ss.tid_list():
            assert on_ss.effective_location(t) == parent.effective_location(t)

    def test_per_tid_deterministic_and_seed_sensitive(self):
        db = make_db(200, seed=3)
        a = ObfuscationModel(sigma=2.0, seed=1, per_tid=True)
        b = ObfuscationModel(sigma=2.0, seed=2, per_tid=True)
        ea = a.effective_coords(db.coords, db.tids)
        assert np.array_equal(ea, a.effective_coords(db.coords, db.tids))
        assert not np.array_equal(ea, b.effective_coords(db.coords, db.tids))

    def test_per_tid_displacement_scale_and_clip(self):
        db = make_db(400, seed=5)
        m = ObfuscationModel(sigma=3.0, seed=11, per_tid=True)
        disp = np.hypot(*(m.effective_coords(db.coords, db.tids) - db.coords).T)
        # Rayleigh mean is sigma * sqrt(pi/2) ~ 3.76.
        assert 2.5 < float(disp.mean()) < 5.5
        clipped = ObfuscationModel(sigma=3.0, seed=11, clip=1.0, per_tid=True)
        norms = np.hypot(*(clipped.effective_coords(db.coords, db.tids) - db.coords).T)
        assert norms.max() <= 1.0 + 1e-12

    def test_effective_locations_dict_agrees_with_coords(self):
        db = make_db(60, seed=6)
        for m in (ObfuscationModel(sigma=2.0, seed=5),
                  ObfuscationModel(sigma=2.0, seed=5, per_tid=True)):
            eff = m.effective_locations(db.tuples())
            arr = m.effective_coords(db.coords, db.tids)
            for i, tid in enumerate(db.tid_list()):
                assert eff[tid] == Point(float(arr[i, 0]), float(arr[i, 1]))


# ----------------------------------------------------------------------
# Interface plumbing around the columnar effective positions
# ----------------------------------------------------------------------
class TestInterfacePlumbing:
    def test_interface_ranks_by_effective_positions(self):
        db = make_db()
        api = LnrLbsInterface(db, k=3, obfuscation=ObfuscationModel(sigma=5.0, seed=1))
        q = Point(40, 40)
        dists = [distance(q, api.effective_location(t)) for t in api.query(q).tids()]
        assert dists == sorted(dists)

    def test_lr_reports_effective_not_true_locations(self):
        db = make_db()
        api = LrLbsInterface(db, k=4, obfuscation=ObfuscationModel(sigma=3.0, seed=2))
        for r in api.query(Point(20, 80)):
            assert r.location == api.effective_location(r.tid)

    def test_effective_coords_shape_validated(self):
        db = make_db(10)
        with pytest.raises(ValueError, match="effective_coords"):
            LrLbsInterface(db, k=2, effective_coords=np.zeros((3, 2)))

    def test_restore_engine_state_rejects_malformed_snapshots(self):
        # Pre-cache-stats snapshots must fail loudly (state-v2
        # convention), not with a bare KeyError mid-restore.
        db = make_db()
        api = LrLbsInterface(db, k=2)
        api.query(Point(5.0, 5.0))
        good = api.engine_state()
        for dropped in ("budget_used", "cache"):
            bad = {k: v for k, v in good.items() if k != dropped}
            fresh = LrLbsInterface(db, k=2)
            with pytest.raises(ValueError, match="incompatible release"):
                fresh.restore_engine_state(bad)
        with pytest.raises(ValueError, match="budget_used.*cache"):
            LrLbsInterface(db, k=2).restore_engine_state({})
        # Optional cache statistics still default quietly.
        fresh = LrLbsInterface(db, k=2)
        fresh.restore_engine_state(
            {"budget_used": good["budget_used"], "cache": good["cache"]}
        )
        assert fresh.queries_used == api.queries_used
        assert fresh.query(Point(5.0, 5.0)) == api.query(Point(5.0, 5.0))
