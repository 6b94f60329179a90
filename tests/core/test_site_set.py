"""The site set behind the observation history, held to the dict scan.

``SiteSet`` selects sites with one NumPy pass as a prefilter and decides
everything near a threshold with ``distance()``.  The references below
are the scans it replaced: a stable sort on ``distance()`` over
first-seen order, a ``bisect_right`` count over that sort, and the
closer-count loop of the Monte-Carlo lower bound.  Lattice coordinates
force exact distance ties, and scaled lattices force near-ties where
``np.hypot`` and ``math.hypot`` can round differently.
"""

from bisect import bisect_right
from operator import itemgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggregateQuery, LrLbsAgg, MaxSamples, ObservationHistory
from repro.core.history import SiteSet
from repro.geometry import Point, distance
from repro.lbs import LrLbsInterface, QueryEngineConfig
from repro.sampling import UniformSampler


# ----------------------------------------------------------------------
# References: the dict scans the site set replaced
# ----------------------------------------------------------------------
def first_seen(entries):
    """``(tid, Point)`` pairs in first-seen order; a tid keeps its first
    location."""
    known: dict = {}
    for tid, loc in entries:
        known.setdefault(tid, loc)
    return list(known.items())


def ref_ranked(items, center, skip=None):
    """``(d, tid, loc)`` at a positive distance, ``skip`` left out, in a
    stable sort on ``distance()`` (ties keep first-seen order)."""
    sites = []
    for tid, loc in items:
        if tid != skip:
            d = distance(loc, center)
            if d > 0.0:
                sites.append((d, tid, loc))
    sites.sort(key=itemgetter(0))
    return sites


def ref_count_within(ranked, radius):
    return bisect_right(ranked, radius, key=itemgetter(0))


def ref_count_closer(items, center, radius, skip):
    closer = 0
    for tid, loc in items:
        if tid == skip:
            continue
        if distance(center, loc) < radius:
            closer += 1
    return closer


def fill(entries) -> SiteSet:
    sites = SiteSet()
    for tid, loc in entries:
        sites.add(tid, loc)
    return sites


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Lattice scales: 1.0 gives exact ties ((3, 4) and (5, 0)); the others
#: give near-ties whose rounding differs between hypot implementations.
SCALES = st.sampled_from([1.0, 0.1, 0.3, 1e-3, 7.25, 1e5 / 3.0])


@st.composite
def site_lists(draw, min_size=0, max_size=50):
    """``(entries, center, scale)``: lattice sites with repeated tids,
    duplicate coordinates under different tids and sites at the centre."""
    scale = draw(SCALES)
    offset = draw(st.sampled_from([0.0, 0.05, -17.5]))

    def at(i, j):
        return Point(offset + i * scale, offset + j * scale)

    cells = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    entries = [
        (tid, at(*cell))
        for tid, cell in draw(st.lists(st.tuples(st.integers(0, 40), cells),
                                       min_size=min_size, max_size=max_size))
    ]
    center = at(*draw(cells))
    return entries, center


def radii_for(items, center, draw):
    """Every site's own distance (the tie case of both tests), its
    neighbouring floats, zero, and one unrelated radius."""
    ds = [distance(loc, center) for _tid, loc in items]
    out = set(ds) | {0.0, draw(st.floats(0.0, 1e6))}
    out |= {np.nextafter(d, np.inf) for d in ds} | {np.nextafter(d, 0.0) for d in ds}
    return sorted(float(r) for r in out)


# ----------------------------------------------------------------------
# Selection against the references
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=site_lists())
def test_ranked_prefix_matches_stable_sort(data, case):
    entries, center = case
    sites = fill(entries)
    items = first_seen(entries)
    upto = data.draw(st.integers(0, len(items)))
    skip = data.draw(st.sampled_from([None, -1] + [tid for tid, _ in items]))
    ranking = sites.ranked(center, upto, skip=skip)
    ref = ref_ranked(items[:upto], center, skip)
    assert len(ranking) == len(ref)
    for k in range(len(ref) + 2):
        assert ranking.nearest(k) == [(tid, loc) for _d, tid, loc in ref[:k]]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=site_lists())
def test_count_within_matches_bisect(data, case):
    entries, center = case
    sites = fill(entries)
    items = first_seen(entries)
    upto = data.draw(st.integers(0, len(items)))
    skip = data.draw(st.sampled_from([None] + [tid for tid, _ in items]))
    ranking = sites.ranked(center, upto, skip=skip)
    ref = ref_ranked(items[:upto], center, skip)
    for r in radii_for(items, center, data.draw):
        assert ranking.count_within(r) == ref_count_within(ref, r), r


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=site_lists())
def test_count_closer_matches_loop(data, case):
    entries, center = case
    sites = fill(entries)
    items = first_seen(entries)
    skip = data.draw(st.sampled_from([None, -1] + [tid for tid, _ in items]))
    for r in radii_for(items, center, data.draw):
        assert sites.count_closer(center, r, skip=skip) == ref_count_closer(
            items, center, r, skip), r


@settings(max_examples=60, deadline=None)
@given(first=site_lists(min_size=1), second=site_lists())
def test_clear_then_refill(first, second):
    sites = fill(first[0])
    sites.clear()
    assert len(sites) == 0 and not list(sites)
    entries, center = second
    for tid, loc in entries:
        sites.add(tid, loc)
    items = first_seen(entries)
    assert list(sites.items()) == items
    ref = ref_ranked(items, center)
    assert sites.ranked(center).nearest(len(ref)) == [(t, p) for _d, t, p in ref]


def test_ranked_prefix_at_every_near_tie_of_a_full_lattice():
    """Every centre of a full 0.1-lattice, both row orders: each cut
    through a group of (near-)equal distances follows ``distance()`` and
    the row.  On this lattice ``np.hypot`` and ``math.hypot`` round some
    tied distances apart, so an exact tie can reach the prefilter in
    either order."""
    pts = [Point(0.05 + i * 0.1, 0.05 + j * 0.1) for i in range(-5, 6) for j in range(-5, 6)]
    for entries in (list(enumerate(pts)), list(enumerate(pts))[::-1]):
        sites = fill(entries)
        for center in pts:
            ref = ref_ranked(entries, center)
            ranking = sites.ranked(center)
            for k in range(1, len(ref)):
                if ref[k][0] - ref[k - 1][0] <= 1e-12 * ref[k][0]:
                    assert ranking.nearest(k) == [(t, p) for _d, t, p in ref[:k]], (center, k)


def test_array_grows_past_initial_capacity():
    rng = np.random.default_rng(5)
    entries = [(i, Point(*map(float, rng.random(2) * 100))) for i in range(300)]
    sites = fill(entries)
    center = Point(50.0, 50.0)
    ref = ref_ranked(entries, center)
    assert sites.ranked(center).nearest(40) == [(t, p) for _d, t, p in ref[:40]]
    assert sites.ranked(center, 130).nearest(10) == [
        (t, p) for _d, t, p in ref_ranked(entries[:130], center)[:10]
    ]


def test_tid_keeps_first_row():
    sites = SiteSet()
    sites.add(5, Point(1.0, 1.0))
    sites.add(7, Point(2.0, 2.0))
    sites.add(5, Point(3.0, 3.0))
    assert list(sites) == [5, 7] and len(sites) == 2
    assert sites.row(5) == 0 and sites.row(7) == 1 and sites.row(9) is None
    assert sites[5] == Point(1.0, 1.0)
    assert 5 in sites and 9 not in sites


# ----------------------------------------------------------------------
# The history's site set
# ----------------------------------------------------------------------
class TestHistorySites:
    def test_tid_keeps_its_first_row(self, small_db, box):
        hist = ObservationHistory(LrLbsInterface(small_db, k=4))
        rng = np.random.default_rng(3)
        answers = [hist.query(box.sample(rng)) for _ in range(25)]
        order = first_seen((r.tid, r.location) for a in answers for r in a.results)
        assert list(hist.locations.items()) == order
        for row, (tid, _loc) in enumerate(order):
            assert hist.locations.row(tid) == row

    def test_load_state_rebuilds_straight_row_order(self, small_db, box):
        # A snapped engine serves some points a neighbour's answer, so the
        # state holds answers under two keys; replay must still give the
        # straight run's rows.
        def interface():
            return LrLbsInterface(small_db, k=3,
                                  engine=QueryEngineConfig(snap_resolution=2.0))

        agg = LrLbsAgg(interface(), UniformSampler(box), AggregateQuery.count(), seed=4)
        agg.run(MaxSamples(12))
        straight = agg.history
        resumed = ObservationHistory(interface())
        resumed.load_state_dict(straight.state_dict())
        assert len(straight.locations) > 20
        assert list(resumed.locations.items()) == list(straight.locations.items())
        n = len(straight.locations)
        assert np.array_equal(resumed.locations._xy[:n], straight.locations._xy[:n])

    def test_reset_sample_empties_the_set(self, small_db):
        hist = ObservationHistory(LrLbsInterface(small_db, k=3), enabled=False)
        hist.query(Point(50, 50))
        assert len(hist.locations) == 3
        hist.reset_sample()
        assert len(hist.locations) == 0 and not list(hist.locations)
        fresh = ObservationHistory(LrLbsInterface(small_db, k=3))
        fresh.query(Point(20, 70))
        hist.query(Point(20, 70))
        assert list(hist.locations.items()) == list(fresh.locations.items())
