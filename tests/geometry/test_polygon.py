"""Tests for labeled convex polygons and half-plane clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    BBOX_LABEL,
    EPS,
    ConvexPolygon,
    HalfPlane,
    Point,
    Rect,
    bisector_halfplane,
)
from repro.geometry.primitives import polygon_area
from reference_clip import _coordinate_scale, reference_clip

BOX = Rect(0, 0, 10, 10)
coord = st.floats(min_value=-20, max_value=20, allow_nan=False)


class TestConstruction:
    def test_from_rect(self):
        poly = ConvexPolygon.from_rect(BOX)
        assert len(poly) == 4
        assert poly.area() == pytest.approx(100.0)
        assert set(poly.edge_labels) == {BBOX_LABEL}

    def test_empty(self):
        assert ConvexPolygon.empty().is_empty()
        assert not ConvexPolygon.empty()

    def test_label_mismatch_raises(self):
        with pytest.raises(ValueError):
            ConvexPolygon([Point(0, 0), Point(1, 0), Point(0, 1)], ["a"])

    def test_centroid_perimeter(self):
        poly = ConvexPolygon.from_rect(BOX)
        assert poly.centroid() == Point(5, 5)
        assert poly.perimeter() == pytest.approx(40.0)

    def test_bounding_rect(self):
        poly = ConvexPolygon.from_rect(Rect(1, 2, 3, 4))
        assert poly.bounding_rect() == Rect(1, 2, 3, 4)


class TestContains:
    def test_inside_outside_boundary(self):
        poly = ConvexPolygon.from_rect(BOX)
        assert poly.contains(Point(5, 5))
        assert poly.contains(Point(0, 0))
        assert not poly.contains(Point(11, 5))


class TestClip:
    def test_no_op_when_fully_inside(self):
        poly = ConvexPolygon.from_rect(BOX)
        clipped = poly.clip(HalfPlane(1, 0, 100))  # x <= 100
        assert clipped.area() == pytest.approx(100.0)

    def test_empty_when_fully_outside(self):
        poly = ConvexPolygon.from_rect(BOX)
        assert poly.clip(HalfPlane(1, 0, -5)).is_empty()

    def test_half_cut(self):
        poly = ConvexPolygon.from_rect(BOX).clip(HalfPlane(1, 0, 5, "cut"))
        assert poly.area() == pytest.approx(50.0)
        assert "cut" in poly.labels()

    def test_new_edge_carries_label(self):
        poly = ConvexPolygon.from_rect(BOX).clip(HalfPlane(1, 0, 5, "cut"))
        cut_edges = [(a, b) for a, b, lbl in poly.edges() if lbl == "cut"]
        assert len(cut_edges) == 1
        (a, b) = cut_edges[0]
        assert a.x == pytest.approx(5.0) and b.x == pytest.approx(5.0)

    def test_surviving_edges_keep_labels(self):
        poly = ConvexPolygon.from_rect(BOX).clip(HalfPlane(1, 0, 5, "cut"))
        assert BBOX_LABEL in poly.labels()

    def test_clip_many_short_circuits(self):
        poly = ConvexPolygon.from_rect(BOX)
        out = poly.clip_many([HalfPlane(1, 0, -5), HalfPlane(0, 1, 5)])
        assert out.is_empty()

    def test_clip_rect(self):
        poly = ConvexPolygon.from_rect(BOX).clip_rect(Rect(2, 2, 4, 7))
        assert poly.area() == pytest.approx(10.0)

    def test_bisector_clip_splits_area(self):
        poly = ConvexPolygon.from_rect(BOX)
        hp = bisector_halfplane(Point(2, 5), Point(8, 5))
        assert poly.clip(hp).area() == pytest.approx(50.0)

    @given(st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_clip_reduces_area_and_stays_inside(self, cuts):
        poly = ConvexPolygon.from_rect(BOX)
        for tx, ty, ux, uy in cuts:
            t, u = Point(tx, ty), Point(ux, uy)
            if (t.x, t.y) == (u.x, u.y):
                continue
            prev_area = poly.area()
            poly = poly.clip(bisector_halfplane(t, u))
            assert poly.area() <= prev_area + 1e-9
            if poly.is_empty():
                return
        for v in poly.vertices:
            assert BOX.contains(v, tol=1e-6)


def clip_bits(poly):
    """Vertex floats (as hex), edge labels, emptiness and area."""
    return ([(v.x.hex(), v.y.hex()) for v in poly.vertices], poly.edge_labels,
            poly.is_empty(), poly.area().hex())


def km_polygon(rng):
    """A random convex polygon in metres: 3-11 vertices on a circle of
    radius 10 m to 50 km, centred up to 2,000 km from the origin; one in
    four is a needle, a triangle with a corner of 1e-9 to 1e-5 rad."""
    n = int(rng.integers(3, 12))
    cx, cy = rng.uniform(-2e6, 2e6, 2)
    r = 10.0 ** rng.uniform(1.0, 4.7)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    if rng.random() < 0.25:
        n = 3
        theta, half = rng.uniform(0.0, 2.0 * np.pi), 10.0 ** rng.uniform(-9.0, -5.0) / 2
        angles = np.array([theta + np.pi, theta - half, theta + half])
    vertices = [Point(float(cx + r * np.cos(t)), float(cy + r * np.sin(t))) for t in angles]
    labels = [i if rng.random() < 0.7 else BBOX_LABEL for i in range(n)]
    return ConvexPolygon(vertices, labels)


def unit(theta):
    return float(np.cos(theta)), float(np.sin(theta))


def cut_plane(rng, poly, kind):
    """A half-plane of one kind against ``poly``'s vertices."""
    vs = poly.vertices
    n = len(vs)
    i = int(rng.integers(n))
    p, q = vs[i], vs[(i + 1) % n]
    scale = _coordinate_scale(vs)
    if kind == "random":  # a line through a random point of the bounding box
        a, b = unit(rng.uniform(0.0, 2.0 * np.pi))
        x = rng.uniform(min(v.x for v in vs), max(v.x for v in vs))
        y = rng.uniform(min(v.y for v in vs), max(v.y for v in vs))
        return HalfPlane(a, b, a * x + b * y, "cut")
    if kind == "vertex":  # a line through a vertex
        a, b = unit(rng.uniform(0.0, 2.0 * np.pi))
        return HalfPlane(a, b, a * p.x + b * p.y, "cut")
    if kind == "parallel":  # an edge's line, moved by a few clip tolerances
        a, b = q.y - p.y, p.x - q.x
        shift = rng.uniform(-3.0, 3.0) * EPS * float(np.hypot(a, b)) * scale
        hp = HalfPlane(a, b, a * p.x + b * p.y + shift, "cut")
        return hp.flipped() if rng.random() < 0.5 else hp
    # "sliver": keep a strip along an edge, or a corner at a vertex, about
    # as wide as the merge tolerance, so that the clip's vertices merge
    # down to fewer than three or just stay apart.
    width = 10.0 ** rng.uniform(-12.0, -8.0) * scale
    if rng.random() < 0.5:
        a, b = p.y - q.y, q.x - p.x  # inward normal of edge p -> q
    else:
        cx = sum(v.x for v in vs) / n
        cy = sum(v.y for v in vs) / n
        a, b = cx - p.x, cy - p.y
    norm = float(np.hypot(a, b)) or 1.0
    a, b = a / norm, b / norm
    return HalfPlane(a, b, a * p.x + b * p.y + width * rng.uniform(0.0, 1.0), "cut")


class TestClipMatchesReference:
    """``ConvexPolygon.clip`` runs the flat kernel; it must reproduce the
    ``Point``-based clip it replaced bit for bit, including the scale
    and area it carries into the next clip."""

    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(["random", "vertex", "parallel", "sliver"]),
                    min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_chained_clips(self, seed, kinds):
        rng = np.random.default_rng(seed)
        got = want = km_polygon(rng)
        for kind in kinds:
            hp = cut_plane(rng, want, kind)
            got, want = got.clip(hp), reference_clip(want, hp)
            assert clip_bits(got) == clip_bits(want)
            # What the kernel's polygon carries is what its vertices give.
            assert got._scale in (None, _coordinate_scale(got.vertices))
            assert got._area in (None, polygon_area(got.vertices))
            if want.is_empty():
                return

    def test_sliver_dedupes_to_nothing(self):
        # Sutherland–Hodgman keeps the needle's tip (0, 0) and two
        # crossings 0.01 m away and 2e-10 m apart, which merge: fewer
        # than three vertices are left.
        poly = ConvexPolygon([Point(0.0, 0.0), Point(1e6, -0.01), Point(1e6, 0.01)])
        hp = HalfPlane(1.0, 0.0, 0.01, "cut")
        got = poly.clip(hp)
        assert got.vertices == () and got.is_empty()
        assert clip_bits(got) == clip_bits(reference_clip(poly, hp))


class TestSampling:
    def test_samples_inside(self):
        rng = np.random.default_rng(0)
        poly = ConvexPolygon.from_rect(BOX).clip(HalfPlane(1, 1, 10))
        for _ in range(200):
            assert poly.contains(poly.sample(rng), tol=1e-9)

    def test_sample_empty_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ConvexPolygon.empty().sample(rng)

    def test_sample_roughly_uniform(self):
        rng = np.random.default_rng(1)
        poly = ConvexPolygon.from_rect(BOX)
        left = sum(poly.sample(rng).x < 5 for _ in range(2000))
        assert 0.4 < left / 2000 < 0.6

    def test_triangles_cover_area(self):
        poly = ConvexPolygon.from_rect(BOX).clip(HalfPlane(1, 1, 12))
        from repro.geometry import orientation

        tri_area = sum(abs(orientation(a, b, c)) / 2 for a, b, c in poly.triangles())
        assert tri_area == pytest.approx(poly.area())
