"""Tests for arrangement level regions (top-k Voronoi cells)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.voronoi_oracle import _inscribed_ngon_halfplanes
from repro.geometry import (
    EPS,
    ConvexPolygon,
    HalfPlane,
    LevelRegion,
    Point,
    Rect,
    bisector_halfplane,
    build_level_region,
    full_voronoi_diagram,
    true_topk_cell,
    true_voronoi_cell,
)
from repro.index import BruteForceIndex
from reference_clip import reference_clip

BOX = Rect(0, 0, 100, 100)


def random_sites(rng, n):
    return [Point(rng.random() * 100, rng.random() * 100) for _ in range(n)]


class TestLevelRegion:
    def test_no_constraints_whole_base(self):
        base = ConvexPolygon.from_rect(BOX)
        region = build_level_region([], 0, base, Point(50, 50))
        assert region.area() == pytest.approx(BOX.area)

    def test_level_ge_n_whole_base(self):
        base = ConvexPolygon.from_rect(BOX)
        cons = [bisector_halfplane(Point(10, 10), Point(90, 90))]
        region = build_level_region(cons, 5, base, Point(50, 50))
        assert region.area() == pytest.approx(BOX.area)

    def test_seed_outside_raises(self):
        base = ConvexPolygon.from_rect(BOX)
        cons = [bisector_halfplane(Point(10, 50), Point(20, 50))]
        with pytest.raises(ValueError):
            build_level_region(cons, 0, base, Point(90, 50))

    def test_top1_matches_direct_clip(self):
        rng = np.random.default_rng(0)
        sites = random_sites(rng, 20)
        t = sites[0]
        cell = true_voronoi_cell(t, sites[1:], BOX)
        cons = [bisector_halfplane(t, u, label=i) for i, u in enumerate(sites[1:])]
        region = build_level_region(cons, 0, ConvexPolygon.from_rect(BOX), t)
        assert region.num_pieces() == 1
        assert region.area() == pytest.approx(cell.area())

    def test_boundary_vertices_on_boundary(self):
        rng = np.random.default_rng(1)
        sites = random_sites(rng, 15)
        region = true_topk_cell(sites[0], sites[1:], 2, BOX)
        for v in region.boundary_vertices():
            # A boundary vertex is in the closed region but not interior:
            # nudging outward along some direction must leave the region.
            assert region.contains(v, tol=1e-6)

    def test_sample_inside(self):
        rng = np.random.default_rng(2)
        sites = random_sites(rng, 12)
        region = true_topk_cell(sites[0], sites[1:], 3, BOX)
        for _ in range(100):
            p = region.sample(rng)
            assert region.contains(p, tol=1e-7)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_membership_matches_knn(self, k, seed):
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, 14)
        region = true_topk_cell(sites[0], sites[1:], k, BOX)
        index = BruteForceIndex([(p.x, p.y, i) for i, p in enumerate(sites)])
        for _ in range(150):
            q = BOX.sample(rng)
            topk = [tid for _, tid in index.knn(q.x, q.y, k)]
            assert region.contains(q) == (0 in topk)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_area_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, 12)
        areas = [true_topk_cell(sites[0], sites[1:], k, BOX).area() for k in (1, 2, 3)]
        assert areas[0] <= areas[1] + 1e-9 <= areas[2] + 2e-9

    def test_topk_area_sums_to_k_times_box(self):
        """Σ_t |V_k(t)| = k * |V0| (every location has exactly k owners)."""
        rng = np.random.default_rng(3)
        sites = random_sites(rng, 10)
        k = 2
        total = 0.0
        for i, t in enumerate(sites):
            others = sites[:i] + sites[i + 1:]
            total += true_topk_cell(t, others, k, BOX).area()
        assert total == pytest.approx(k * BOX.area, rel=1e-6)


def reference_level_region(constraints, level, base, seed, max_pieces=100_000):
    """``build_level_region`` with every piece clipped from ``base`` by
    every constraint in index order: the from-scratch clip chain the
    resumable kernel must reproduce bit for bit.  Its clips are
    ``reference_clip``'s, so it shares no clip code with the kernel."""
    cons = tuple(constraints)
    region = LevelRegion(cons, level, base)
    if base.is_empty():
        return region

    if level >= len(cons):
        region.pieces[frozenset(range(len(cons)))] = base
        return region

    seed_subset = region.violated_subset(seed)
    if len(seed_subset) > level:
        raise ValueError(
            f"seed violates {len(seed_subset)} constraints; level is {level}"
        )

    def piece_for(subset: frozenset) -> ConvexPolygon:
        poly = base
        for j, hp in enumerate(cons):
            plane = hp.flipped() if j in subset else hp
            poly = reference_clip(poly, plane.relabel(j))
            if poly.is_empty():
                return ConvexPolygon.empty()
        return poly

    start = piece_for(seed_subset)
    if start.is_empty():
        start, seed_subset = _reference_rescue_seed(region, seed, piece_for, level)
        if start.is_empty():
            return region

    region.pieces[seed_subset] = start
    queue = [seed_subset]
    while queue:
        subset = queue.pop()
        poly = region.pieces[subset]
        for label in poly.labels():
            if not isinstance(label, int):
                continue
            neighbour = subset ^ {label}
            if len(neighbour) > level or neighbour in region.pieces:
                continue
            npoly = piece_for(neighbour)
            if npoly.is_empty():
                continue
            region.pieces[neighbour] = npoly
            queue.append(neighbour)
            if len(region.pieces) > max_pieces:
                raise RuntimeError("level region exceeded max_pieces")
    return region


def _reference_rescue_seed(region, seed, piece_for, level):
    near = [
        j for j, hp in enumerate(region.constraints)
        if abs(hp.value(seed)) <= 1e-6 * hp.scale()
    ]
    base_subset = region.violated_subset(seed)
    for j in near:
        candidate = base_subset ^ {j}
        if len(candidate) > level:
            continue
        poly = piece_for(candidate)
        if not poly.is_empty():
            return poly, candidate
    return ConvexPolygon.empty(), base_subset


def region_bits(region):
    """Piece order, subsets, vertex floats (as hex) and edge labels."""
    return [
        (subset, [(v.x.hex(), v.y.hex()) for v in poly.vertices], poly.edge_labels)
        for subset, poly in region.pieces.items()
    ]


def assert_matches_reference(constraints, level, base, seed):
    """The kernel and the reference agree exactly, or both reject the seed."""
    try:
        want = reference_level_region(constraints, level, base, seed)
    except ValueError:
        with pytest.raises(ValueError):
            build_level_region(constraints, level, base, seed)
        return None
    got = build_level_region(constraints, level, base, seed)
    assert region_bits(got) == region_bits(want)
    return got


def random_direction(rng):
    theta = rng.random() * 2.0 * np.pi
    return Point(float(np.cos(theta)), float(np.sin(theta)))


class TestKernelMatchesReference:
    """``build_level_region`` skips no-op clips and resumes BFS neighbours
    from shared clip prefixes; neither may change a single bit."""

    @given(st.integers(0, 10_000), st.integers(0, 40), st.integers(0, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bisectors(self, seed, n, level, nearest_first):
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, n + 1)
        t, others = sites[0], sites[1:]
        if nearest_first:  # the order TopHCellOracle passes them in
            others.sort(key=lambda u: (u.x - t.x) ** 2 + (u.y - t.y) ** 2)
        cons = [bisector_halfplane(t, u, label=i) for i, u in enumerate(others)]
        assert_matches_reference(cons, level, ConvexPolygon.from_rect(BOX), t)

    @given(st.integers(0, 10_000), st.integers(1, 25), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_lnr_style_halfplanes(self, seed, n, level):
        # Estimated edge lines of any direction, mostly oriented to keep
        # the seed, sometimes not (the seed then violates them).
        rng = np.random.default_rng(seed)
        q = BOX.sample(rng)
        cons = []
        for i in range(n):
            point = Point(q.x + rng.normal(0, 20), q.y + rng.normal(0, 20))
            inside = q if rng.random() < 0.85 else BOX.sample(rng)
            cons.append(HalfPlane.from_point_direction(
                point, random_direction(rng), inside=inside, label=i))
        assert_matches_reference(cons, level, ConvexPolygon.from_rect(BOX), q)

    @given(st.integers(0, 10_000), st.integers(2, 20), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_and_parallel_planes(self, seed, n, level):
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, n + 1)
        t = sites[0]
        cons = [bisector_halfplane(t, u, label=i) for i, u in enumerate(sites[1:])]
        for hp in list(cons):
            pick = rng.random()
            if pick < 0.2:
                cons.append(hp)  # exact duplicate
            elif pick < 0.4:
                cons.append(HalfPlane(2.0 * hp.a, 2.0 * hp.b, 2.0 * hp.c, hp.label))
            elif pick < 0.6:
                shift = rng.normal(0, 0.2) * hp.scale()
                cons.append(HalfPlane(hp.a, hp.b, hp.c + shift, hp.label))
            elif pick < 0.8:
                # Parallel within a few clip tolerances (EPS * scale *
                # coordinate scale, the latter at most 100 here): vertices
                # cut by one plane sit near the other's tolerance band.
                shift = rng.uniform(-3.0, 3.0) * EPS * hp.scale() * rng.uniform(10.0, 100.0)
                cons.append(HalfPlane(hp.a, hp.b, hp.c + shift, hp.label))
        order = rng.permutation(len(cons))
        cons = [cons[i] for i in order]
        assert_matches_reference(cons, level, ConvexPolygon.from_rect(BOX), t)

    @given(st.integers(0, 10_000), st.integers(0, 12), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_seed_on_constraint_lines(self, seed, n, level):
        # Two opposed planes through the seed leave its own subset a
        # zero-area sliver, so the build goes through _rescue_seed.
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, n + 1)
        q = sites[0]
        cons = [bisector_halfplane(q, u, label=i) for i, u in enumerate(sites[1:])]
        if rng.random() < 0.5:
            through = [HalfPlane(1.0, 0.0, q.x, "x+"), HalfPlane(-1.0, 0.0, -q.x, "x-")]
        else:
            through = [HalfPlane(0.0, 1.0, q.y, "y+"), HalfPlane(0.0, -1.0, -q.y, "y-")]
        for hp in through:
            cons.insert(int(rng.integers(0, len(cons) + 1)), hp)
        assert_matches_reference(cons, level, ConvexPolygon.from_rect(BOX), q)

    def test_seed_on_constraint_lines_is_rescued(self):
        q = Point(50.0, 50.0)
        cons = [HalfPlane(1.0, 0.0, q.x), HalfPlane(-1.0, 0.0, -q.x),
                bisector_halfplane(q, Point(70.0, 60.0))]
        region = assert_matches_reference(cons, 1, ConvexPolygon.from_rect(BOX), q)
        assert region.violated_subset(q) not in region.pieces
        assert region.area() > 0.0

    @given(st.integers(0, 10_000), st.integers(1, 15), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_base_edges_with_int_labels(self, seed, n, level):
        # The search toggles any int edge label, including a base edge's
        # that is negative, out of range or equal to a constraint index.
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, n + 1)
        t = sites[0]
        base = ConvexPolygon(BOX.corners(), [-1, n + 5, 0, "bbox"])
        cons = [bisector_halfplane(t, u, label=i) for i, u in enumerate(sites[1:])]
        assert_matches_reference(cons, level, base, t)

    @given(st.integers(0, 10_000), st.integers(0, 30), st.integers(0, 3),
           st.floats(5.0, 80.0))
    @settings(max_examples=40, deadline=None)
    def test_max_radius_base(self, seed, n, level, radius):
        rng = np.random.default_rng(seed)
        sites = random_sites(rng, n + 1)
        t = sites[0]
        base = ConvexPolygon.from_rect(BOX).clip_many(_inscribed_ngon_halfplanes(t, radius))
        cons = [bisector_halfplane(t, u, label=i) for i, u in enumerate(sites[1:])]
        assert_matches_reference(cons, level, base, t)


class TestVoronoiRef:
    def test_partition(self):
        rng = np.random.default_rng(4)
        sites = {i: p for i, p in enumerate(random_sites(rng, 25))}
        cells = full_voronoi_diagram(sites, BOX)
        assert sum(c.area() for c in cells.values()) == pytest.approx(BOX.area, rel=1e-9)

    def test_cell_contains_its_site(self):
        rng = np.random.default_rng(5)
        sites = {i: p for i, p in enumerate(random_sites(rng, 15))}
        cells = full_voronoi_diagram(sites, BOX)
        for i, cell in cells.items():
            assert cell.contains(sites[i], tol=1e-9)

    def test_two_sites_half_plane_split(self):
        cells = full_voronoi_diagram({0: Point(25, 50), 1: Point(75, 50)}, BOX)
        assert cells[0].area() == pytest.approx(BOX.area / 2)
        assert cells[1].area() == pytest.approx(BOX.area / 2)
