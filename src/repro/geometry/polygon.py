"""Convex polygons with labeled edges and half-plane clipping.

The tentative Voronoi cell of a tuple is maintained as a
:class:`ConvexPolygon` and refined by clipping with perpendicular-bisector
half-planes (paper §3.1).  Each edge remembers the ``label`` of the
half-plane that created it, which lets the algorithms answer questions like

* "is this edge contributed by a Fast-Init fake corner?" (paper §3.2.1), and
* "which neighbouring subset does crossing this edge lead to?" (the subset
  BFS used for top-k cells, see :mod:`repro.geometry.arrangement`).

Vertices are stored counter-clockwise; ``edge_labels[i]`` tags the edge from
``vertices[i]`` to ``vertices[(i+1) % n]``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence

from .halfplane import HalfPlane
from .primitives import (
    EPS,
    Point,
    Rect,
    distance,
    interpolate,
    orientation,
    polygon_area,
    polygon_centroid,
)

__all__ = ["ConvexPolygon", "BBOX_LABEL"]

#: Label attached to edges inherited from the bounding rectangle.
BBOX_LABEL = "bbox"

#: Vertices closer than this are merged after clipping.
_MERGE_TOL = 1e-9


class ConvexPolygon:
    """An immutable convex polygon with per-edge labels."""

    __slots__ = ("vertices", "edge_labels")

    def __init__(self, vertices: Sequence[Point], edge_labels: Optional[Sequence[object]] = None):
        vs = [Point(float(p[0]), float(p[1])) for p in vertices]
        if edge_labels is None:
            edge_labels = [None] * len(vs)
        if len(edge_labels) != len(vs):
            raise ValueError("edge_labels must match vertices 1:1")
        self.vertices: tuple[Point, ...] = tuple(vs)
        self.edge_labels: tuple[object, ...] = tuple(edge_labels)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_rect(rect: Rect, label: object = BBOX_LABEL) -> "ConvexPolygon":
        """The rectangle as a CCW polygon; all edges share ``label``."""
        return ConvexPolygon(rect.corners(), [label] * 4)

    @staticmethod
    def empty() -> "ConvexPolygon":
        return ConvexPolygon([], [])

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertices)

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area():.6g})"

    def is_empty(self, min_area: float = 0.0) -> bool:
        """True when the polygon has no interior (or area below ``min_area``)."""
        if len(self.vertices) < 3:
            return True
        return self.area() <= max(min_area, 0.0)

    def area(self) -> float:
        return abs(polygon_area(self.vertices))

    def centroid(self) -> Point:
        return polygon_centroid(self.vertices)

    def perimeter(self) -> float:
        n = len(self.vertices)
        return sum(distance(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n))

    def edges(self) -> Iterator[tuple[Point, Point, object]]:
        """Yield ``(start, end, label)`` for every edge."""
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n], self.edge_labels[i]

    def bounding_rect(self) -> Rect:
        if not self.vertices:
            raise ValueError("empty polygon has no bounding rectangle")
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        """Point-in-convex-polygon test (boundary counts as inside)."""
        n = len(self.vertices)
        if n < 3:
            return False
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            if orientation(a, b, p) < -tol * max(1.0, distance(a, b)):
                return False
        return True

    def labels(self) -> set:
        """Set of distinct edge labels."""
        return set(self.edge_labels)

    # ------------------------------------------------------------------
    # Clipping
    # ------------------------------------------------------------------
    def clip(self, hp: HalfPlane) -> "ConvexPolygon":
        """Intersection with a half-plane (Sutherland–Hodgman, one plane).

        New edges introduced along the half-plane boundary carry
        ``hp.label``; surviving edges keep their labels.
        """
        n = len(self.vertices)
        if n == 0:
            return self
        tol = EPS * hp.scale() * _coordinate_scale(self.vertices)
        values = [hp.value(v) for v in self.vertices]
        if all(v <= tol for v in values):
            return self  # fully inside; nothing to do
        if all(v >= -tol for v in values):
            return ConvexPolygon.empty()  # fully outside

        out_vertices: list[Point] = []
        out_labels: list[object] = []
        for i in range(n):
            p, q = self.vertices[i], self.vertices[(i + 1) % n]
            vp, vq = values[i], values[(i + 1) % n]
            label = self.edge_labels[i]
            p_in = vp <= tol
            q_in = vq <= tol
            if p_in:
                out_vertices.append(p)
                if q_in:
                    out_labels.append(label)
                else:
                    out_labels.append(label)
                    x = _crossing(p, q, vp, vq)
                    out_vertices.append(x)
                    out_labels.append(hp.label)
            elif q_in:
                x = _crossing(p, q, vp, vq)
                out_vertices.append(x)
                out_labels.append(label)
        return _dedupe(out_vertices, out_labels)

    def clip_many(self, half_planes: Iterable[HalfPlane]) -> "ConvexPolygon":
        """Clip by several half-planes, short-circuiting when empty."""
        poly: ConvexPolygon = self
        for hp in half_planes:
            poly = poly.clip(hp)
            if poly.is_empty():
                return ConvexPolygon.empty()
        return poly

    def clip_rect(self, rect: Rect, label: object = BBOX_LABEL) -> "ConvexPolygon":
        """Intersection with an axis-aligned rectangle."""
        planes = [
            HalfPlane(-1.0, 0.0, -rect.x0, label),
            HalfPlane(1.0, 0.0, rect.x1, label),
            HalfPlane(0.0, -1.0, -rect.y0, label),
            HalfPlane(0.0, 1.0, rect.y1, label),
        ]
        return self.clip_many(planes)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def triangles(self) -> list[tuple[Point, Point, Point]]:
        """Fan triangulation (valid for convex polygons)."""
        vs = self.vertices
        return [(vs[0], vs[i], vs[i + 1]) for i in range(1, len(vs) - 1)]

    def sample(self, rng) -> Point:
        """Uniform random interior point.

        Picks a fan triangle proportionally to area, then samples the
        triangle by the standard square-root warp.
        """
        tris = self.triangles()
        if not tris:
            raise ValueError("cannot sample from an empty polygon")
        areas = [abs(orientation(a, b, c)) / 2.0 for a, b, c in tris]
        total = sum(areas)
        if total <= 0.0:
            raise ValueError("cannot sample from a degenerate polygon")
        u = rng.random() * total
        acc = 0.0
        chosen = tris[-1]
        for tri, w in zip(tris, areas):
            acc += w
            if u <= acc:
                chosen = tri
                break
        return sample_triangle(chosen, rng)


def sample_triangle(tri: tuple[Point, Point, Point], rng) -> Point:
    """Uniform point in a triangle via the sqrt warp."""
    a, b, c = tri
    r1 = math.sqrt(rng.random())
    r2 = rng.random()
    x = (1 - r1) * a.x + r1 * (1 - r2) * b.x + r1 * r2 * c.x
    y = (1 - r1) * a.y + r1 * (1 - r2) * b.y + r1 * r2 * c.y
    return Point(x, y)


def _crossing(p: Point, q: Point, vp: float, vq: float) -> Point:
    """Where segment ``pq`` crosses the clip line (``vp``/``vq`` are the
    signed slacks at the endpoints, of opposite signs)."""
    t = vp / (vp - vq)
    t = min(1.0, max(0.0, t))
    return interpolate(p, q, t)


def _coordinate_scale(vertices: Sequence[Point]) -> float:
    """Rough coordinate magnitude, to keep clipping tolerances scale-free."""
    m = 1.0
    for v in vertices:
        m = max(m, abs(v.x), abs(v.y))
    return m


def _dedupe(vertices: list[Point], labels: list[object]) -> ConvexPolygon:
    """Drop (near-)duplicate consecutive vertices produced by clipping.

    When the zero-length edge ``(v[i], v[i+1])`` collapses, ``v[i+1]`` is
    removed and ``v[i]`` inherits the *following* edge's label, preserving
    the label of every edge with positive length.
    """
    n = len(vertices)
    if n == 0:
        return ConvexPolygon.empty()
    scale = _coordinate_scale(vertices)
    tol = _MERGE_TOL * scale
    keep_v: list[Point] = []
    keep_l: list[object] = []
    for i in range(n):
        v = vertices[i]
        nxt = vertices[(i + 1) % n]
        if distance(v, nxt) <= tol:
            continue  # outgoing edge degenerate: drop this vertex
        keep_v.append(v)
        keep_l.append(labels[i])
    if len(keep_v) < 3:
        return ConvexPolygon.empty()
    return ConvexPolygon(keep_v, keep_l)
